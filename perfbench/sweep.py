"""On-demand scale sweep of paper-batch, with a projection to the paper.

``python3 perfbench/run.py --report sweep --seed 1`` runs two traced
rounds at each of ``SWEEP_DAYS`` (every batch path, the tick replay
and the streamed analysis at least once), fits a
power law ``t = a * runs**b`` per metric by least squares on the logs,
and projects each metric to the paper's 5,000,000 runs over 518 days.
It is a report, not a gate: one repetition per size, nothing compared
against bounds.  The table and the fitted exponents are also written
to ``.perfbench/sweep-seed<N>.json``.
"""

from __future__ import annotations

import json
import math
import shutil

import batch
from common import WORK, Recorder, Zygote, child_env

#: The paper's field study: ~5M application runs over 518 days.
PAPER_RUNS = 5_000_000
#: The sizes (days of paper-batch) the sweep runs.
SWEEP_DAYS = (10.0, 30.0, 90.0)

#: Metrics whose growth with run count the sweep fits.
FITTED = ("sim.simulate_s", "sim.write_bundle_s", "logs.read_text_s",
          "logs.columnar.convert_s", "logs.columnar.load_s",
          *(f"core.{stage}_s" for stage in batch.STAGES),
          "first_analyze_s", "repeat_analyze_s", "stream_analyze_s",
          "live_catchup_s", "peak_rss_mb", "stream_peak_rss_mb")


def fit(xs: list[float], ys: list[float]) -> tuple[float, float] | None:
    """(a, b) of ``y = a * x**b``, or None when a point is not positive."""
    if len(xs) < 2 or min(xs) <= 0 or min(ys) <= 0:
        return None
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    var = sum((x - mx) ** 2 for x in lx)
    if var == 0:
        return None
    b = sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / var
    return math.exp(my - b * mx), b


def main(args, spec: dict) -> int:
    points = []
    correct = True
    for size in SWEEP_DAYS:
        sized = dict(spec, days=size)
        work = WORK / "sweep"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        zygote = Zygote(child_env())
        rec = Recorder(zygote, trace=True)
        try:
            e2e, layer, _ = batch.measure(rec, sized, args.seed, 0.0, work,
                                       setups=1)
        finally:
            zygote.close()
            shutil.rmtree(work, ignore_errors=True)
        correct &= rec.failed == 0
        values = {name: value for name, (value, _) in
                  {**e2e, **layer}.items()}
        points.append({"days": size, "runs": values.get("sim.runs"),
                       "values": values})
        print(f"{size:g} days: {values.get('sim.runs', 0):.0f} runs, "
              f"{rec.failed} failed operation(s)", flush=True)

    runs = [p["runs"] for p in points]
    header = "".join(f"{p['days']:>10g}d" for p in points)
    print(f"\n{'metric':<26}{header}  exponent  at {PAPER_RUNS:,} runs")
    fits = {}
    for name in FITTED:
        ys = [p["values"].get(name) for p in points]
        if None in ys:
            continue
        params = fit(runs, ys)
        cells = "".join(f"{y:>11.3f}" for y in ys)
        if params is None:
            print(f"{name:<26}{cells}  (no fit)")
            continue
        a, b = params
        projected = a * PAPER_RUNS ** b
        fits[name] = {"a": a, "b": b, "projected": projected}
        print(f"{name:<26}{cells}  {b:8.2f}  {projected:14.1f}")
    out = WORK / f"sweep-seed{args.seed}.json"
    out.write_text(json.dumps({"points": points, "fits": fits,
                               "target_runs": PAPER_RUNS}, indent=1,
                              sort_keys=True) + "\n")
    print(f"\nsweep: {out.relative_to(WORK.parent)}")
    return 0 if correct else 1
