#!/usr/bin/env python3
"""LogDiver benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --report overhead --workload error-storm --seed 1
    python3 perfbench/run.py --report sweep --seed 1

The benchmark generates each workload's bundle from ``--seed``; the
program only sees that bundle.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a separate traced run.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric of BENCHMARK.json
untraced, every per-layer one traced.  See ``perfbench/README.md`` for the
workloads, the layer -> metric -> workload map and the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys

import batch
import dashboard
import sweep
from common import ROOT, SRC, WORK, Metrics, Recorder, Zygote, child_env

BATCH, DASHBOARD = "batch", "dashboard"

#: Workload name -> spec.  Sizes are set so one run (its set-ups, the
#: measured repetitions and the pass over the other paths) fits the
#: benchmark's time budget on a 2-vCPU machine; see README.md for why
#: each workload exists.  Every workload measures every layer: a batch
#: workload ends with a short serve pass over its bundle, the dashboard
#: workload with one pass of every batch path over its own.
WORKLOADS: dict[str, dict] = {
    # Run-heavy, the paper's regime: ALPS text parse and run assembly
    # dominate (assemble > filter + attribute).
    "paper-batch": {"kind": BATCH, "days": 12.0, "thinning": 0.02,
                    "rate_scale": 1.0, "tick_s": 3600.0,
                    "miss_window_s": 86400.0},
    # Error-heavy: 20x fault rates, 4x fewer runs.  Error parse, filter
    # and attribute dominate; ALPS parse and assemble are small.
    "error-storm": {"kind": BATCH, "days": 15.0, "thinning": 0.005,
                    "rate_scale": 20.0, "tick_s": 3600.0,
                    "miss_window_s": 86400.0},
    # A closed-loop dashboard client against the resident daemon.  Its
    # tick replay uses half-hour ticks so a p95 has 200 samples.
    "dashboard": {"kind": DASHBOARD, "days": 5.0, "thinning": 0.02,
                  "rate_scale": 1.0, "miss_window_s": 86400.0,
                  "tick_s": 1800.0},
}

#: Laptop-scale variants for the benchmark's own tests (``--tiny``).
TINY = {"machine_scale": 0.02, "days": 2.0, "tick_s": 600.0,
        "miss_window_s": 86400.0}

#: Metric name -> unit, as BENCHMARK.json declares them.  The untraced
#: result line carries every end-to-end metric, the traced one every
#: per-layer metric.  End-to-end timings that are too noisy on this
#: host to gate are listed there as per-layer metrics.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Measured end-to-end values printed in the table only (no bound
#: in BENCHMARK.json would hold for them).
EXTRA_UNITS = {"serve_hit_p95_ms": "ms"}
UNITS = {**END_TO_END, **PER_LAYER, **EXTRA_UNITS}


# -- one run ------------------------------------------------------------------

def workload_spec(name: str, tiny: bool = False) -> dict:
    spec = dict(WORKLOADS[name], name=name)
    if tiny:
        spec.update(TINY)
    return spec


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 tiny: bool = False) -> dict:
    """One benchmark run; returns the result object and its tables."""
    spec = workload_spec(name, tiny)
    work = WORK / "run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    zygote = Zygote(env)
    rec = Recorder(zygote, trace)
    bundle, simulation = work / "bundle", work / "simulation.pickle"
    try:
        if spec["kind"] == DASHBOARD:
            served = dashboard.measure(rec, spec, seed, seconds, work, env,
                                       bundle, simulation)
            e2e, layer, reference = batch.paths(
                rec, spec, seed, 0.0, work, batch.PASS, served.sims,
                dashboard.spare_setups(rec, served, spec, seed, work, env))
        else:
            e2e, layer, reference = batch.measure(rec, spec, seed, seconds,
                                                  work)
            served = dashboard.serve_pass(rec, spec, seed, bundle, work, env)
        dashboard.check(rec, served, reference, bundle)
        served_e2e, served_layer = dashboard.metrics(rec, served)
        e2e.update(served_e2e)
        layer.update(served_layer)
    finally:
        zygote.close()
        shutil.rmtree(work, ignore_errors=True)
    measured = {**e2e, **layer}
    chosen = {}
    for metric in PER_LAYER if trace else END_TO_END:
        if metric in measured:
            chosen[metric] = measured[metric]
        else:
            rec.fail(f"metric {metric} could not be measured")
    trace_path = None
    if trace:
        trace_path = WORK / "traces" / f"{name}-seed{seed}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_path, "w") as handle:
            for record in rec.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    return {
        "line": {
            "correct": rec.failed == 0,
            "attempted": rec.attempted,
            "failed": rec.failed,
            "metrics": {metric: {"value": value, "unit": UNITS[metric]}
                        for metric, (value, _) in sorted(chosen.items())},
        },
        "e2e": e2e, "layer": layer, "spans": rec.spans,
        "trace_path": trace_path,
    }


def render(title: str, metrics: Metrics, gated=None) -> str:
    lines = [title]
    for metric, (value, samples) in sorted(metrics.items()):
        unit = UNITS[metric]
        note = "" if gated is None or metric in gated else "  (not gated)"
        lines.append(f"  {metric:<30} {value:>14.4f} {unit:<6} n={samples}"
                     f"{note}")
    return "\n".join(lines)


def self_time_table(spans: list[dict], limit: int = 15) -> str:
    totals: dict[str, tuple[float, int]] = {}
    for record in spans:
        seconds, count = totals.get(record["name"], (0.0, 0))
        totals[record["name"]] = (seconds + record["self_s"], count + 1)
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][0])[:limit]
    lines = ["self time by span (all repetitions):"]
    lines += [f"  {name:<36} {seconds:>10.3f} s  x{count}"
              for name, (seconds, count) in ranked]
    return "\n".join(lines)


# -- entry point --------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", choices=("overhead", "sweep"),
                        help="overhead: traced minus untraced end-to-end "
                             "values; sweep: paper-batch at several sizes "
                             "with a projection to 5M runs (not gated)")
    parser.add_argument("--tiny", action="store_true",
                        help="laptop-scale inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.report != "sweep" and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds, so its daemon and zygote stop too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the root "
              f"of a repository checkout", file=sys.stderr)
        return 2
    if args.report == "sweep":
        return sweep.main(args, workload_spec("paper-batch", args.tiny))
    if args.report == "overhead":
        plain = run_workload(args.workload, args.seed, args.seconds, False,
                             tiny=args.tiny)
        traced = run_workload(args.workload, args.seed, args.seconds, True,
                              tiny=args.tiny)
        print(f"tracing overhead on {args.workload} (traced - untraced):")
        for metric, (value, _) in sorted(plain["e2e"].items()):
            other = traced["e2e"].get(metric)
            if other is not None:
                print(f"  {metric:<24} {value:>12.4f} -> {other[0]:>12.4f}"
                      f"  ({other[0] - value:+.4f} "
                      f"{UNITS[metric]})")
        return 0 if plain["line"]["correct"] and traced["line"]["correct"] \
            else 1
    out = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), tiny=args.tiny)
    if args.trace:
        print(render(f"{args.workload} seed {args.seed}: traced end-to-end "
                     f"(compare with --trace 0 for the overhead)",
                     out["e2e"]))
        print(render("per-layer", out["layer"]))
        print(self_time_table(out["spans"]))
        print(f"spans: {out['trace_path'].relative_to(ROOT)}")
    else:
        print(render(f"{args.workload} seed {args.seed}: end-to-end",
                     out["e2e"], END_TO_END))
    line = out["line"]
    print(f"operations: {line['attempted']} attempted, "
          f"{line['failed']} failed")
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
