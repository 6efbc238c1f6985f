"""The batch paths, and the batch workloads paper-batch and error-storm.

A batch run sets the bundle up five times, then cycles through the
batch paths -- text, convert, repeat, live catch-up, the live tick
replay and the streamed path, in the order ``SCHEDULE`` gives -- until
``--seconds`` have passed and the whole schedule ran at least once.
The dashboard workload runs each path once (``PASS``) over its own
bundle.  Every operation is a fresh process, and every path's
canonical summary must equal the text path's.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from pathlib import Path

from common import (
    Metrics,
    Recorder,
    check_reference,
    descendants,
    mb,
    median,
    percentile,
)

STAGES = ("classify", "filter", "assemble", "attribute", "categorize",
          "metrics")
#: Set-ups per run; setup_s is their median.  Each takes about a second.
#: The first writes the bundle; the others run one after each of the
#: first six path calls, into a spare directory, so their median spans
#: the host's drift over most of the run instead of one block of it.
SETUPS = 7
#: The streamed path's shape: 8 time shards over a 2-worker spawn pool.
SHARDS, JOBS = 8, 2
#: The order the fresh-process batch paths run in, cycled until the
#: run's time is up.  The host's speed drifts over seconds, so every
#: path is sampled all through the run rather than in one block, and
#: a path whose calls are short (convert, repeat: under a second) runs
#: more often, since each of its samples averages less of that drift.
#: A tick replay times only about a second of ticks, so it runs twice
#: a cycle; the costly streamed spawn pool runs once.  The first six
#: places name every path once (``PASS``): a run's shortest form.
SCHEDULE = ("text", "convert", "repeat", "live", "ticks", "stream",
            "repeat", "convert", "text", "repeat", "convert", "live",
            "ticks", "repeat")
#: Every batch path once, for a workload that measures them in passing.
PASS = SCHEDULE[:6]


def measure(rec: Recorder, spec: dict, seed: int, seconds: float,
            work: Path, *, setups: int = SETUPS,
            ) -> tuple[Metrics, Metrics, str | None]:
    """paper-batch / error-storm: every batch path in fresh processes.

    Returns the end-to-end and per-layer metrics and the text path's
    summary, the reference every other path is checked against.  The
    first set-up also pickles the simulation for the tick replay and,
    traced, scores the diagnosis against simulator truth; both happen
    outside its timed part.
    """
    first = rec.call("setup", spec=spec, seed=seed,
                     bundle=str(work / "bundle"), accuracy=rec.trace,
                     keep=str(work / "simulation.pickle"))
    done = [] if first is None else [first]
    left = setups - 1

    def between() -> None:
        nonlocal left
        if left > 0:
            left -= 1
            out = rec.call("setup", spec=spec, seed=seed,
                           bundle=str(work / "setup"))
            if out is not None:
                done.append(out)

    e2e, layer, reference = paths(rec, spec, seed, seconds, work, SCHEDULE,
                                  done, between)
    e2e.put("setup_s", median(s["setup_s"] for s in done), len(done))
    return e2e, layer, reference


def paths(rec: Recorder, spec: dict, seed: int, seconds: float, work: Path,
          schedule: tuple[str, ...], done: list[dict],
          between: Callable[[], None] | None = None,
          ) -> tuple[Metrics, Metrics, str | None]:
    """Cycle ``schedule`` over ``work``'s bundle until ``seconds`` pass.

    ``done`` are the set-ups that wrote the bundle and pickled the
    simulation; ``between``, called after each path call, may add more.
    The clock is checked before each operation, so a run overruns
    ``seconds`` by at most one operation once every path has run;
    ``schedule`` starts with ``PASS``.
    """
    bundle = str(work / "bundle")
    simulation = str(work / "simulation.pickle")
    results: dict[str, list[dict]] = {op: [] for op in PASS}

    def run_op(op: str) -> None:
        kwargs = {"bundle": bundle}
        if op == "stream":
            kwargs.update(shards=SHARDS, jobs=JOBS)
        elif op == "ticks":
            kwargs.update(simulation=simulation, seed=seed,
                          bundle=str(work / "feed"), tick_s=spec["tick_s"])
        out = rec.call(op, **kwargs)
        if out is not None:
            results[op].append(out)
        if between is not None:
            between()

    start = time.perf_counter()
    done_ops = 0
    while (done_ops < len(PASS)
           or time.perf_counter() - start < seconds):
        run_op(schedule[done_ops % len(schedule)])
        done_ops += 1

    texts = results["text"]
    reference = texts[0]["summary"] if texts else None
    check_reference(rec, reference, done)
    for op in ("text", "repeat", "stream", "live", "ticks"):
        for n, out in enumerate(results[op], 1):
            rec.check(f"{op}#{n}", out["summary"], reference)
    ticks = results["ticks"]
    pooled = {key: [v for t in ticks for v in t[key]]
              for key in ("tick_ms", "poll_ms", "ingest_ms", "advance_ms")}

    e2e = Metrics()

    def col(op: str, key: str) -> list:
        return [r[key] for r in results[op]]

    for op, key in (("text", "first_analyze_s"), ("convert", "convert_s"),
                    ("repeat", "repeat_analyze_s"),
                    ("stream", "stream_analyze_s"),
                    ("live", "live_catchup_s")):
        e2e.put(key, median(col(op, key)), len(results[op]))
    e2e.put("peak_rss_mb", mb(col("text", "maxrss_kb")), len(texts))
    stream_rss = [max(r["maxrss_kb"], r["peak_rss_kb"])
                  for r in results["stream"]]
    e2e.put("stream_peak_rss_mb", mb(stream_rss), len(stream_rss))
    n = len(pooled["tick_ms"])
    e2e.put("live_tick_p50_ms", percentile(pooled["tick_ms"], 0.50), n)
    e2e.put("live_tick_p95_ms", percentile(pooled["tick_ms"], 0.95), n)

    layer = Metrics()
    if not rec.trace:
        return e2e, layer, reference
    # The first set-up wrote the bundle and scored the diagnosis.
    scored = done[0] if done else {}
    layer.put("sim.simulate_s", median(s["simulate_s"] for s in done),
              len(done))
    layer.put("sim.write_bundle_s", median(s["write_s"] for s in done),
              len(done))
    layer.put("sim.runs", scored.get("truth_runs"))
    layer.put("sim.bundle_bytes", scored.get("bundle_bytes"))
    layer.put("logs.text_bytes", scored.get("text_bytes"))
    layer.put("logs.read_text_s", median(col("text", "read_text_s")),
              len(texts))
    if texts:
        first = texts[0]
        for stream in ("alps", "torque", "error"):
            layer.put(f"logs.records.{stream}", first[f"records_{stream}"])
        layer.put("core.error_records", first["records_error"])
        layer.put("core.clusters", first["clusters"])
        layer.put("core.clusters_per_error",
                  first["clusters"] / max(1, first["records_error"]))
        layer.put("core.runs", first["runs"])
    for key in ("system_recall", "system_precision", "cause_recall"):
        layer.put(f"core.{key}", scored.get(key))
    layer.put("logs.columnar.convert_s", median(col("convert", "convert_s")),
              len(results["convert"]))
    if results["convert"]:
        layer.put("logs.columnar.sidecar_bytes",
                  results["convert"][-1]["sidecar_bytes"])
    layer.put("logs.columnar.load_s", median(col("repeat", "load_s")),
              len(results["repeat"]))

    # The six LogDiver stages, from the program's own spans under the
    # benchmark's analyze spans (text and repeat ops alike).
    stage_s: dict[str, list[float]] = {stage: [] for stage in STAGES}
    units: list[list[float]] = []
    for trees in rec.trees.values():
        for tree in trees:
            for analyze in descendants(tree, "bench.core.analyze"):
                for stage in STAGES:
                    stage_s[stage].append(sum(
                        s["duration_s"] for s in descendants(analyze, stage)))
            for streamed in descendants(tree,
                                        "bench.campaign.analyze_streamed"):
                units.append([u["duration_s"]
                              for u in descendants(streamed, "unit")])
    for stage in STAGES:
        layer.put(f"core.{stage}_s", median(stage_s[stage]),
                  len(stage_s[stage]))
    if units:
        sums = [sum(u) for u in units]
        layer.put("campaign.units", median(len(u) for u in units), len(units))
        layer.put("campaign.unit_s_sum", median(sums), len(units))
        layer.put("campaign.unit_p50_s",
                  median(d for u in units for d in u),
                  sum(len(u) for u in units))
        layer.put("campaign.overhead_s", median(
            r["stream_analyze_s"] - s / JOBS
            for r, s in zip(results["stream"], sums)), len(units))
        layer.put("campaign.retries", sum(col("stream", "retries")))
    layer.put("follow.poll_ms_p50", percentile(pooled["poll_ms"], 0.5), n)
    layer.put("live.ingest_ms_p50", percentile(pooled["ingest_ms"], 0.5), n)
    layer.put("live.advance_ms_p50", percentile(pooled["advance_ms"], 0.5), n)
    layer.put("live.advance_ms_p95", percentile(pooled["advance_ms"], 0.95),
              n)
    if ticks:
        layer.put("live.ticks", len(ticks[0]["tick_ms"]))
        for key in ("records_in", "late_records", "forced_releases",
                    "max_buffered"):
            layer.put(f"live.{key}", ticks[0][key])
    return e2e, layer, reference
