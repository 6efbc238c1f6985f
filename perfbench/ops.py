"""Operations the benchmark times, one per forked child of the zygote.

Every function here runs inside a fresh child forked from
``zygote.py`` after the program's modules were imported, so the clock
starts after imports and no cache (the ``lru_cache`` on
``logs.messages`` above all) survives from an earlier repetition.
Each returns a JSON-able dict; times are wall-clock seconds taken
around the program's public calls.  ``span`` is the program's own
tracing helper: a no-op unless the zygote installed a tracer for a
traced run, in which case it records the benchmark's spans around each
call and the program's own spans nest inside them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import shutil
import time
from pathlib import Path

from repro.core.pipeline import LogDiver
from repro.core.sharding import analyze_streamed
from repro.experiments.accuracy import diagnosis_accuracy
from repro.faults.injector import DEFAULT_RATES
from repro.live.engine import LiveAnalyzer
from repro.logs.bundle import DATA_FILES, read_bundle, write_bundle
from repro.logs.columnar import (
    SIDECAR_DIR,
    convert_bundle,
    invalidate_sidecar,
    usable_sidecar,
)
from repro.logs.follow import TailFollower
from repro.machine.blueprints import scaled_blueprint
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.serve.queries import analyze_document, document_bytes
from repro.sim.feed import BundleFeed
from repro.sim.scenario import Scenario, paper_scenario
from repro.validation.goldens import canonical_json

#: The lateness bound of ``python -m repro follow`` and ``serve --live``.
LATENESS_S = 3600.0


def scenario(spec: dict, seed: int) -> Scenario:
    """The simulation a workload spec describes, seeded by the run."""
    rates = spec.get("rate_scale", 1.0)
    built = paper_scenario(
        days=spec["days"], workload_thinning=spec["thinning"], seed=seed,
        rates=None if rates == 1.0 else DEFAULT_RATES.scaled(rates))
    scale = spec.get("machine_scale")
    if scale is not None:
        built = dataclasses.replace(built, blueprint=scaled_blueprint(scale))
    return built


def _size(paths) -> int:
    return sum(path.stat().st_size for path in paths if path.is_file())


def bundle_digest(directory: Path) -> str:
    """SHA-256 over the bundle's files (names and bytes, sorted)."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def setup(spec: dict, seed: int, bundle: str, accuracy: bool = False,
          keep: str | None = None) -> dict:
    """Simulate the workload's scenario and write its text bundle.

    With ``keep``, the simulation result is also pickled to that path
    (untimed) for the tick replay, which then need not simulate again.
    """
    directory = Path(bundle)
    shutil.rmtree(directory, ignore_errors=True)
    start = time.perf_counter()
    with span("bench.sim.simulate"):
        result = scenario(spec, seed).run()
    simulated = time.perf_counter()
    with span("bench.sim.write_bundle"):
        write_bundle(result, directory, seed=seed)
    written = time.perf_counter()
    out = {
        "simulate_s": simulated - start,
        "write_s": written - simulated,
        "setup_s": written - start,
        "truth_runs": len(result.runs),
        "digest": bundle_digest(directory),
        "bundle_bytes": _size(directory.iterdir()),
        "text_bytes": _size(directory / name for name in DATA_FILES),
    }
    if keep is not None:
        with open(keep, "wb") as handle:
            pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
    if accuracy:
        # Ground-truth quality of the diagnosis (untimed, outside the
        # benchmark's spans): exact for a seed.
        analysis = LogDiver().analyze(read_bundle(directory, columnar=False))
        report = diagnosis_accuracy(result, analysis=analysis)
        out.update(system_recall=report.system_recall,
                   system_precision=report.system_precision,
                   cause_recall=report.cause_recall)
    return out


def text(bundle: str) -> dict:
    """First analysis of a fresh bundle: text parse + LogDiver."""
    start = time.perf_counter()
    with span("bench.logs.read_text"):
        parsed = read_bundle(bundle, columnar=False)
    read = time.perf_counter()
    with span("bench.core.analyze"):
        analysis = LogDiver().analyze(parsed)
    done = time.perf_counter()
    return {
        "first_analyze_s": done - start,
        "read_text_s": read - start,
        "summary": canonical_json(analysis.summary()),
        "records_alps": len(parsed.alps_records),
        "records_torque": len(parsed.torque_records),
        "records_error": len(parsed.error_records),
        "clusters": len(analysis.clusters),
        "runs": len(analysis.diagnosed),
    }


def convert(bundle: str) -> dict:
    """One-time columnar sidecar conversion of the text bundle."""
    directory = Path(bundle)
    invalidate_sidecar(directory)
    start = time.perf_counter()
    with span("bench.logs.columnar.convert"):
        convert_bundle(directory)
    done = time.perf_counter()
    return {"convert_s": done - start,
            "sidecar_bytes": _size((directory / SIDECAR_DIR).iterdir())}


def repeat(bundle: str) -> dict:
    """Re-analysis of a converted bundle: sidecar load + LogDiver."""
    registry = get_registry()
    loads = registry.counter_value("ingest_columnar_loads_total")
    start = time.perf_counter()
    with span("bench.logs.columnar.load"):
        parsed = read_bundle(bundle)
    loaded = time.perf_counter()
    with span("bench.core.analyze"):
        analysis = LogDiver().analyze(parsed)
    done = time.perf_counter()
    if registry.counter_value("ingest_columnar_loads_total") <= loads:
        raise RuntimeError("read_bundle did not load the columnar sidecar")
    return {"repeat_analyze_s": done - start, "load_s": loaded - start,
            "summary": canonical_json(analysis.summary())}


def stream(bundle: str, shards: int, jobs: int) -> dict:
    """Out-of-core sharded analysis through the campaign spawn pool."""
    if usable_sidecar(bundle) is None:
        raise RuntimeError("the streamed path needs the columnar sidecar")
    start = time.perf_counter()
    with span("bench.campaign.analyze_streamed"):
        analysis = analyze_streamed(bundle, shards=shards, jobs=jobs)
    done = time.perf_counter()
    execution = analysis.execution
    return {"stream_analyze_s": done - start,
            "summary": canonical_json(analysis.summary()),
            "peak_rss_kb": analysis.peak_rss_kb,
            "retries": 0 if execution is None else execution.retried}


def live(bundle: str) -> dict:
    """Live analysis of a static bundle, from empty to ``finalize()``."""
    start = time.perf_counter()
    with span("bench.live.catchup"):
        engine = LiveAnalyzer(bundle, lateness_s=LATENESS_S)
        follower = TailFollower(bundle)
        while batches := follower.poll():
            engine.ingest(batches)
            engine.advance()
        document = engine.finalize()
    done = time.perf_counter()
    return {"live_catchup_s": done - start,
            "summary": canonical_json(document["result"]["summary"])}


def ticks(simulation: str, seed: int, bundle: str, tick_s: float) -> dict:
    """Replay the simulation into a growing bundle, one tick at a time.

    ``simulation`` is the result ``setup`` pickled.  The feed advances
    ``tick_s`` of event time per step with no wall-clock pacing; only
    the follower poll, the ingest and the advance after each step are
    timed.
    """
    directory = Path(bundle)
    shutil.rmtree(directory, ignore_errors=True)
    with open(simulation, "rb") as handle:
        result = pickle.load(handle)
    feed = BundleFeed(result, directory, seed=seed)
    feed.write_static()
    registry = get_registry()
    engine = LiveAnalyzer(directory, lateness_s=LATENESS_S)
    follower = TailFollower(directory)
    samples: dict[str, list[float]] = {
        key: [] for key in ("tick_ms", "poll_ms", "ingest_ms", "advance_ms")}
    max_buffered = 0
    event_t = feed.first_arrival()
    while not feed.done():
        event_t += tick_s
        feed.step(event_t)
        with span("bench.live.tick"):
            start = time.perf_counter()
            with span("bench.follow.poll"):
                batches = follower.poll()
            polled = time.perf_counter()
            with span("bench.live.ingest"):
                engine.ingest(batches)
            ingested = time.perf_counter()
            with span("bench.live.advance"):
                engine.advance()
            done = time.perf_counter()
        for key, seconds in (("poll_ms", polled - start),
                             ("ingest_ms", ingested - polled),
                             ("advance_ms", done - ingested),
                             ("tick_ms", done - start)):
            samples[key].append(seconds * 1e3)
        max_buffered = max(max_buffered, int(
            registry.gauge_value("live_buffered_records") or 0))
    engine.ingest(follower.poll())
    document = engine.finalize()
    return {**samples, "records_in": engine.records_in,
            "late_records": engine.late_total,
            "forced_releases": engine.forced_releases,
            "max_buffered": max_buffered,
            "summary": canonical_json(document["result"]["summary"])}


def window_document(bundle: str, name: str, window: list) -> dict:
    """The bytes the serial query path gives for one windowed analyze."""
    document = analyze_document(bundle, name=name, window=tuple(window))
    return {"body": document_bytes(document).decode("utf-8")}


OPS = {"setup": setup, "text": text, "convert": convert, "repeat": repeat,
       "stream": stream, "live": live, "ticks": ticks,
       "window_document": window_document}
