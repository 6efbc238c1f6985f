"""The serve layer's phases: one closed-loop client against ``repro serve``.

A dashboard waits for each reply before it asks again, so the loop is
closed: one client connection, the next request sent only after the
previous reply was read.  Two phases, reported apart because their
latencies differ by an order of magnitude:

* hits -- the full-window ``/analyze``, ``/validate`` and ``/healthz``
  over and over, all answered from the daemon's result cache, so they
  measure the HTTP layer alone;
* misses -- seeded, never-repeating one-day sub-windows, each a real
  re-analysis, so they measure ``core`` through ``serve``.

The dashboard workload runs both phases for ``--seconds``; a batch
workload ends with a short pass of each (``serve_pass``), so every
workload measures the serve layer.  The traced run starts the daemon
with ``--log-json``; the ``request`` events it writes carry the trace
id the client sent, which splits each request's client-side latency
into server time and wire time.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import signal
import subprocess
import sys
import time
from collections.abc import Callable
from http.client import HTTPConnection, HTTPException
from pathlib import Path

import common

NAME = "dash"
FULL = {"bundle": NAME}
#: Share of ``--seconds`` spent on the hit phase; misses take the rest.
HIT_SHARE = 0.3
#: Samples each phase takes at least: enough for a p95 of hits and a
#: p50 of misses with ten samples beyond each.
MIN_HITS, MIN_MISSES = 200, 20
#: Samples the short serve pass of a batch workload takes.
PASS_HITS, PASS_MISSES = 30, 20
START_TIMEOUT_S = 60.0
#: Set-ups per run; setup_s is their median.  Each starts a daemon.
SETUPS = 3


def canonical(text: str) -> str:
    """Re-serialize canonical JSON the way the program wrote it."""
    return json.dumps(json.loads(text), sort_keys=True, indent=1)


class Daemon:
    """``python -m repro serve`` over one bundle, on an ephemeral port."""

    def __init__(self, bundle: Path, env: dict, work: Path,
                 log_json: Path | None):
        self.output = work / "daemon.out"
        command = [sys.executable, "-m", "repro", "serve",
                   f"{NAME}={bundle}", "--host", "127.0.0.1", "--port", "0"]
        if log_json is not None:
            command += ["--log-json", str(log_json)]
        with open(self.output, "w") as sink:
            self.proc = subprocess.Popen(command, cwd=common.ROOT, env=env,
                                         stdout=sink,
                                         stderr=subprocess.STDOUT)
        try:
            self.port = self._wait_for_port()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = re.search(r"http://127\.0\.0\.1:(\d+)",
                              self.output.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"daemon did not start: "
                           f"{self.output.read_text()[-2000:]}")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            probe = Client(self.port)
            healthy = probe.request("GET", "/healthz")[0] == 200
            probe.close()
            if healthy:
                return
            time.sleep(0.01)
        raise RuntimeError("daemon never answered /healthz with 200")

    def vm_hwm_kb(self) -> int:
        """Peak resident set of the daemon process so far."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Client:
    """One persistent HTTP/1.1 connection, used one request at a time."""

    def __init__(self, port: int):
        self.port = port
        self.conn = HTTPConnection("127.0.0.1", port, timeout=120)

    def request(self, method: str, path: str, body: dict | None = None,
                trace_id: str | None = None) -> tuple[int, bytes, float]:
        headers = {}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if trace_id is not None:
            headers["X-Repro-Trace-Id"] = trace_id
        start = time.perf_counter()
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, HTTPException):
            self.conn.close()
            self.conn = HTTPConnection("127.0.0.1", self.port, timeout=120)
            return 0, b"", time.perf_counter() - start
        return response.status, data, time.perf_counter() - start

    def close(self) -> None:
        self.conn.close()


def scrape(client: Client) -> dict[str, float]:
    """Counter samples from ``/metrics`` (Prometheus text), by series."""
    status, body, _ = client.request("GET", "/metrics")
    if status != 200:
        return {}
    samples = {}
    for line in body.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            samples[series] = float(value)
    return samples


def server_times(log_json: Path) -> dict[str, tuple[float, float]]:
    """trace id -> (end timestamp, handling seconds) of each request."""
    times = {}
    with open(log_json) as handle:
        for line in handle:
            try:
                event = json.loads(line)
            except ValueError:
                break
            if event.get("event") == "request":
                times[event["trace_id"]] = (event["ts"], event["duration_s"])
    return times




@dataclasses.dataclass
class Served:
    """What one serve phase saw: replies, latencies, daemon figures."""

    log_json: Path | None
    setups: list[float] = dataclasses.field(default_factory=list)
    sims: list[dict] = dataclasses.field(default_factory=list)
    warm: dict[str, bytes] = dataclasses.field(default_factory=dict)
    hits: list[tuple[str, float]] = dataclasses.field(default_factory=list)
    misses: list[tuple[str, float]] = dataclasses.field(default_factory=list)
    refused: int = 0
    sampled: tuple | None = None
    peak_kb: int | None = None
    counters: dict[str, float] = dataclasses.field(default_factory=dict)


def start(rec: common.Recorder, served: Served, bundle: Path, env: dict,
          work: Path, log_json: Path | None) -> tuple[Daemon, Client] | None:
    """Start the daemon over a converted bundle and warm its cache."""
    if log_json is not None:
        log_json.unlink(missing_ok=True)
    rec.attempted += 1
    try:
        daemon = Daemon(bundle, env, work, log_json)
    except RuntimeError as bad:
        rec.fail(f"serve: {bad}")
        return None
    client = Client(daemon.port)
    for path in ("/analyze", "/validate"):
        rec.attempted += 1
        status, body, _ = client.request("POST", path, FULL)
        if status != 200:
            rec.fail(f"warm {path}: HTTP {status}")
        served.warm[path] = body
    return daemon, client


def stop(started: tuple[Daemon, Client] | None) -> None:
    if started is not None:
        daemon, client = started
        client.close()
        daemon.stop()


def phases(rec: common.Recorder, served: Served, spec: dict, seed: int,
           started: tuple[Daemon, Client], hit_s: float, miss_s: float,
           min_hits: int, min_misses: int) -> None:
    """The hit phase, then the miss phase, then the daemon's figures."""
    daemon, client = started
    cycle = [("POST", "/analyze", FULL), ("POST", "/validate", FULL),
             ("GET", "/healthz", None)]
    hits, misses = served.hits, served.misses
    phase_start = time.perf_counter()
    while (time.perf_counter() - phase_start < hit_s
           or len(hits) < min_hits):
        method, path, body = cycle[len(hits) % len(cycle)]
        trace_id = f"hit-{len(hits):06d}"
        rec.attempted += 1
        status, data, elapsed = client.request(method, path, body, trace_id)
        hits.append((trace_id, elapsed))
        if status != 200:
            served.refused += 1
            rec.fail(f"{trace_id} {path}: HTTP {status}")
        elif path in served.warm and data != served.warm[path]:
            rec.fail(f"{trace_id} {path}: cached reply changed")

    rng = random.Random(f"dashboard-misses/{seed}")
    span_s = spec["days"] * 86400.0
    length = spec["miss_window_s"]
    seen: set[int] = set()
    phase_start = time.perf_counter()
    while (time.perf_counter() - phase_start < miss_s
           or len(misses) < min_misses):
        lo = rng.randrange(0, int(span_s - length))
        if lo in seen:
            continue
        seen.add(lo)
        window = [float(lo), float(lo) + length]
        trace_id = f"miss-{len(misses):06d}"
        rec.attempted += 1
        status, data, elapsed = client.request(
            "POST", "/analyze", {"bundle": NAME, "window": window}, trace_id)
        misses.append((trace_id, elapsed))
        if status != 200:
            served.refused += 1
            rec.fail(f"{trace_id}: HTTP {status}")
        elif served.sampled is None:
            served.sampled = (trace_id, window, data)
    served.peak_kb = daemon.vm_hwm_kb()
    served.counters = scrape(client)


def set_up(rec: common.Recorder, served: Served, spec: dict, seed: int,
           bundle: Path, env: dict, work: Path, log_json: Path | None,
           **setup_kwargs) -> tuple[Daemon, Client] | None:
    """One dashboard set-up; returns the daemon it left running.

    It simulates and writes the bundle, converts it, starts the daemon
    until ``/healthz`` is 200 and warms its result cache.  Its time is
    the simulation and write as the set-up op timed them (so pickling
    or scoring asked for by ``setup_kwargs`` stays out), plus the rest
    as the client waited for it.
    """
    sim = rec.call("setup", spec=spec, seed=seed, bundle=str(bundle),
                   **setup_kwargs)
    begin = time.perf_counter()
    converted = rec.call("convert", bundle=str(bundle))
    if sim is None or converted is None:
        return None
    started = start(rec, served, bundle, env, work, log_json)
    if started is not None:
        served.setups.append(sim["setup_s"] + time.perf_counter() - begin)
        served.sims.append(sim)
    return started


def measure(rec: common.Recorder, spec: dict, seed: int, seconds: float,
            work: Path, env: dict, bundle: Path,
            simulation: Path) -> Served:
    """The dashboard workload: a set-up, then the hit and miss phases.

    The set-up's daemon serves both phases.  It also pickles the
    simulation to ``simulation`` and, traced, scores the diagnosis
    against simulator truth, for the batch pass that follows; the other
    set-ups run during that pass (``spare_setups``).
    """
    served = Served(work / "events.jsonl" if rec.trace else None)
    started = set_up(rec, served, spec, seed, bundle, env, work,
                     served.log_json, keep=str(simulation),
                     accuracy=rec.trace)
    try:
        if started is not None:
            phases(rec, served, spec, seed, started, seconds * HIT_SHARE,
                   seconds * (1 - HIT_SHARE), MIN_HITS, MIN_MISSES)
    finally:
        stop(started)
    return served


def spare_setups(rec: common.Recorder, served: Served, spec: dict,
                 seed: int, work: Path, env: dict) -> Callable[[], None]:
    """The dashboard's other set-ups, one per call, into a spare
    directory: called between the batch pass's path calls, so the
    median set-up time spans more of the host's drift than one block."""
    left = SETUPS - 1

    def between() -> None:
        nonlocal left
        if left > 0:
            left -= 1
            stop(set_up(rec, served, spec, seed, work / "setup", env, work,
                        None))

    return between


def serve_pass(rec: common.Recorder, spec: dict, seed: int, bundle: Path,
               work: Path, env: dict) -> Served:
    """One short serve phase over a batch workload's converted bundle.

    It takes the fewest hits and misses a p50 needs, so every workload
    measures the serve layer; the dashboard workload is where it is
    measured at length.
    """
    served = Served(work / "events.jsonl" if rec.trace else None)
    started = start(rec, served, bundle, env, work, served.log_json)
    try:
        if started is not None:
            phases(rec, served, spec, seed, started, 0.0, 0.0, PASS_HITS,
                   PASS_MISSES)
    finally:
        stop(started)
    return served


def check(rec: common.Recorder, served: Served, reference: str | None,
          bundle: Path) -> None:
    """The served full-window summary against the text path, and a
    sampled miss byte for byte against the serial query path."""
    document = json.loads(served.warm.get("/analyze") or "{}")
    summary = document.get("result", {}).get("summary")
    rec.check("served /analyze", summary and canonical(json.dumps(summary)),
              reference and canonical(reference))
    if served.sampled is None:
        rec.fail("no miss was served")
        return
    trace_id, window, data = served.sampled
    serial = rec.call("window_document", bundle=str(bundle), name=NAME,
                      window=window)
    if serial is None or serial["body"].encode("utf-8") != data:
        rec.fail(f"{trace_id}: served bytes differ from the serial query "
                 f"path")


def metrics(rec: common.Recorder,
            served: Served) -> tuple[common.Metrics, common.Metrics]:
    """End-to-end and (traced) per-layer metrics of a serve phase."""
    e2e = common.Metrics()
    hit_ms = [elapsed * 1e3 for _, elapsed in served.hits]
    miss_ms = [elapsed * 1e3 for _, elapsed in served.misses]
    if served.setups:
        e2e.put("setup_s", common.median(served.setups), len(served.setups))
    e2e.put("serve_hit_p50_ms", common.percentile(hit_ms, 0.50), len(hit_ms))
    e2e.put("serve_hit_p95_ms", common.percentile(hit_ms, 0.95), len(hit_ms))
    e2e.put("serve_miss_p50_ms", common.percentile(miss_ms, 0.50),
            len(miss_ms))
    if served.peak_kb is not None:
        e2e.put("serve_peak_rss_mb", served.peak_kb / 1024)

    layer = common.Metrics()
    if not rec.trace:
        return e2e, layer
    # Server handling time per request, from the daemon's event log;
    # wire time is the rest of what the client waited.
    server = server_times(served.log_json) if served.log_json.exists() \
        else {}
    wire_hit_ms = []
    for phase, samples in (("hit", served.hits), ("miss", served.misses)):
        handled_ms = []
        for ident, elapsed in samples:
            if ident not in server:
                continue
            end, handled = server[ident]
            handled_ms.append(handled * 1e3)
            if phase == "hit":
                wire_hit_ms.append((elapsed - handled) * 1e3)
            rec.spans += [
                {"op": ident, "id": f"{ident}/0", "parent": None,
                 "name": "bench.serve.request", "start": end - elapsed,
                 "end": end, "self_s": max(0.0, elapsed - handled)},
                {"op": ident, "id": f"{ident}/1", "parent": f"{ident}/0",
                 "name": "serve.handle", "start": end - handled, "end": end,
                 "self_s": handled}]
        layer.put(f"serve.server_{phase}_ms_p50",
                  common.percentile(handled_ms, 0.5), len(handled_ms))
    layer.put("serve.wire_hit_ms", common.median(wire_hit_ms),
              len(wire_hit_ms))
    counters = served.counters
    layer.put("serve.result_cache_hits",
              counters.get('serve_result_cache_total{result="hit"}', 0.0))
    layer.put("serve.result_cache_misses",
              counters.get('serve_result_cache_total{result="miss"}', 0.0))
    layer.put("serve.bundle_loads",
              counters.get("serve_bundle_loads_total", 0.0))
    layer.put("serve.failed", served.refused)
    return e2e, layer
