"""The resident bundle daemon: warm mmap'd bundles behind an HTTP API.

Architecture: a transport-independent :class:`ServeApp` owns all state
(bundle registry, warm-handle LRU, response cache, drain flag) and maps
``(method, path, body)`` to ``(status, content_type, body_bytes)``; a
thin :class:`ServeDaemon` binds it to a stdlib ``ThreadingHTTPServer``.
Tests drive either layer -- negative paths against the app directly,
concurrency/parity against a live socket.

Endpoints::

    GET  /healthz        liveness; 503 while draining for shutdown
    GET  /bundles        registered bundles + warm-handle state
    POST /analyze        {"bundle": name, "window": [lo,hi]?, "lenient"?,
                         "stream"?, "shards"?, "jobs"?} -> analyze document
    POST /validate       same body -> oracle-verdict document
    GET  /metrics        Prometheus exposition of the process registry
    GET  /live           ?bundle=NAME -- current incremental live summary
                         + watermark (requires live mode; the follower
                         starts lazily on first request per bundle)
    GET  /debug/status   uptime, warm LRU contents, in-flight count,
                         rolling latency quantiles
    GET  /debug/profile  ?seconds=N -- sample the live process and
                         return collapsed stacks + hot-function table

Correlation: every response carries an ``X-Repro-Trace-Id`` header
(minted per request, or echoed from the same request header if the
client sent one); with ``--log-json`` active, request, bundle-load, and
eviction events all carry that id, so one grep reconstructs a slow
request end-to-end.

Concurrency model: handler threads share one :class:`BundleCache`
(bounded LRU of warm ``LogBundle`` handles, single-flight loading so a
cold or stale bundle is parsed exactly once no matter how many requests
race) and one response-bytes LRU keyed by the normalized query.  Warm
handles are never mutated -- windowed queries filter into fresh
sub-bundles -- so concurrent readers need no lock beyond the caches'
own.  Eviction only drops the cache's reference; an in-flight query
holds its own, so answers stay correct while the LRU churns.

Metric families (on top of everything the pipeline already counts)::

    serve_requests_total{endpoint,status}   every request, by outcome
    serve_latency_seconds{endpoint}         request-handling histogram
    serve_bundle_loads_total                cold loads into the LRU
    serve_bundle_evictions_total            LRU evictions
    serve_result_cache_total{result}        response-cache hits/misses
"""

from __future__ import annotations

import io
import json
import threading
import time
from collections import OrderedDict, deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable
from urllib.parse import parse_qs

from repro.errors import ReproError
from repro.live.engine import LiveAnalyzer
from repro.logs.bundle import LogBundle, read_bundle
from repro.logs.follow import TailFollower
from repro.obs.events import emit, event_context, new_trace_id
from repro.obs.metrics import get_registry
from repro.obs.profiler import SamplingProfiler
from repro.serve import queries
from repro.serve.queries import QueryError

__all__ = ["BundleCache", "ServeApp", "ServeDaemon", "parse_bundle_specs"]

#: Maximum accepted request-body size; an /analyze body is a few dozen
#: bytes, so anything huge is a mistake or abuse.
_MAX_BODY_BYTES = 64 * 1024
_BODY_TOO_LARGE = f"request body exceeds {_MAX_BODY_BYTES} bytes"

#: How many distinct query responses the byte cache keeps.
_RESULT_CACHE_SIZE = 256

#: Rolling latency window behind /debug/status quantiles.
_LATENCY_RING_SIZE = 512

#: /debug/profile sample-window clamp (seconds).
_PROFILE_MIN_S = 0.05
_PROFILE_MAX_S = 30.0
_PROFILE_DEFAULT_S = 5.0


class BundleCache:
    """Bounded LRU of warm bundle handles with single-flight loading.

    Keys are ``(name, lenient)``: a strict and a lenient load of the
    same bundle are different objects (strict refuses quarantined
    sidecars).  ``get`` serializes concurrent loads of the same key
    through a per-key gate -- under load a stale sidecar is re-converted
    by exactly one thread while the rest wait for the finished handle --
    and never holds the main lock across a load, so hits on warm keys
    proceed while a cold one parses.
    """

    def __init__(self, capacity: int = 4):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._loaded: OrderedDict[tuple[str, bool], LogBundle] = OrderedDict()
        self._gates: dict[tuple[str, bool], threading.Lock] = {}

    def get(self, key: tuple[str, bool],
            loader: Callable[[], LogBundle]) -> LogBundle:
        registry = get_registry()
        with self._lock:
            bundle = self._loaded.get(key)
            if bundle is not None:
                self._loaded.move_to_end(key)
                registry.counter("serve_bundle_cache_total", result="hit")
                return bundle
            gate = self._gates.get(key)
            if gate is None:
                gate = self._gates[key] = threading.Lock()
        with gate:
            with self._lock:
                bundle = self._loaded.get(key)
                if bundle is not None:
                    self._loaded.move_to_end(key)
                    registry.counter("serve_bundle_cache_total",
                                     result="hit")
                    return bundle
            registry.counter("serve_bundle_cache_total", result="miss")
            started = time.perf_counter()
            bundle = loader()
            emit("bundle_load", bundle=key[0], lenient=key[1],
                 duration_s=round(time.perf_counter() - started, 6))
            evicted: list[tuple[str, bool]] = []
            with self._lock:
                self._loaded[key] = bundle
                self._loaded.move_to_end(key)
                registry.counter("serve_bundle_loads_total")
                while len(self._loaded) > self.capacity:
                    old_key, _ = self._loaded.popitem(last=False)
                    evicted.append(old_key)
                    registry.counter("serve_bundle_evictions_total")
                self._gates.pop(key, None)
            for old_key in evicted:
                emit("bundle_evict", bundle=old_key[0], lenient=old_key[1])
            return bundle

    def loaded_keys(self) -> list[tuple[str, bool]]:
        with self._lock:
            return list(self._loaded)

    def __len__(self) -> int:
        with self._lock:
            return len(self._loaded)


class _ResultCache:
    """Bounded LRU of finished response bytes, keyed by normalized query.

    Identical queries -- the common case for a dashboard polling the
    same window -- are answered from here without touching the pipeline,
    which is what makes the warm p50 an order of magnitude under the
    cold CLI.  Entries are immutable bytes, so serving one concurrently
    is trivially safe.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, bytes] = OrderedDict()

    def get(self, key: str) -> bytes | None:
        registry = get_registry()
        with self._lock:
            body = self._entries.get(key)
            if body is not None:
                self._entries.move_to_end(key)
            registry.counter("serve_result_cache_total",
                             result="hit" if body is not None else "miss")
            return body

    def put(self, key: str, body: bytes) -> None:
        if self.capacity < 1:
            return
        with self._lock:
            self._entries[key] = body
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)


def parse_bundle_specs(specs: list[str]) -> dict[str, Path]:
    """CLI bundle arguments (``NAME=PATH`` or ``PATH``) -> registry.

    A bare path registers under its basename -- the same display name
    the ``query`` CLI derives, which is what keeps served and CLI
    documents byte-identical without any coordination.
    """
    bundles: dict[str, Path] = {}
    for spec in specs:
        name, sep, path_text = spec.partition("=")
        if not sep:
            name, path_text = queries.bundle_display_name(spec), spec
        if not name or not path_text:
            raise ValueError(f"bad bundle spec {spec!r}: "
                             f"expected NAME=PATH or PATH")
        if name in bundles:
            raise ValueError(f"duplicate bundle name {name!r}")
        bundles[name] = Path(path_text)
    return bundles


class _LiveRunner:
    """One background tail-follow loop per live-served bundle.

    The engine is single-threaded by design; the runner owns it
    entirely and publishes an immutable snapshot document under a lock
    after every tick, so any number of ``GET /live`` handler threads
    read without touching engine state.
    """

    def __init__(self, name: str, directory: Path, *,
                 interval_s: float, lateness_s: float):
        self.name = name
        self.directory = directory
        self.interval_s = interval_s
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._snapshot: dict[str, Any] | None = None
        self._error: str | None = None
        self._engine = LiveAnalyzer(directory, lateness_s=lateness_s,
                                    strict=False)
        self._follower = TailFollower(directory)
        self._thread = threading.Thread(target=self._run,
                                        name=f"repro-live-{name}",
                                        daemon=True)
        self._thread.start()

    def _run(self) -> None:
        with event_context("live", trace_id=new_trace_id(),
                           bundle=self.name):
            while not self._stop.is_set():
                try:
                    batches = self._follower.poll()
                    if batches:
                        self._engine.ingest(batches)
                    self._engine.advance()
                    snapshot = self._engine.document()
                    snapshot["bundle"] = self.name
                except Exception as bad:  # surface, never kill the loop
                    emit("live_runner_error", level="error",
                         bundle=self.name, error=str(bad))
                    with self._lock:
                        self._error = str(bad)
                else:
                    with self._lock:
                        self._snapshot = snapshot
                        self._error = None
                self._stop.wait(self.interval_s)

    def snapshot(self) -> tuple[dict[str, Any] | None, str | None]:
        with self._lock:
            return self._snapshot, self._error

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


class ServeApp:
    """All daemon state and request handling, transport-independent."""

    def __init__(self, bundles: dict[str, Path | str], *,
                 max_loaded: int = 4,
                 result_cache_size: int = _RESULT_CACHE_SIZE,
                 jobs: int | None = None,
                 live: bool = False,
                 live_interval_s: float = 0.5,
                 live_lateness_s: float = 3600.0):
        if not bundles:
            raise ValueError("a daemon with no bundles serves nothing")
        self.bundles = {name: Path(path) for name, path in bundles.items()}
        for name, path in self.bundles.items():
            if not (path / "manifest.json").exists():
                raise ValueError(f"bundle {name!r}: no manifest.json "
                                 f"in {path}")
        self.cache = BundleCache(max_loaded)
        self.results = _ResultCache(result_cache_size)
        #: Default worker count for streamed queries (request may lower
        #: it, never raise it past this cap).
        self.jobs = jobs
        self._draining = threading.Event()
        self.started_at = time.time()
        self._stats_lock = threading.Lock()
        self._inflight = 0
        self._latencies: deque[float] = deque(maxlen=_LATENCY_RING_SIZE)
        self.live = live
        self.live_interval_s = live_interval_s
        self.live_lateness_s = live_lateness_s
        self._live_lock = threading.Lock()
        self._live_runners: dict[str, _LiveRunner] = {}

    # -- lifecycle -----------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Flip /healthz to 503 so load balancers stop routing here;
        in-flight and already-queued requests still complete.  Live
        follower loops are stopped -- their last snapshot stays
        servable while the drain completes."""
        self._draining.set()
        with self._live_lock:
            runners = list(self._live_runners.values())
        for runner in runners:
            runner.stop()

    # -- request handling ----------------------------------------------------

    def handle(self, method: str, path: str, body: bytes, *,
               query: str = "", trace_id: str | None = None
               ) -> tuple[int, str, bytes]:
        """(status, content type, response body) for one request.

        ``trace_id`` (minted per request by the HTTP shim) is bound as
        the event context for everything this request does -- the query,
        any cold bundle load, any eviction it triggers -- so the event
        log joins against the ``X-Repro-Trace-Id`` the client saw.
        """
        route = (method.upper(), path.rstrip("/") or "/")
        start = time.perf_counter()
        with self._stats_lock:
            self._inflight += 1
        try:
            with event_context("request", trace_id=trace_id,
                               method=route[0], path=route[1]):
                status, content_type, payload = self._dispatch(route, body,
                                                               query)
                emit("request", status=status, bytes=len(payload),
                     duration_s=round(time.perf_counter() - start, 6))
                return (status, content_type, payload)
        finally:
            with self._stats_lock:
                self._inflight -= 1
                self._latencies.append(time.perf_counter() - start)

    def _dispatch(self, route: tuple[str, str], body: bytes,
                  query: str) -> tuple[int, str, bytes]:
        if route == ("GET", "/healthz"):
            return self._healthz()
        if route == ("GET", "/bundles"):
            return self._bundles()
        if route == ("GET", "/metrics"):
            return (200, "text/plain; version=0.0.4; charset=utf-8",
                    get_registry().render_prometheus().encode("utf-8"))
        if route == ("GET", "/live"):
            return self._live(query)
        if route == ("GET", "/debug/status"):
            return self._debug_status()
        if route == ("GET", "/debug/profile"):
            return self._debug_profile(query)
        if route == ("POST", "/analyze"):
            return self._query(queries.analyze_document, body)
        if route == ("POST", "/validate"):
            return self._query(queries.validate_document, body)
        return self._error(f"no such endpoint: {route[0]} {route[1]}",
                           status=404)

    def _healthz(self) -> tuple[int, str, bytes]:
        if self.draining:
            return self._json(503, {"status": "draining"})
        return self._json(200, {"status": "ok",
                                "bundles": len(self.bundles),
                                "loaded": len(self.cache)})

    def _bundles(self) -> tuple[int, str, bytes]:
        loaded = set(self.cache.loaded_keys())
        rows = [{
            "name": name,
            "path": str(path),
            "loaded_strict": (name, False) in loaded,
            "loaded_lenient": (name, True) in loaded,
        } for name, path in sorted(self.bundles.items())]
        return self._json(200, {"bundles": rows,
                                "max_loaded": self.cache.capacity})

    def _live(self, query: str) -> tuple[int, str, bytes]:
        """The current incremental summary + watermark for one bundle.

        The follower/engine loop starts lazily on the first request for
        each bundle (single-flight under the live lock) and keeps
        running until drain; until its first tick completes, the
        endpoint answers 202 so pollers know to retry.
        """
        if not self.live:
            return self._error("live mode not enabled "
                               "(start the daemon with --live)",
                               status=404)
        names = parse_qs(query).get("bundle", [])
        if names:
            name = names[-1]
        elif len(self.bundles) == 1:
            name = next(iter(self.bundles))
        else:
            return self._error(
                f"?bundle=NAME required (serving {sorted(self.bundles)})",
                status=400)
        directory = self.bundles.get(name)
        if directory is None:
            return self._error(f"unknown bundle {name!r}; serving "
                               f"{sorted(self.bundles)}", status=404)
        with self._live_lock:
            runner = self._live_runners.get(name)
            if runner is None:
                runner = _LiveRunner(
                    name, directory, interval_s=self.live_interval_s,
                    lateness_s=self.live_lateness_s)
                self._live_runners[name] = runner
        snapshot, error = runner.snapshot()
        if snapshot is None:
            if error is not None:
                return self._error(f"live follower failing: {error}",
                                   status=503)
            return self._json(202, {"status": "starting", "bundle": name})
        return self._json(200, snapshot)

    def _debug_status(self) -> tuple[int, str, bytes]:
        """Operator snapshot: uptime, warm LRU, in-flight, latency tail.

        ``in_flight`` counts this request too -- a quiet daemon answers 1.
        Quantiles are nearest-rank over the rolling latency ring, so the
        p95 reflects recent traffic, not the whole process lifetime.
        """
        with self._stats_lock:
            inflight = self._inflight
            window = sorted(self._latencies)
        def quantile(q: float) -> float | None:
            if not window:
                return None
            return round(window[int(q * (len(window) - 1))], 6)
        loaded = [{"bundle": name, "lenient": lenient}
                  for name, lenient in sorted(self.cache.loaded_keys())]
        return self._json(200, {
            "status": "draining" if self.draining else "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "bundles": sorted(self.bundles),
            "loaded": loaded,
            "max_loaded": self.cache.capacity,
            "in_flight": inflight,
            "latency": {"window": len(window),
                        "p50_s": quantile(0.50),
                        "p95_s": quantile(0.95)},
        })

    def _debug_profile(self, query: str) -> tuple[int, str, bytes]:
        """Sample the live process for ``?seconds=N`` and return the
        hot-function table plus collapsed stacks as text.

        The sleep happens on this handler's thread; the threading server
        keeps answering other requests, which is exactly what the sampler
        then observes.
        """
        raw = parse_qs(query).get("seconds", [str(_PROFILE_DEFAULT_S)])[-1]
        try:
            seconds = float(raw)
        except ValueError:
            return self._error(f"seconds must be a number, got {raw!r}",
                               status=400)
        seconds = min(max(seconds, _PROFILE_MIN_S), _PROFILE_MAX_S)
        profiler = SamplingProfiler().start()
        time.sleep(seconds)
        profiler.stop()
        text = profiler.render_table() + "\n\n" + profiler.collapsed()
        return (200, "text/plain; charset=utf-8", text.encode("utf-8"))

    def _query(self, build_document, body: bytes) -> tuple[int, str, bytes]:
        try:
            params = self._parse_body(body)
            name, directory = self._resolve_bundle(params)
            window = params.get("window")
            if window is not None:
                window = queries.parse_window_spec(window)
            lenient = self._flag(params, "lenient")
            stream = self._flag(params, "stream")
            shards = params.get("shards", 8)
            jobs = self._clamped_jobs(params.get("jobs"))
            kind = ("validate" if build_document
                    is queries.validate_document else "analyze")
            cache_key = json.dumps(
                queries._normalize_query(kind, name, window=window,
                                         lenient=lenient, stream=stream,
                                         shards=shards),
                sort_keys=True, separators=(",", ":"))
            cached = self.results.get(cache_key)
            emit("query", kind=kind, bundle=name, stream=stream,
                 cached=cached is not None)
            if cached is not None:
                return (200, "application/json", cached)
            bundle = None
            if not stream:
                bundle = self.cache.get(
                    (name, lenient),
                    lambda: read_bundle(directory, strict=not lenient))
            document = build_document(
                directory, name=name, window=window, lenient=lenient,
                stream=stream, shards=shards, jobs=jobs, bundle=bundle)
            response = queries.document_bytes(document)
            self.results.put(cache_key, response)
            return (200, "application/json", response)
        except QueryError as bad:
            return self._error(str(bad), status=bad.status)
        except ReproError as bad:
            # A strict load of a corrupted bundle, a torn manifest: the
            # request was well-formed but this bundle cannot answer it.
            return self._error(str(bad), status=422)

    # -- helpers -------------------------------------------------------------

    def _parse_body(self, body: bytes) -> dict[str, Any]:
        if len(body) > _MAX_BODY_BYTES:
            raise QueryError(_BODY_TOO_LARGE, status=400)
        try:
            params = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as bad:
            raise QueryError(f"malformed JSON body: {bad}",
                             status=400) from None
        if not isinstance(params, dict):
            raise QueryError(f"request body must be a JSON object, got "
                             f"{type(params).__name__}", status=400)
        return params

    def _resolve_bundle(self, params: dict[str, Any]) -> tuple[str, Path]:
        name = params.get("bundle")
        if not isinstance(name, str) or not name:
            raise QueryError('request body needs "bundle": "<name>"',
                             status=400)
        directory = self.bundles.get(name)
        if directory is None:
            raise QueryError(
                f"unknown bundle {name!r}; serving "
                f"{sorted(self.bundles)}", status=404)
        return name, directory

    @staticmethod
    def _flag(params: dict[str, Any], key: str) -> bool:
        value = params.get(key, False)
        if not isinstance(value, bool):
            raise QueryError(f"{key} must be a boolean, got {value!r}")
        return value

    def _clamped_jobs(self, requested: Any) -> int | None:
        if requested is None:
            return self.jobs
        if not isinstance(requested, int) or isinstance(requested, bool) \
                or requested < 1:
            raise QueryError(f"jobs must be a positive integer, "
                             f"got {requested!r}")
        if self.jobs is None:
            return requested
        return min(requested, self.jobs)

    @staticmethod
    def _json(status: int, payload: dict[str, Any]) -> tuple[int, str, bytes]:
        body = (json.dumps(payload, sort_keys=True,
                           separators=(",", ":")) + "\n").encode("utf-8")
        return (status, "application/json", body)

    def _error(self, message: str, *, status: int) -> tuple[int, str, bytes]:
        return (status, "application/json",
                queries.document_bytes(queries.error_document(message,
                                                              status)))


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP shim: framing, metrics, and nothing else."""

    protocol_version = "HTTP/1.1"
    # Responses are written whole (see _respond), so Nagle only delays
    # them: it holds a send() back until the client ACKs the last one,
    # and a keep-alive client delays that ACK by 40 ms or more.
    disable_nagle_algorithm = True
    app: ServeApp  # set on the subclass built by ServeDaemon

    #: Endpoint label for metrics: known paths verbatim, the rest pooled
    #: so a scanner cannot mint unbounded label values.
    _ENDPOINTS = frozenset({"/healthz", "/bundles", "/metrics",
                            "/analyze", "/validate", "/live",
                            "/debug/status", "/debug/profile"})

    def handle(self) -> None:
        try:
            super().handle()
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client hung up mid-exchange: nothing to answer

    def _respond(self, method: str) -> None:
        start = time.perf_counter()
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        endpoint = path if path in self._ENDPOINTS else "other"
        # Echo the client's trace id if it sent one (lets a caller tie
        # our events into its own trace), else mint a fresh one.
        trace_id = (self.headers.get("X-Repro-Trace-Id") or "").strip() \
            or new_trace_id()
        body_unread = False
        try:
            body = self._read_body()
            status, content_type, payload = self.app.handle(
                method, path, body, query=query, trace_id=trace_id)
        except QueryError as bad:  # refused by _read_body, body unread
            body_unread = True
            status, content_type, payload = self.app._error(
                str(bad), status=bad.status)
        except Exception as bad:  # never kill the handler thread
            status, content_type, payload = self.app._error(
                f"internal error: {bad}", status=500)
        registry = get_registry()
        registry.counter("serve_requests_total", endpoint=endpoint,
                         status=str(status))
        registry.observe("serve_latency_seconds",
                         time.perf_counter() - start, endpoint=endpoint)
        # Stage head and body and send them as one write: end_headers()
        # alone would put the head on the wire as its own segment.
        wire, self.wfile = self.wfile, io.BytesIO()
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.send_header("X-Repro-Trace-Id", trace_id)
            if body_unread:
                # The next request's framing would start inside the
                # unread body; send_header also sets close_connection.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(payload)
            response = self.wfile.getvalue()
        finally:
            self.wfile = wire
        wire.write(response)

    def _read_body(self) -> bytes:
        """The request body, read only once ``Content-Length`` is a
        non-negative integer within ``_MAX_BODY_BYTES``; otherwise
        ``QueryError`` (400) with the body left unread."""
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            raise QueryError(f"Content-Length must be a non-negative "
                             f"integer, got {declared!r}", status=400)
        length = int(declared)
        if length > _MAX_BODY_BYTES:
            raise QueryError(_BODY_TOO_LARGE, status=400)
        return self.rfile.read(length) if length else b""

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        self._respond("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._respond("POST")

    def log_message(self, fmt: str, *args: Any) -> None:
        """Silence the per-request stderr chatter; /metrics is the
        observable surface."""


class ServeDaemon:
    """A ServeApp bound to a threaded HTTP server."""

    def __init__(self, app: ServeApp, *, host: str = "127.0.0.1",
                 port: int = 0):
        self.app = app
        handler = type("BoundHandler", (_Handler,), {"app": app})
        self.server = ThreadingHTTPServer((host, port), handler)
        self.server.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    def start_background(self) -> "ServeDaemon":
        """Serve from a daemon thread (tests, the loadgen's in-process
        target); returns self once the socket is accepting."""
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Block and serve (the CLI path)."""
        self.server.serve_forever()

    def shutdown(self) -> None:
        """Drain, stop accepting, and close the socket.

        ``begin_drain`` first so a health check racing the shutdown sees
        503, then ``HTTPServer.shutdown`` which returns only after the
        serve loop has exited; in-flight handlers finish their response
        before their thread dies.
        """
        self.app.begin_drain()
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
