"""Serving daemon: endpoint semantics, refusals, caches, drain.

Most cases drive :class:`ServeApp.handle` directly -- the app maps
``(method, path, body)`` to ``(status, content-type, bytes)`` with no
socket in the way, which keeps every negative path cheap and exact.
Socket-level behavior (HTTP framing, metric endpoint labels, drain
visible over the wire) runs against one module-scoped live daemon.
Byte parity with the CLI under concurrency lives in
``test_serve_parity.py``; load characteristics in ``test_loadgen.py``.
"""

from __future__ import annotations

import json
import socket
import statistics
import struct
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.logs.bundle import read_bundle
from repro.obs.metrics import get_registry
from repro.serve.daemon import (
    BundleCache,
    ServeApp,
    ServeDaemon,
    parse_bundle_specs,
)
from repro.serve.queries import QUERY_SCHEMA, collection_window


def post(app: ServeApp, path: str, payload) -> tuple[int, dict]:
    body = payload if isinstance(payload, bytes) \
        else json.dumps(payload).encode("utf-8")
    status, content_type, response = app.handle("POST", path, body)
    assert content_type == "application/json"
    return status, json.loads(response)


@pytest.fixture()
def app(bundle_dir) -> ServeApp:
    return ServeApp({"b": bundle_dir})


class TestBundleSpecs:
    def test_bare_path_registers_under_basename(self, bundle_dir):
        specs = parse_bundle_specs([str(bundle_dir)])
        assert specs == {bundle_dir.name: bundle_dir}

    def test_named_spec(self, bundle_dir):
        specs = parse_bundle_specs([f"prod={bundle_dir}"])
        assert specs == {"prod": bundle_dir}

    def test_duplicate_names_rejected(self, bundle_dir):
        with pytest.raises(ValueError, match="duplicate"):
            parse_bundle_specs([f"x={bundle_dir}", f"x={bundle_dir}"])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="bad bundle spec"):
            parse_bundle_specs(["=somewhere"])

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="manifest.json"):
            ServeApp({"empty": tmp_path})

    def test_no_bundles_rejected(self):
        with pytest.raises(ValueError, match="no bundles"):
            ServeApp({})


class TestRefusals:
    """Every malformed request maps to the documented status, and the
    body is always a canonical error document."""

    def test_unknown_endpoint_404(self, app):
        status, body = post(app, "/frobnicate", {"bundle": "b"})
        assert status == 404
        assert body["schema"] == QUERY_SCHEMA
        assert body["error"]["status"] == 404

    def test_unknown_bundle_404(self, app):
        status, body = post(app, "/analyze", {"bundle": "nope"})
        assert status == 404
        assert "nope" in body["error"]["message"]
        assert "'b'" in body["error"]["message"]  # names what IS served

    def test_malformed_json_400(self, app):
        status, body = post(app, "/analyze", b"{not json")
        assert status == 400

    def test_non_object_body_400(self, app):
        status, body = post(app, "/analyze", b"[1, 2]")
        assert status == 400
        assert "object" in body["error"]["message"]

    def test_missing_bundle_key_400(self, app):
        status, _ = post(app, "/analyze", {})
        assert status == 400

    def test_oversized_body_400(self, app):
        huge = b'{"bundle": "' + b"x" * 70_000 + b'"}'
        status, body = post(app, "/analyze", huge)
        assert status == 400
        assert "exceeds" in body["error"]["message"]

    @pytest.mark.parametrize("window", [
        [5.0, 2.0],                      # inverted
        [1.0, 1.0],                      # empty
        ["a", "b"],                      # non-numeric
        [0.0, float("inf")],             # non-finite
        [float("nan"), 10.0],            # NaN
        [0.0],                           # wrong arity
    ])
    def test_bad_window_422(self, app, window):
        body = json.loads(json.dumps({"bundle": "b", "window": window}))
        status, _ = post(app, "/analyze", body)
        assert status == 422

    def test_oversized_window_422(self, app, bundle):
        collection = collection_window(bundle)
        status, body = post(app, "/analyze", {
            "bundle": "b",
            "window": [collection.start, collection.end + 1.0]})
        assert status == 422
        assert "exceeds" in body["error"]["message"]

    def test_window_with_stream_422(self, app):
        status, body = post(app, "/analyze", {
            "bundle": "b", "stream": True, "window": [0.0, 1.0]})
        assert status == 422
        assert "mutually exclusive" in body["error"]["message"]

    def test_out_of_range_shards_422(self, app):
        for shards in (0, -1, 65, "many", 2.5):
            status, _ = post(app, "/analyze", {
                "bundle": "b", "stream": True, "shards": shards})
            assert status == 422, shards

    def test_non_boolean_flag_422(self, app):
        status, _ = post(app, "/analyze", {"bundle": "b", "lenient": "yes"})
        assert status == 422

    def test_bad_jobs_422(self, app):
        status, _ = post(app, "/analyze", {"bundle": "b", "jobs": 0})
        assert status == 422


class TestHealthAndDrain:
    def test_ok_then_draining(self, app):
        code, _, response = app.handle("GET", "/healthz", b"")
        assert code == 200
        assert json.loads(response)["status"] == "ok"
        app.begin_drain()
        code, _, response = app.handle("GET", "/healthz", b"")
        assert code == 503
        assert json.loads(response)["status"] == "draining"

    def test_drain_does_not_refuse_queries(self, app):
        """Draining stops *routing* (healthz 503), not in-flight or
        queued work -- queries still answer."""
        app.begin_drain()
        status, body = post(app, "/analyze", {"bundle": "b"})
        assert status == 200
        assert body["schema"] == QUERY_SCHEMA

    def test_trailing_slash_is_tolerated(self, app):
        code, _, _ = app.handle("GET", "/healthz/", b"")
        assert code == 200


class TestBundlesEndpoint:
    def test_loaded_flags_track_the_cache(self, app, bundle_dir):
        code, _, response = app.handle("GET", "/bundles", b"")
        rows = json.loads(response)["bundles"]
        assert rows == [{"name": "b", "path": str(bundle_dir),
                         "loaded_strict": False, "loaded_lenient": False}]
        post(app, "/analyze", {"bundle": "b"})
        code, _, response = app.handle("GET", "/bundles", b"")
        (row,) = json.loads(response)["bundles"]
        assert row["loaded_strict"] is True
        assert row["loaded_lenient"] is False


class TestBundleCache:
    def test_single_flight_loads_once(self, bundle):
        """32 threads racing a cold key must run the loader exactly
        once; everyone gets the same object."""
        cache = BundleCache(capacity=2)
        loads = []
        barrier = threading.Barrier(32)
        got = []

        def loader():
            loads.append(1)
            time.sleep(0.05)  # widen the race window
            return bundle

        def race():
            barrier.wait()
            got.append(cache.get(("b", False), loader))

        threads = [threading.Thread(target=race) for _ in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(loads) == 1
        assert all(handle is bundle for handle in got)

    def test_lru_evicts_least_recently_used(self, bundle):
        cache = BundleCache(capacity=2)
        cache.get(("a", False), lambda: bundle)
        cache.get(("b", False), lambda: bundle)
        cache.get(("a", False), lambda: bundle)  # refresh a
        cache.get(("c", False), lambda: bundle)  # evicts b
        assert cache.loaded_keys() == [("a", False), ("c", False)]

    def test_eviction_does_not_invalidate_held_handles(self, bundle_dir):
        """An in-flight request holds its own reference; eviction only
        drops the cache's.  The held handle keeps answering."""
        cache = BundleCache(capacity=1)
        held = cache.get(("b", False), lambda: read_bundle(bundle_dir))
        cache.get(("other", False),
                  lambda: read_bundle(bundle_dir))  # evicts ("b", False)
        assert cache.loaded_keys() == [("other", False)]
        assert len(held.alps_records) > 0  # still fully usable

    def test_strict_and_lenient_are_distinct_keys(self, bundle):
        cache = BundleCache(capacity=4)
        cache.get(("b", False), lambda: bundle)
        cache.get(("b", True), lambda: bundle)
        assert set(cache.loaded_keys()) == {("b", False), ("b", True)}


class TestResultCache:
    def test_repeat_query_is_served_from_bytes(self, app):
        registry = get_registry()
        before = registry.counter_value("serve_result_cache_total",
                                        result="hit")
        first = app.handle("POST", "/analyze",
                           json.dumps({"bundle": "b"}).encode())
        second = app.handle("POST", "/analyze",
                            json.dumps({"bundle": "b"}).encode())
        assert first == second  # same status, type, and exact bytes
        assert registry.counter_value("serve_result_cache_total",
                                      result="hit") == before + 1

    def test_differently_phrased_equal_queries_share_an_entry(self, app):
        """Normalization makes {"bundle": "b"} and the explicit-defaults
        phrasing one cache key -- and one set of response bytes."""
        registry = get_registry()
        before = registry.counter_value("serve_result_cache_total",
                                        result="hit")
        first = app.handle("POST", "/analyze",
                           json.dumps({"bundle": "b"}).encode())
        second = app.handle(
            "POST", "/analyze",
            json.dumps({"bundle": "b", "lenient": False, "stream": False,
                        "window": None}).encode())
        assert first == second
        assert registry.counter_value("serve_result_cache_total",
                                      result="hit") == before + 1


@pytest.fixture(scope="module")
def live(bundle_dir):
    app = ServeApp({"live": bundle_dir}, max_loaded=2)
    daemon = ServeDaemon(app).start_background()
    yield daemon
    daemon.shutdown()


def _http(daemon: ServeDaemon, method: str, path: str, payload=None):
    connection = HTTPConnection(daemon.host, daemon.port, timeout=120.0)
    try:
        body = None if payload is None \
            else json.dumps(payload).encode("utf-8")
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"}
                           if body else {})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class TestLiveDaemon:
    def test_ephemeral_port_is_real(self, live):
        assert live.host == "127.0.0.1"
        assert live.port > 0

    def test_analyze_over_the_wire(self, live):
        status, body = _http(live, "POST", "/analyze", {"bundle": "live"})
        assert status == 200
        assert json.loads(body)["query"]["bundle"] == "live"

    def test_unknown_paths_pool_into_one_metric_label(self, live):
        """A scanner probing random paths must not mint unbounded label
        values; everything unknown lands on endpoint="other"."""
        registry = get_registry()
        before = registry.counter_value("serve_requests_total",
                                        endpoint="other", status="404")
        for path in ("/admin", "/wp-login.php", "/x/y/z"):
            status, _ = _http(live, "GET", path)
            assert status == 404
        assert registry.counter_value(
            "serve_requests_total", endpoint="other",
            status="404") == before + 3

    def test_metrics_exposition_over_the_wire(self, live):
        _http(live, "GET", "/healthz")
        status, body = _http(live, "GET", "/metrics")
        assert status == 200
        text = body.decode("utf-8")
        assert "# TYPE serve_requests_total counter" in text
        assert 'serve_requests_total{endpoint="/healthz",status="200"}' \
            in text
        assert "# TYPE serve_latency_seconds histogram" in text

    def test_keep_alive_responses_do_not_wait_on_delayed_ack(self, live):
        """Over one persistent connection a cached response must not sit
        behind the client's delayed ACK (40 ms minimum on Linux): a
        20 ms median ceiling fails any Nagle stall and nothing else."""
        connection = HTTPConnection(live.host, live.port, timeout=120.0)
        body = json.dumps({"bundle": "live"}).encode("utf-8")

        def median_ms(method: str, path: str, payload) -> float:
            samples = []
            for _ in range(20):
                start = time.perf_counter()
                connection.request(method, path, body=payload)
                response = connection.getresponse()
                response.read()
                samples.append((time.perf_counter() - start) * 1e3)
                assert response.status == 200
            return statistics.median(samples)

        try:
            connection.request("POST", "/analyze", body=body)
            connection.getresponse().read()  # warm the response cache
            assert median_ms("POST", "/analyze", body) < 20.0
            assert median_ms("GET", "/healthz", None) < 20.0
        finally:
            connection.close()

    def test_client_hangup_is_not_a_traceback(self, live, capsys):
        """A client that resets the connection before reading its answer
        is a closed connection, not a socketserver traceback."""
        with socket.create_connection((live.host, live.port),
                                      timeout=5.0) as sock:
            sock.sendall(b"GET /debug/profile?seconds=0.2 HTTP/1.1\r\n"
                         b"Host: x\r\n\r\n")
            # Linger 0: close() sends RST, so the daemon's write fails.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
        time.sleep(0.5)
        assert _http(live, "GET", "/healthz")[0] == 200
        assert "Traceback" not in capsys.readouterr().err

    def test_healthz_flips_to_503_on_drain_then_shutdown(self, bundle_dir):
        app = ServeApp({"d": bundle_dir})
        daemon = ServeDaemon(app).start_background()
        try:
            status, _ = _http(daemon, "GET", "/healthz")
            assert status == 200
            app.begin_drain()
            status, body = _http(daemon, "GET", "/healthz")
            assert status == 503
            assert json.loads(body)["status"] == "draining"
        finally:
            daemon.shutdown()
        with pytest.raises(OSError):
            _http(daemon, "GET", "/healthz")


def _raw_exchange(daemon: ServeDaemon, head: bytes) -> bytes:
    """Send raw request bytes and read until the daemon closes the
    connection; the short timeout turns a hang into a failure."""
    with socket.create_connection((daemon.host, daemon.port),
                                  timeout=5.0) as sock:
        sock.sendall(head)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestContentLength:
    """A bad or oversized Content-Length is refused before any body is
    read, and the connection closes so keep-alive framing stays sane."""

    @pytest.mark.parametrize("declared, reason", [
        (b"-1", b"non-negative integer"),   # read(-1) blocks until EOF
        (b"ten", b"non-negative integer"),  # int() would raise
        # Only the headers are sent: a daemon that reads the declared
        # 10 MB before refusing it times the client out.
        (b"10000000", b"request body exceeds"),
    ])
    def test_refused_unread_with_400(self, live, declared, reason):
        response = _raw_exchange(
            live, b"POST /analyze HTTP/1.1\r\nHost: x\r\n"
                  b"Content-Length: " + declared + b"\r\n\r\n")
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["error"]["status"] == 400
        assert reason in body


class TestDebugEndpoints:
    def test_status_reports_uptime_and_cache(self, app, bundle_dir):
        status, content_type, body = app.handle("GET", "/debug/status", b"")
        assert status == 200
        assert content_type == "application/json"
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["bundles"] == ["b"]
        assert doc["uptime_s"] >= 0
        assert doc["max_loaded"] == app.cache.capacity
        # The status request itself is in flight while it answers.
        assert doc["in_flight"] == 1
        # Nothing has finished yet on this fresh app, so the ring is empty.
        assert doc["latency"]["window"] == 0
        assert doc["latency"]["p50_s"] is None

    def test_status_sees_warm_handles_and_latencies(self, app):
        post(app, "/analyze", {"bundle": "b"})
        _, _, body = app.handle("GET", "/debug/status", b"")
        doc = json.loads(body)
        assert {"bundle": "b", "lenient": False} in doc["loaded"]
        assert doc["latency"]["window"] >= 1
        assert doc["latency"]["p50_s"] is not None
        assert doc["latency"]["p95_s"] >= doc["latency"]["p50_s"]

    def test_status_reflects_drain(self, app):
        app.begin_drain()
        _, _, body = app.handle("GET", "/debug/status", b"")
        assert json.loads(body)["status"] == "draining"

    def test_profile_returns_collapsed_text(self, app):
        status, content_type, body = app.handle(
            "GET", "/debug/profile", b"", query="seconds=0.001")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "sampling profile:" in body.decode("utf-8")

    def test_profile_rejects_garbage_seconds(self, app):
        status, _, body = app.handle("GET", "/debug/profile", b"",
                                     query="seconds=soon")
        assert status == 400
        assert "seconds" in json.loads(body)["error"]["message"]

    def test_debug_status_over_the_wire(self, live):
        status, body = _http(live, "GET", "/debug/status")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_profile_over_the_wire_names_a_busy_function(self, live):
        """The sampler runs inside the daemon process (in-process here),
        so a busy thread with a distinctive function name must show up
        in the collapsed stacks."""
        stop = threading.Event()

        def _profile_burn():
            while not stop.is_set():
                sum(i * i for i in range(500))

        thread = threading.Thread(target=_profile_burn, daemon=True)
        thread.start()
        try:
            status, body = _http(live, "GET",
                                 "/debug/profile?seconds=0.5")
        finally:
            stop.set()
            thread.join()
        assert status == 200
        assert "_profile_burn" in body.decode("utf-8")
