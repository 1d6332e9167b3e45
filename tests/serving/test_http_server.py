"""Tests for QueryServer: the ``repro serve`` HTTP daemon.

Covers the serving parity contract end to end (coalesced HTTP responses
identical to direct QueryEngine execution, including degenerate queries),
concurrent clients, sequential requests on one keep-alive connection,
structured 400s for malformed bodies, the telemetry surface on the same
socket, and drain-on-shutdown.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serving import QueryServer
from repro.serving.batcher import BatcherClosed
from repro.serving.service import QueryService
from repro.utils.logging import StructuredLogger
from repro.utils.metrics import MetricsRegistry
from repro.utils.telemetry_server import TelemetryServer


def _post(url: str, body, *, raw: bytes | None = None, timeout=30):
    """POST ``body`` as JSON; returns (status, parsed_payload)."""
    data = raw if raw is not None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _get(url: str):
    """GET ``url``; returns (status, body_text)."""
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode("utf-8")


PREDICT_BODIES = [
    {
        "target": "time",
        "candidates": [2.0, 9.5, 13.0, 21.5],
        "words": ["common_000"],
        "location": [1.0, 2.0],
    },
    {
        "target": "location",
        "candidates": [[0.5, 0.5], [10.0, 12.0], [3.3, 7.7]],
        "time": 20.0,
        "words": ["common_001"],
    },
    {
        "target": "text",
        "candidates": [["common_000", "common_001"], ["common_002"]],
        "time": 9.0,
        "location": [5.0, 5.0],
    },
    # Degenerate: fully-OOV query bag, unseen far-away location.
    {
        "target": "time",
        "candidates": [1.0, 12.0, 23.0],
        "words": ["never_in_any_vocab_xyz"],
        "location": [-400.0, 900.0],
    },
]

NEIGHBOR_BODIES = [
    {"modality": "word", "time": 21.0, "k": 5},
    {"modality": "time", "words": ["common_000"], "k": 3},
    {"modality": "location", "time": 3.0, "k": 4},
    {"modality": "word", "words": ["never_in_any_vocab_xyz"], "k": 2},
]


@pytest.fixture(scope="module")
def server(tiny_actor):
    """A running coalescing QueryServer on an ephemeral port."""
    with QueryServer(
        tiny_actor, port=0, metrics=MetricsRegistry()
    ) as server:
        yield server


class TestLifecycle:
    def test_ephemeral_port_and_url(self, server):
        assert server.running
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_double_start_rejected(self, server):
        with pytest.raises(RuntimeError, match="already started"):
            server.start()

    def test_unknown_endpoints_404(self, server):
        status, _ = _get(f"{server.url}/nope")
        assert status == 404
        status, payload = _post(f"{server.url}/v1/nope", {"x": 1})
        assert status == 404
        assert "error" in payload


class TestServingParity:
    def test_http_responses_identical_to_direct_engine(
        self, server, tiny_actor
    ):
        """Coalesced HTTP responses == direct QueryService execution.

        Python prints floats shortest-round-trip, so equality on the
        parsed JSON payloads is bit-exactness of every score.
        """
        direct = QueryService(tiny_actor, metrics=MetricsRegistry())
        for body in PREDICT_BODIES:
            status, payload = _post(f"{server.url}/v1/predict", body)
            assert status == 200
            request = direct.validate_predict(body)
            assert payload == direct.dispatch([request])[0]
        for body in NEIGHBOR_BODIES:
            status, payload = _post(f"{server.url}/v1/neighbors", body)
            assert status == 200
            request = direct.validate_neighbors(body)
            assert payload == direct.dispatch([request])[0]

    def test_concurrent_clients_all_get_their_own_answer(
        self, server, tiny_actor, hold_first_dispatch
    ):
        """A coalesced burst returns per-client results with exact parity."""
        direct = QueryService(tiny_actor, metrics=MetricsRegistry())
        bodies = [
            {
                "target": "time",
                "candidates": [float(i), float(i + 6) % 24.0, 12.0],
                "words": [f"common_{i % 5:03d}"],
            }
            for i in range(16)
        ]
        expected = [
            direct.dispatch([direct.validate_predict(b)])[0] for b in bodies
        ]
        results: list = [None] * len(bodies)
        barrier = threading.Barrier(len(bodies))
        hold_first_dispatch(server, len(bodies))

        def client(i):
            barrier.wait()
            results[i] = _post(f"{server.url}/v1/predict", bodies[i])

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(len(bodies))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for (status, payload), want in zip(results, expected):
            assert status == 200
            assert payload == want

    def test_coalescing_actually_happened(self, server):
        """The burst above must have produced at least one >1 batch."""
        histogram = server.metrics.histogram("serve.batch_size")
        assert histogram.count > 0
        assert histogram.max > 1


class TestKeepAlive:
    """Sequential requests on one keep-alive connection wait on no timer.

    A response written as two segments on a Nagle socket waits for the
    client's delayed ACK (~40 ms on every request after the first few);
    so would a batcher that lingered for co-travellers.  Each request
    here costs only the server's CPU work: a few milliseconds.
    """

    def test_sequential_posts_wait_on_no_timer(self, tiny_actor):
        """Mixed POSTs on one connection: fast, parity-exact, no queue wait.

        Each request finds the batcher idle and dispatches at once, so
        its server-measured queue wait (``X-Queue-Wait-Ms``) is near 0.
        """
        direct = QueryService(tiny_actor, metrics=MetricsRegistry())
        bodies = (PREDICT_BODIES + NEIGHBOR_BODIES) * 7
        walls, waits = [], []
        with QueryServer(tiny_actor, port=0) as server:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=30
            )
            try:
                for body in bodies:
                    if "target" in body:
                        path = "/v1/predict"
                        request = direct.validate_predict(body)
                    else:
                        path = "/v1/neighbors"
                        request = direct.validate_neighbors(body)
                    started = time.perf_counter()
                    conn.request(
                        "POST",
                        path,
                        body=json.dumps(body),
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    payload = json.loads(response.read())
                    walls.append(time.perf_counter() - started)
                    assert response.status == 200
                    assert payload == direct.dispatch([request])[0]
                    waits.append(float(response.getheader("X-Queue-Wait-Ms")))
            finally:
                conn.close()
        assert len(walls) >= 50
        assert statistics.median(walls) < 0.020
        assert statistics.median(waits) < 2.0

    def test_sequential_metrics_scrapes_wait_on_no_timer(self, server):
        """``GET /metrics`` rides the same one-write, no-Nagle handler."""
        walls = []
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            for _ in range(25):
                started = time.perf_counter()
                conn.request("GET", "/metrics")
                response = conn.getresponse()
                text = response.read().decode("utf-8")
                walls.append(time.perf_counter() - started)
                assert response.status == 200
                assert text.endswith("\n")
        finally:
            conn.close()
        assert statistics.median(walls) < 0.020


class TestBadRequests:
    def test_malformed_json_is_a_structured_400(self, server):
        before = server.metrics.counter("serve.bad_requests").value
        status, payload = _post(
            f"{server.url}/v1/predict", None, raw=b"{not json"
        )
        assert status == 400
        assert "not valid JSON" in payload["error"]
        assert server.metrics.counter("serve.bad_requests").value == before + 1

    def test_validation_failure_is_a_structured_400(self, server):
        status, payload = _post(
            f"{server.url}/v1/predict",
            {"target": "venue", "candidates": [1.0], "time": 2.0},
        )
        assert status == 400
        assert payload["field"] == "target"
        assert "venue" in payload["error"]

    def test_wrong_shape_candidates_400_not_500(self, server):
        before = server.metrics.counter("serve.errors").value
        status, payload = _post(
            f"{server.url}/v1/neighbors", {"modality": "word", "words": [3]}
        )
        assert status == 400
        assert payload["field"] == "words"
        assert server.metrics.counter("serve.errors").value == before

    def test_non_object_body_400(self, server):
        status, payload = _post(f"{server.url}/v1/predict", [1, 2, 3])
        assert status == 400
        assert "JSON object" in payload["error"]


class TestTelemetrySurface:
    def test_metrics_endpoint_on_same_socket(self, server):
        # Serve one query first so serve.* metrics exist.
        _post(f"{server.url}/v1/neighbors", NEIGHBOR_BODIES[0])
        status, text = _get(f"{server.url}/metrics")
        assert status == 200
        assert "repro_serve_requests_total" in text

    def test_healthz_reports_serving_state(self, server):
        status, text = _get(f"{server.url}/healthz")
        assert status == 200
        payload = json.loads(text)
        assert payload["status"] == "ok"
        assert payload["serving"]["accepting"] is True

    def test_varz_includes_batcher_depth(self, server):
        status, text = _get(f"{server.url}/varz")
        assert status == 200
        assert "batcher_depth" in json.loads(text)["serving"]


class TestOneHost:
    """The query server is the telemetry server plus the query path."""

    def test_is_a_telemetry_server(self, server):
        assert isinstance(server, TelemetryServer)

    def test_healthz_uptime_counts_from_start(self, tiny_actor):
        with QueryServer(tiny_actor, port=0) as server:
            time.sleep(0.01)
            status, text = _get(f"{server.url}/healthz")
        assert status == 200
        assert json.loads(text)["uptime_seconds"] > 0

    def test_execute_needs_a_running_server(self, tiny_actor):
        server = QueryServer(tiny_actor, port=0)
        request = server.service.validate_neighbors(NEIGHBOR_BODIES[0])
        with pytest.raises(BatcherClosed):
            server.execute(request)
        with server:
            want = server.service.dispatch([request])[0]
            assert server.execute(request) == want
        with pytest.raises(BatcherClosed):
            server.execute(request)

    def test_stop_is_idempotent_before_and_after_start(self, tiny_actor):
        server = QueryServer(tiny_actor, port=0)
        server.stop()
        server.start()
        server.stop()
        server.stop()
        assert not server.running
        assert server.batcher is None

    def test_failed_bind_leaves_nothing_running(self, server, tiny_actor):
        other = QueryServer(tiny_actor, port=server.port)
        with pytest.raises(OSError):
            other.start()
        assert not other.running
        assert not other.accepting
        assert other.batcher is None

    def test_lifecycle_log_events(self, tiny_actor):
        logger = StructuredLogger()
        with QueryServer(tiny_actor, port=0, logger=logger) as server:
            port = server.port
        events = [r for r in logger.recent if r["event"].startswith("serve.")]
        assert [r["event"] for r in events] == [
            "serve.started",
            "serve.stopped",
        ]
        assert events[0]["port"] == port


class TestDrain:
    def test_requests_after_stop_get_503(self, tiny_actor):
        server = QueryServer(tiny_actor, port=0).start()
        url = server.url
        server._accepting = False
        status, payload = _post(
            f"{url}/v1/neighbors", {"modality": "word", "time": 2.0}
        )
        assert status == 503
        assert "draining" in payload["error"]
        server._accepting = True
        server.stop()
        assert not server.running

    def test_inflight_requests_complete_during_drain(
        self, tiny_actor, monkeypatch
    ):
        """stop() waits for in-flight requests instead of dropping them."""
        server = QueryServer(tiny_actor, port=0).start()
        url = server.url
        entered = threading.Event()
        release = threading.Event()
        dispatch = server.service.dispatch

        def held_dispatch(requests):
            """Hold the request in flight until the test releases it."""
            entered.set()
            release.wait(timeout=10.0)
            return dispatch(requests)

        monkeypatch.setattr(server.service, "dispatch", held_dispatch)
        results = {}

        def client():
            results["response"] = _post(
                f"{url}/v1/neighbors", {"modality": "word", "time": 21.0}
            )

        t = threading.Thread(target=client)
        t.start()
        assert entered.wait(timeout=10.0)
        # Begin the drain while the request is held mid-dispatch.  One
        # second outlasts serve_forever's shutdown poll, so a stop() that
        # did not drain would have returned by then.
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        stopper.join(timeout=1.0)
        assert stopper.is_alive(), "stop() returned before the drain"
        assert not server.accepting
        release.set()
        stopper.join(timeout=10.0)
        t.join(timeout=10.0)
        assert not stopper.is_alive()
        assert not t.is_alive()
        assert not server.running
        status, payload = results["response"]
        assert status == 200
        assert len(payload["neighbors"]) == 10

    def test_stop_right_after_start_is_prompt(self, tiny_actor):
        # shutdown() waits for serve_forever's next poll; the stdlib
        # default of 0.5 s made every stop() of an idle server ~0.45 s.
        server = QueryServer(tiny_actor, port=0).start()
        began = time.perf_counter()
        server.stop()
        assert time.perf_counter() - began < 0.25
        assert not server.running

    def test_stop_is_idempotent(self, tiny_actor):
        server = QueryServer(tiny_actor, port=0).start()
        server.stop()
        server.stop()
        assert not server.running
