"""Tests for request-scoped tracing: ids, span links, ring, attribution.

The live-server tests pin the tentpole contracts: every response echoes
the id its client sent (even through coalescing), every traced request
links to exactly one batch entry, and per-stage durations never exceed
the request's wall time.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serving import QueryServer
from repro.serving.reqtrace import (
    QUEUE_WAIT_HEADER,
    REQUEST_ID_HEADER,
    RequestContext,
    TraceRing,
    load_request_trace,
    render_tail_summary,
    request_id_from_header,
    summarize_tail,
)

PREDICT_BODY = {"target": "time", "candidates": [0.25, 0.75], "time": 2.0}
NEIGHBORS_BODY = {"modality": "word", "time": 2.0, "k": 3}


def _post(url, body, *, headers=None, timeout=30):
    """POST JSON; returns (status, payload, response_headers)."""
    merged = {"Content-Type": "application/json"}
    if headers:
        merged.update(headers)
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers=merged,
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), err.headers


def _get(url, *, timeout=30):
    """GET JSON; returns (status, payload)."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read())


class TestRequestIdFromHeader:
    def test_honors_clean_inbound_id(self):
        assert request_id_from_header("client-abc-123") == "client-abc-123"

    def test_generates_when_missing(self):
        generated = request_id_from_header(None)
        assert len(generated) == 16
        assert generated != request_id_from_header("")

    def test_rejects_whitespace_and_control_characters(self):
        for hostile in ("two words", "tab\tchar", "new\nline", "\x00evil"):
            replaced = request_id_from_header(hostile)
            assert replaced != hostile
            assert len(replaced) == 16

    def test_truncates_oversized_ids(self):
        assert len(request_id_from_header("x" * 500)) == 128


class TestRequestContext:
    def test_stages_accumulate(self):
        ctx = RequestContext("r1", "/v1/predict")
        ctx.stage("fanback", 0.001)
        ctx.stage("fanback", 0.002)
        assert ctx.stages["fanback"] == pytest.approx(0.003)

    def test_entry_shape(self):
        ctx = RequestContext("r1", "/v1/predict")
        ctx.begin_batch("b7", 4, queue_wait=0.002)
        ctx.dispatch_seconds = 0.01
        ctx.note("ann.probed_fraction", 0.125)
        ctx.lifecycle = {"epoch": 3, "state": "idle"}
        ctx.finish(200)
        entry = ctx.to_entry()
        assert entry["kind"] == "request"
        assert entry["id"] == "r1"
        assert entry["batch"] == {"id": "b7", "size": 4, "dispatch_ms": 10.0}
        assert entry["stages_ms"]["queue_wait"] == pytest.approx(2.0)
        assert entry["values"]["ann.probed_fraction"] == 0.125
        assert entry["lifecycle"]["epoch"] == 3
        assert "error" not in entry

    def test_error_entry(self):
        ctx = RequestContext("r2", "/v1/neighbors")
        ctx.finish(500, error="RuntimeError: boom")
        entry = ctx.to_entry()
        assert entry["status"] == 500
        assert entry["error"] == "RuntimeError: boom"
        assert entry["batch"] is None


class TestTraceRing:
    def _entry(self, request_id, *, status=200, duration=1.0, error=None):
        entry = {
            "kind": "request",
            "id": request_id,
            "status": status,
            "duration_ms": duration,
            "stages_ms": {},
        }
        if error:
            entry["error"] = error
        return entry

    def test_capacity_evicts_oldest(self):
        ring = TraceRing(4)
        for i in range(10):
            ring.record(self._entry(f"r{i}"))
        ids = [e["id"] for e in ring.entries()]
        assert ids == ["r6", "r7", "r8", "r9"]
        assert ring.recorded == 10

    def test_errors_survive_healthy_eviction(self):
        ring = TraceRing(4, error_capacity=8)
        ring.record(self._entry("bad", status=500, error="boom"))
        for i in range(6):
            ring.record(self._entry(f"ok{i}"))
        snapshot = ring.snapshot()
        assert [e["id"] for e in snapshot["errors"]] == ["bad"]
        assert ring.recorded_errors == 1

    def test_snapshot_ranks_slowest(self):
        ring = TraceRing(8)
        for i, duration in enumerate([5.0, 50.0, 1.0, 20.0]):
            ring.record(self._entry(f"r{i}", duration=duration))
        slowest = ring.snapshot(slowest=2)["slowest"]
        assert [e["id"] for e in slowest] == ["r1", "r3"]

    def test_export_roundtrip(self, tmp_path):
        ring = TraceRing(8)
        ring.record(self._entry("r1"))
        ring.record_batch(
            {"kind": "batch", "id": "b1", "size": 1, "links": ["r1"]}
        )
        path = ring.export_jsonl(tmp_path / "requests.jsonl")
        requests, batches = load_request_trace(path)
        assert [e["id"] for e in requests] == ["r1"]
        assert [e["id"] for e in batches] == ["b1"]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceRing(0)


class TestTailAttribution:
    def _requests(self):
        fast = [
            {
                "id": f"fast{i}",
                "endpoint": "/v1/predict",
                "status": 200,
                "duration_ms": 2.0,
                "stages_ms": {"score": 1.0, "queue_wait": 0.5},
            }
            for i in range(99)
        ]
        slow = [
            {
                "id": "slow0",
                "endpoint": "/v1/predict",
                "status": 200,
                "duration_ms": 100.0,
                "stages_ms": {"score": 10.0, "queue_wait": 80.0},
                "batch": {"id": "b9", "size": 7, "dispatch_ms": 12.0},
                "lifecycle": {"epoch": 2, "swap_in_progress": False},
            }
        ]
        return fast + slow

    def test_tail_stage_ranking(self):
        summary = summarize_tail(self._requests(), q=99.0, slowest=3)
        assert summary["n"] == 100
        assert summary["tail"]["n"] == 1
        assert summary["stages"][0]["stage"] == "queue_wait"
        assert summary["stages"][0]["share"] == pytest.approx(0.8)
        assert summary["slowest"][0]["id"] == "slow0"

    def test_render_mentions_batch_and_epoch(self):
        text = render_tail_summary(summarize_tail(self._requests()))
        assert "queue_wait" in text
        assert "batch=b9" in text
        assert "epoch=2" in text

    def test_empty_input(self):
        summary = summarize_tail([])
        assert summary["n"] == 0
        assert summary["stages"] == []
        assert "0 requests" in render_tail_summary(summary)


class TestTracePropagation:
    """Tentpole contracts, exercised against a live coalescing server."""

    def test_concurrent_clients_get_their_own_ids_back(
        self, tiny_actor, hold_first_dispatch
    ):
        n_clients = 16
        with QueryServer(tiny_actor, port=0, max_batch=8) as server:
            hold_first_dispatch(server, n_clients)
            barrier = threading.Barrier(n_clients)
            results: dict[int, tuple] = {}

            def client(i):
                """One client posting with its own X-Request-Id."""
                barrier.wait()
                results[i] = _post(
                    f"{server.url}/v1/predict",
                    PREDICT_BODY,
                    headers={"X-Request-Id": f"client-{i}"},
                )

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            ring = server.trace_ring
            entries = {e["id"]: e for e in ring.entries()}
            batches = {b["id"]: b for b in ring.batch_entries()}

        assert len(results) == n_clients
        for i, (status, _payload, headers) in results.items():
            # Echo contract: the response carries the id the client sent.
            assert status == 200
            assert headers.get("X-Request-Id") == f"client-{i}"
            assert float(headers.get("X-Queue-Wait-Ms")) >= 0.0

        coalesced = False
        for i in range(n_clients):
            entry = entries[f"client-{i}"]
            # Span-link contract: exactly one batch, and that batch
            # lists this request among its links.
            batch = entry["batch"]
            assert batch is not None
            assert batch["id"] in batches
            assert f"client-{i}" in batches[batch["id"]]["links"]
            assert batch["size"] == batches[batch["id"]]["size"]
            coalesced = coalesced or batch["size"] > 1
            # Accounting invariant: stages partition (a subset of) the
            # request's wall time; rounding is to 3 decimals per stage.
            stage_sum = sum(entry["stages_ms"].values())
            assert stage_sum <= entry["duration_ms"] + 0.1
            assert "queue_wait" in entry["stages_ms"]
            assert entry["lifecycle"]["epoch"] == 0
            assert entry["lifecycle"]["swap_in_progress"] is False
        # The clients that queued behind the held first dispatch
        # coalesced: at least one batch carried several of them.
        assert coalesced

    def test_batch_entries_carry_engine_stages(self, tiny_actor):
        with QueryServer(tiny_actor, port=0) as server:
            status, _payload, _headers = _post(
                f"{server.url}/v1/predict", PREDICT_BODY
            )
            assert status == 200
            batches = server.trace_ring.batch_entries()
        assert batches
        stages = batches[-1]["stages_ms"]
        assert "score" in stages
        assert batches[-1]["dispatch_ms"] >= stages["score"]

    def test_request_stages_read_the_engine_histograms(self, tiny_actor):
        # One clock reading per stage: a fresh server's only request
        # reports exactly the score time its histogram holds.
        with QueryServer(tiny_actor, port=0) as server:
            status, _payload, _headers = _post(
                f"{server.url}/v1/predict",
                PREDICT_BODY,
                headers={"X-Request-Id": "one-score"},
            )
            entries = {e["id"]: e for e in server.trace_ring.entries()}
            score = server.metrics.histogram("query.score_seconds")
        assert status == 200
        stages_ms = entries["one-score"]["stages_ms"]
        assert score.count == 1
        assert stages_ms["score"] == round(1e3 * score.total, 3)
        # Only leaf stages reach the request trace.
        assert set(stages_ms) == {
            "validate", "queue_wait", "snap", "score", "fanback",
        }

    def test_errors_carry_request_id_in_payload(self, tiny_actor):
        with QueryServer(tiny_actor, port=0) as server:
            status, payload, headers = _post(
                f"{server.url}/v1/predict",
                {"target": "venue", "candidates": [1.0]},
                headers={"X-Request-Id": "bad-req-1"},
            )
            snapshot = server.trace_ring.snapshot()
        assert status == 400
        assert payload["request_id"] == "bad-req-1"
        assert headers.get("X-Request-Id") == "bad-req-1"
        recorded = {e["id"]: e for e in snapshot["recent"]}
        assert recorded["bad-req-1"]["status"] == 400
        # Validation rejected it before dispatch: no batch link.
        assert recorded["bad-req-1"]["batch"] is None

    def test_hostile_header_is_replaced(self, tiny_actor):
        with QueryServer(tiny_actor, port=0) as server:
            status, _payload, headers = _post(
                f"{server.url}/v1/predict",
                PREDICT_BODY,
                headers={"X-Request-Id": "two words here"},
            )
        assert status == 200
        echoed = headers.get("X-Request-Id")
        assert echoed != "two words here"
        assert len(echoed) == 16

    def test_debug_requests_endpoint(self, tiny_actor):
        with QueryServer(tiny_actor, port=0) as server:
            for i in range(3):
                _post(
                    f"{server.url}/v1/predict",
                    PREDICT_BODY,
                    headers={"X-Request-Id": f"scrape-{i}"},
                )
            status, snapshot = _get(f"{server.url}/debug/requests")
        assert status == 200
        assert snapshot["recorded"] == 3
        assert {e["id"] for e in snapshot["recent"]} == {
            "scrape-0",
            "scrape-1",
            "scrape-2",
        }
        assert snapshot["slowest"][0]["duration_ms"] >= snapshot["slowest"][
            -1
        ]["duration_ms"]
        assert snapshot["batches"]

    def test_tracing_disabled_still_serves_and_counts_slo(self, tiny_actor):
        with QueryServer(tiny_actor, port=0, trace_requests=False) as server:
            status, _payload, headers = _post(
                f"{server.url}/v1/predict", PREDICT_BODY
            )
            assert status == 200
            # No ring, no /debug/requests, no request-id headers...
            assert server.trace_ring is None
            assert headers.get(REQUEST_ID_HEADER) is None
            assert headers.get(QUEUE_WAIT_HEADER) is None
            with pytest.raises(urllib.error.HTTPError):
                _get(f"{server.url}/debug/requests")
            # ...but SLO accounting still sees the traffic.
            assert server.metrics.counter("serve.responses").value == 1

    def test_coalescing_parity_is_preserved(self, tiny_actor):
        """Traced and untraced servers return identical 200 payloads."""
        with QueryServer(tiny_actor, port=0) as traced:
            _status, traced_payload, _h = _post(
                f"{traced.url}/v1/predict", PREDICT_BODY
            )
        with QueryServer(tiny_actor, port=0, trace_requests=False) as plain:
            _status, plain_payload, _h = _post(
                f"{plain.url}/v1/predict", PREDICT_BODY
            )
        assert traced_payload == plain_payload
