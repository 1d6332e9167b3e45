"""Tests for the request batcher: coalescing, fan-back, errors, drain."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serving.batcher import BatcherClosed, RequestBatcher
from repro.serving.reqtrace import RequestContext
from repro.utils.metrics import MetricsRegistry


def echo_dispatch(batch):
    """A dispatch function that tags each item with its batch size."""
    return [{"item": item, "batch_size": len(batch)} for item in batch]


class TestCoalescing:
    def test_single_request_round_trips(self):
        with RequestBatcher(echo_dispatch) as batcher:
            result = batcher.submit("a")
        assert result == {"item": "a", "batch_size": 1}

    def test_concurrent_requests_share_a_batch(self):
        """Requests that queue while a dispatch runs ride one batch.

        The first request finds the batcher idle and dispatches alone.
        Its dispatch is held until every other client has queued, so the
        rest must all ride the next batch together.
        """
        entered = threading.Event()
        release = threading.Event()
        sizes = []

        def gated_dispatch(batch):
            sizes.append(len(batch))
            if len(sizes) == 1:
                entered.set()
                release.wait(timeout=5.0)
            return echo_dispatch(batch)

        n_waiting = 7
        results = {}
        with RequestBatcher(gated_dispatch, max_batch=64) as batcher:

            def client(name):
                results[name] = batcher.submit(name)

            first = threading.Thread(target=client, args=("first",))
            first.start()
            assert entered.wait(timeout=5.0)
            threads = [
                threading.Thread(target=client, args=(f"q{i}",))
                for i in range(n_waiting)
            ]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 5.0
            while batcher.depth < n_waiting and time.monotonic() < deadline:
                time.sleep(0.001)
            assert batcher.depth == n_waiting
            release.set()
            for t in [first, *threads]:
                t.join(timeout=5.0)
        assert sizes == [1, n_waiting]
        assert results["first"] == {"item": "first", "batch_size": 1}
        for i in range(n_waiting):
            assert results[f"q{i}"] == {
                "item": f"q{i}", "batch_size": n_waiting
            }

    def test_idle_batcher_dispatches_a_lone_request_at_once(self):
        """Nagle's rule: nothing is held back while nothing is in flight."""
        ctx = RequestContext("lone", "/v1/neighbors")
        with RequestBatcher(echo_dispatch) as batcher:
            started = time.perf_counter()
            result = batcher.submit("a", ctx=ctx)
            elapsed = time.perf_counter() - started
        assert result == {"item": "a", "batch_size": 1}
        assert elapsed < 0.100
        assert ctx.queue_wait_seconds < 0.100

    def test_max_batch_cuts_dispatches(self):
        """No dispatch ever exceeds max_batch even under a pile-up."""
        sizes = []
        lock = threading.Lock()

        def recording_dispatch(batch):
            with lock:
                sizes.append(len(batch))
            return list(batch)

        with RequestBatcher(recording_dispatch, max_batch=3) as batcher:
            threads = [
                threading.Thread(target=batcher.submit, args=(i,))
                for i in range(10)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert sum(sizes) == 10
        assert max(sizes) <= 3

    def test_order_preserved_within_batch(self):
        """Fan-back pairs result i with submitter i, not arbitrarily."""
        with RequestBatcher(
            lambda batch: [item * 10 for item in batch]
        ) as batcher:
            results = {}
            threads = [
                threading.Thread(
                    target=lambda i=i: results.update({i: batcher.submit(i)})
                )
                for i in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert results == {i: i * 10 for i in range(12)}

    def test_metrics_recorded(self):
        registry = MetricsRegistry()
        with RequestBatcher(echo_dispatch, metrics=registry) as batcher:
            batcher.submit("a")
        assert registry.counter("serve.batches").value >= 1

    def test_batch_wait_metric_excludes_dispatch(self):
        """``serve.batch_wait_seconds`` is queue wait, not dispatch time."""
        registry = MetricsRegistry()

        def slow_dispatch(batch):
            time.sleep(0.05)
            return echo_dispatch(batch)

        with RequestBatcher(slow_dispatch, metrics=registry) as batcher:
            batcher.submit("a")
        histogram = registry.histogram("serve.batch_wait_seconds")
        assert histogram.count == 1
        assert histogram.max < 0.010


class TestErrors:
    def test_dispatch_exception_delivered_to_callers(self):
        def broken(batch):
            raise RuntimeError("engine exploded")

        with RequestBatcher(broken) as batcher:
            with pytest.raises(RuntimeError, match="engine exploded"):
                batcher.submit("a")

    def test_dispatch_survives_for_later_requests(self):
        """One poisoned batch must not kill the dispatcher thread."""
        calls = {"n": 0}

        def flaky(batch):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return echo_dispatch(batch)

        with RequestBatcher(flaky) as batcher:
            with pytest.raises(RuntimeError, match="transient"):
                batcher.submit("a")
            assert batcher.submit("b")["item"] == "b"

    def test_per_item_exception_raised_only_in_that_caller(self):
        def selective(batch):
            return [
                ValueError("bad item") if item == "bad" else item
                for item in batch
            ]

        with RequestBatcher(selective) as batcher:
            outcomes = {}

            def client(item):
                try:
                    outcomes[item] = batcher.submit(item)
                except ValueError as exc:
                    outcomes[item] = f"raised:{exc}"

            threads = [
                threading.Thread(target=client, args=(item,))
                for item in ("ok1", "bad", "ok2")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert outcomes["ok1"] == "ok1"
        assert outcomes["ok2"] == "ok2"
        assert outcomes["bad"] == "raised:bad item"

    def test_length_mismatch_is_an_error(self):
        with RequestBatcher(lambda batch: []) as batcher:
            with pytest.raises(RuntimeError, match="0 results for 1 requests"):
                batcher.submit("a")

    def test_submit_timeout(self):
        def stuck(batch):
            time.sleep(10.0)
            return list(batch)

        batcher = RequestBatcher(stuck)
        try:
            with pytest.raises(TimeoutError):
                batcher.submit("a", timeout=0.05)
        finally:
            # The dispatcher thread is daemonic and still sleeping; don't
            # join it, just mark the batcher closed for new work.
            batcher._closed = True


class TestClose:
    def test_submit_after_close_raises(self):
        batcher = RequestBatcher(echo_dispatch)
        batcher.close()
        with pytest.raises(BatcherClosed):
            batcher.submit("a")

    def test_close_drains_queued_work(self):
        """Requests parked before close() still get their results."""
        started = threading.Event()
        release = threading.Event()

        def slow_dispatch(batch):
            started.set()
            release.wait(timeout=5.0)
            return echo_dispatch(batch)

        batcher = RequestBatcher(slow_dispatch)
        results = {}
        t = threading.Thread(
            target=lambda: results.update({"a": batcher.submit("a")})
        )
        t.start()
        assert started.wait(timeout=5.0)
        closer = threading.Thread(target=batcher.close)
        closer.start()
        release.set()
        t.join(timeout=5.0)
        closer.join(timeout=5.0)
        assert results["a"]["item"] == "a"

    def test_close_is_idempotent(self):
        batcher = RequestBatcher(echo_dispatch)
        batcher.close()
        batcher.close()
