"""Tests for the runtime metrics registry (counters / gauges / histograms)."""

import json
import pickle

import pytest

from repro.utils.metrics import Counter, Gauge, MetricsRegistry
from repro.utils.tracing import stage

# A registry pickled before durations became histograms, as a model saved
# by ``repro train --metrics`` carries it: made with ``r =
# MetricsRegistry()``, ``r.timer("fit.train").observe(0.5)``,
# ``r.timer("train.epoch").observe(0.25)``,
# ``r.histogram("train.epoch_seconds").observe(0.25)`` and
# ``pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL)``.
OLD_TIMER_REGISTRY_PICKLE = (
    b"\x80\x05\x95\xad\x02\x00\x00\x00\x00\x00\x00\x8c\x13repro.ut"
    b"ils.metrics\x94\x8c\x0fMetricsRegistry\x94\x93\x94)\x81\x94}"
    b"\x94(\x8c\t_counters\x94}\x94\x8c\x07_gauges\x94}"
    b"\x94\x8c\x07_timers\x94}\x94(\x8c\tfit.train\x94h\x00\x8c\tT"
    b"imerStat\x94\x93\x94)\x81\x94N}\x94(\x8c\x05count\x94K"
    b"\x01\x8c\x05total\x94G?\xe0\x00\x00\x00\x00\x00\x00\x8c\x03m"
    b"in\x94G?\xe0\x00\x00\x00\x00\x00\x00\x8c\x03max\x94G?"
    b"\xe0\x00\x00\x00\x00\x00\x00u\x86\x94b\x8c\x0btrain.epoch"
    b"\x94h\r)\x81\x94N}\x94(h\x10K\x01h\x11G?"
    b"\xd0\x00\x00\x00\x00\x00\x00h\x12G?"
    b"\xd0\x00\x00\x00\x00\x00\x00h\x13G?"
    b"\xd0\x00\x00\x00\x00\x00\x00u\x86\x94bu\x8c\x0b_histograms"
    b"\x94}\x94\x8c\x13train.epoch_seconds\x94h\x00\x8c\tHistogram"
    b"\x94\x93\x94)\x81\x94N}\x94(\x8c\x06bounds\x94(G>"
    b"\xb0\xc6\xf7\xa0\xb5\xed\x8dG>\xc0\xc6\xf7\xa0\xb5\xed\x8dG>"
    b"\xd0\xc6\xf7\xa0\xb5\xed\x8dG>\xe0\xc6\xf7\xa0\xb5\xed\x8dG>"
    b"\xf0\xc6\xf7\xa0\xb5\xed\x8dG?\x00\xc6\xf7\xa0\xb5\xed\x8dG?"
    b"\x10\xc6\xf7\xa0\xb5\xed\x8dG? \xc6\xf7\xa0\xb5\xed\x8dG?0"
    b"\xc6\xf7\xa0\xb5\xed\x8dG?@\xc6\xf7\xa0\xb5\xed\x8dG?P"
    b"\xc6\xf7\xa0\xb5\xed\x8dG?`\xc6\xf7\xa0\xb5\xed\x8dG?p"
    b"\xc6\xf7\xa0\xb5\xed\x8dG?\x80\xc6\xf7\xa0\xb5\xed\x8dG?"
    b"\x90\xc6\xf7\xa0\xb5\xed\x8dG?\xa0\xc6\xf7\xa0\xb5\xed\x8dG?"
    b"\xb0\xc6\xf7\xa0\xb5\xed\x8dG?\xc0\xc6\xf7\xa0\xb5\xed\x8dG?"
    b"\xd0\xc6\xf7\xa0\xb5\xed\x8dG?\xe0\xc6\xf7\xa0\xb5\xed\x8dG?"
    b"\xf0\xc6\xf7\xa0\xb5\xed\x8dG@\x00\xc6\xf7\xa0\xb5\xed\x8dG@"
    b"\x10\xc6\xf7\xa0\xb5\xed\x8dG@ \xc6\xf7\xa0\xb5\xed\x8dG@0"
    b"\xc6\xf7\xa0\xb5\xed\x8dG@@\xc6\xf7\xa0\xb5\xed\x8dG@P"
    b"\xc6\xf7\xa0\xb5\xed\x8dt\x94\x8c\rbucket_counts\x94]\x94(K"
    b"\x00K\x00K\x00K\x00K\x00K\x00K\x00K\x00K\x00K\x00K\x00K\x00K"
    b"\x00K\x00K\x00K\x00K\x00K\x00K\x01K\x00K\x00K\x00K\x00K\x00K"
    b"\x00K\x00K\x00K\x00eh\x10K\x01h\x11G?"
    b"\xd0\x00\x00\x00\x00\x00\x00h\x12G?"
    b"\xd0\x00\x00\x00\x00\x00\x00h\x13G?"
    b"\xd0\x00\x00\x00\x00\x00\x00u\x86\x94bsub."
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0.0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError, match=">= 0"):
            Counter().inc(-1)


class TestGauge:
    def test_keeps_last_value(self):
        gauge = Gauge()
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_time_context_manager_records(self):
        registry = MetricsRegistry()
        with stage("block", metrics=registry) as timed:
            pass
        hist = registry.histogram("block_seconds")
        assert hist.count == 1
        assert hist.total == timed.seconds >= 0.0

    def test_time_records_even_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with stage("block", metrics=registry):
                raise RuntimeError("boom")
        assert registry.histogram("block_seconds").count == 1

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("records").inc(10)
        registry.gauge("occupancy").set(0.5)
        with stage("step", metrics=registry):
            pass
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["counters"]["records"] == 10
        assert snapshot["gauges"]["occupancy"] == 0.5
        assert snapshot["histograms"]["step_seconds"]["count"] == 1

    def test_render_lists_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("records").inc(3)
        registry.gauge("loss").set(1.25)
        with stage("fit", metrics=registry):
            pass
        table = registry.render(title="demo")
        assert "demo" in table
        assert "records" in table
        assert "loss" in table
        assert "fit_seconds" in table

    def test_render_keeps_each_histogram_in_its_unit(self):
        registry = MetricsRegistry()
        batch = registry.histogram("serve.batch_size", bounds=(1, 2, 4, 8))
        for _ in range(3):
            batch.observe(3)
        registry.histogram("buffer.occupancy_ratio").observe(0.017)
        fit = registry.histogram("fit.train_seconds")
        fit.observe(0.25)
        fit.observe(0.5)
        rows = {
            line.split()[0]: line.split()[1:]
            for line in registry.render().splitlines()[2:]
        }
        assert rows["serve.batch_size"] == ["n=3", "p50=3", "p90=3", "p99=3"]
        assert rows["buffer.occupancy_ratio"] == [
            "n=1", "p50=0.017", "p90=0.017", "p99=0.017",
        ]
        assert rows["fit.train_seconds"][0] == "n=2"
        assert rows["fit.train_seconds"][-1] == "total=750.00ms"
        assert all(
            value.endswith("ms") for value in rows["fit.train_seconds"][1:]
        )

    def test_render_empty(self):
        assert "(empty)" in MetricsRegistry().render()

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.histogram("y").observe(0.5)
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert registry.counter("x").value == 0.0

    def test_pickle_round_trip_recreates_lock(self):
        """Models carry registries; pickling must survive the lock."""
        registry = MetricsRegistry()
        registry.counter("stream.records").inc(9)
        registry.gauge("buffer.occupancy").set(0.5)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.counter("stream.records").value == 9
        assert clone.gauge("buffer.occupancy").value == 0.5
        # The restored registry is fully functional (lock recreated).
        clone.counter("new").inc()
        assert clone.render()

    def test_old_pickled_timers_load_as_histograms(self):
        registry = pickle.loads(OLD_TIMER_REGISTRY_PICKLE)
        hist = registry.histogram("fit.train_seconds")
        assert hist.count == 1
        assert hist.total == 0.5
        assert hist.min == hist.max == hist.p50 == 0.5
        assert "_timers" not in vars(registry)
        # The timer and the histogram that timed one block fold into the
        # histogram alone: it already holds every observation.
        assert registry.histogram("train.epoch_seconds").count == 1
        assert sorted(registry.histograms()) == [
            "fit.train_seconds", "train.epoch_seconds",
        ]
        # A loaded registry keeps recording.
        with stage("fit.train", metrics=registry):
            pass
        assert registry.histogram("fit.train_seconds").count == 2

    def test_concurrent_creation_is_safe(self):
        import threading

        registry = MetricsRegistry()
        errors = []

        def hammer(start):
            try:
                for i in range(200):
                    registry.counter(f"c{(start + i) % 40}").inc()
                    registry.histogram(f"h{(start + i) % 40}").observe(0.1)
                    registry.snapshot()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i * 7,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert registry.counter("c0").value > 0
