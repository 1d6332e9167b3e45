"""Tests for the Prometheus/trace telemetry exporter."""

from pathlib import Path

import pytest

from repro.utils.metrics import MetricsRegistry
from repro.utils.telemetry import (
    ALERTS_FILENAME,
    METRICS_FILENAME,
    REQUESTS_FILENAME,
    TRACE_FILENAME,
    prometheus_name,
    read_telemetry,
    render_prometheus,
    render_span_tree,
    render_trace_summary,
    summarize_trace,
    write_telemetry,
)
from repro.utils.tracing import NULL_TRACER, Tracer

GOLDEN = Path(__file__).parent / "data" / "golden_metrics.prom"


def _golden_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("query.queries").inc(3)
    registry.gauge("buffer.occupancy").set(0.25)
    hist = registry.histogram("query.batch_seconds", bounds=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 20.0):
        hist.observe(value)
    return registry


class TestNaming:
    def test_dots_become_underscores(self):
        assert prometheus_name("query.rank_batch") == "repro_query_rank_batch"

    def test_invalid_chars_collapse(self):
        assert prometheus_name("a..b--c") == "repro_a_b_c"

    def test_custom_and_empty_namespace(self):
        assert prometheus_name("x", namespace="app") == "app_x"
        assert prometheus_name("x", namespace="") == "x"

    def test_degenerate_name_rejected(self):
        with pytest.raises(ValueError, match="sanitizes to nothing"):
            prometheus_name("...")


class TestPrometheusFormat:
    def test_matches_golden_file_line_for_line(self):
        rendered = render_prometheus(_golden_registry()).splitlines()
        golden = GOLDEN.read_text(encoding="utf-8").splitlines()
        assert rendered == golden

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_histogram_buckets_are_cumulative_and_end_in_inf(self):
        text = render_prometheus(_golden_registry())
        bucket_lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_query_batch_seconds_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)
        assert 'le="+Inf"' in bucket_lines[-1]
        # The +Inf bucket equals the histogram count by construction.
        assert counts[-1] == 4


class TestWriteRead:
    def test_round_trip_with_trace(self, tmp_path):
        tracer = Tracer()
        with tracer.span("op", n=2):
            with tracer.span("child"):
                pass
        written = write_telemetry(tmp_path, _golden_registry(), tracer)
        assert set(written) == {"metrics", "trace"}
        assert written["metrics"].name == METRICS_FILENAME
        assert written["trace"].name == TRACE_FILENAME

        dump = read_telemetry(tmp_path)
        assert dump["metrics_text"] == GOLDEN.read_text(encoding="utf-8")
        assert [s.name for s in dump["spans"]] == ["op"]
        assert dump["spans"][0].children[0].name == "child"

    def test_null_tracer_writes_no_trace(self, tmp_path):
        written = write_telemetry(tmp_path, _golden_registry(), NULL_TRACER)
        assert set(written) == {"metrics"}
        assert not (tmp_path / TRACE_FILENAME).exists()

    def test_alerts_round_trip(self, tmp_path):
        alerts = [
            {"batch": 7, "kind": "spatial_psi", "value": 0.4},
            {"batch": 9, "kind": "probe_mrr", "value": 0.1},
        ]
        written = write_telemetry(
            tmp_path, _golden_registry(), alerts=alerts
        )
        assert written["alerts"].name == ALERTS_FILENAME
        assert read_telemetry(tmp_path)["alerts"] == alerts

    def test_requests_round_trip(self, tmp_path):
        requests = [
            {"kind": "request", "id": "r1", "duration_ms": 3.5},
            {"kind": "batch", "id": "b1", "links": ["r1"]},
        ]
        written = write_telemetry(
            tmp_path, _golden_registry(), requests=requests
        )
        assert written["requests"].name == REQUESTS_FILENAME
        assert read_telemetry(tmp_path)["requests"] == requests

    def test_rewrite_deletes_stale_sections(self, tmp_path):
        # Run 1: everything present.
        tracer = Tracer()
        with tracer.span("op"):
            pass
        write_telemetry(
            tmp_path,
            _golden_registry(),
            tracer,
            alerts=[{"kind": "spatial_psi"}],
            requests=[{"kind": "request", "id": "r1"}],
        )
        # Run 2 into the same directory: clean run, no alerts, no
        # tracer.  The stale files must not survive — an operator
        # reading the directory would attribute the previous run's
        # alerts and spans to this one.
        written = write_telemetry(tmp_path, _golden_registry())
        assert set(written) == {"metrics"}
        dump = read_telemetry(tmp_path)
        assert dump["alerts"] == []
        assert dump["spans"] == []
        assert dump["requests"] == []
        assert not (tmp_path / ALERTS_FILENAME).exists()
        assert not (tmp_path / TRACE_FILENAME).exists()
        assert not (tmp_path / REQUESTS_FILENAME).exists()

    def test_reading_an_empty_directory_is_tolerant(self, tmp_path):
        dump = read_telemetry(tmp_path)
        assert dump == {
            "metrics_text": None,
            "spans": [],
            "alerts": [],
            "requests": [],
        }


class TestTraceSummaries:
    def _trace(self) -> Tracer:
        tracer = Tracer()
        for _ in range(2):
            with tracer.span("batch"):
                with tracer.span("score"):
                    pass
        return tracer

    def test_summarize_counts_every_span(self):
        stats = summarize_trace(self._trace().roots)
        assert stats["batch"]["count"] == 2
        assert stats["score"]["count"] == 2
        assert stats["batch"]["mean"] == pytest.approx(
            stats["batch"]["total"] / 2
        )
        # Sorted by total descending: parents dominate children.
        assert list(stats)[0] == "batch"

    def test_render_trace_summary_and_tree(self):
        tracer = self._trace()
        summary = render_trace_summary(tracer.roots)
        assert "batch" in summary and "score" in summary
        tree = render_span_tree(tracer.roots[0])
        assert tree.splitlines()[0].startswith("batch")
        assert tree.splitlines()[1].startswith("  score")

    def test_render_empty_summary(self):
        assert "empty" in render_trace_summary([])
