"""Shared utilities: seeded randomness, validation, observability."""

from repro.utils.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.utils.logging import NULL_LOGGER, NullLogger, StructuredLogger, read_log
from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.telemetry import (
    read_telemetry,
    render_prometheus,
    render_span_tree,
    render_trace_summary,
    summarize_trace,
    write_telemetry,
)
from repro.utils.telemetry_server import TelemetryServer
from repro.utils.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    collect_stages,
    load_trace,
    note_value,
    stage,
    walk_spans,
)
from repro.utils.validation import (
    check_finite,
    check_positive,
    check_probability,
    check_shape,
)

__all__ = [
    "ensure_rng",
    "spawn_rng",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "stage",
    "collect_stages",
    "note_value",
    "load_trace",
    "walk_spans",
    "StructuredLogger",
    "NullLogger",
    "NULL_LOGGER",
    "read_log",
    "TelemetryServer",
    "render_prometheus",
    "write_telemetry",
    "read_telemetry",
    "summarize_trace",
    "render_trace_summary",
    "render_span_tree",
    "check_finite",
    "check_positive",
    "check_probability",
    "check_shape",
]
