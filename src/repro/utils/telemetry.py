"""Telemetry export: Prometheus text format + JSONL traces on disk.

This module turns the in-process observability state — a
:class:`~repro.utils.metrics.MetricsRegistry` and optionally a
:class:`~repro.utils.tracing.Tracer` — into files a monitoring stack can
consume:

* :func:`render_prometheus` serializes a registry in the Prometheus text
  exposition format (version 0.0.4): counters as ``*_total``, gauges
  verbatim and histograms — every duration among them — as classic
  cumulative ``_bucket{le=...}`` series with ``_sum`` / ``_count``;
* :func:`write_telemetry` dumps a whole telemetry directory —
  ``metrics.prom``, ``trace.jsonl``, ``alerts.jsonl``,
  ``requests.jsonl`` (the serving trace ring) — which is what the CLI's
  ``--telemetry-dir`` flags produce and the ``repro telemetry`` /
  ``repro tail`` subcommands read back;
* :func:`summarize_trace` / :func:`render_trace_summary` aggregate a span
  forest into a per-name latency table for operator eyeballs, and
  :func:`render_span_tree` outlines one tree (``repro telemetry`` prints
  the slowest ``query.batch`` trees with it).

The naming convention: registry names are dotted
(``stream.ingest_seconds``), Prometheus names are the sanitized form under
one namespace (``repro_stream_ingest_seconds``).  Metric names carry their
own unit suffix (``*_seconds``) where the value is a duration, so each
name is exactly one Prometheus family of one type.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.utils.metrics import MetricsRegistry
from repro.utils.tracing import Span, Tracer, load_trace, walk_spans

__all__ = [
    "prometheus_name",
    "render_prometheus",
    "write_telemetry",
    "read_telemetry",
    "summarize_trace",
    "render_trace_summary",
    "render_span_tree",
    "METRICS_FILENAME",
    "TRACE_FILENAME",
    "ALERTS_FILENAME",
    "REQUESTS_FILENAME",
]

METRICS_FILENAME = "metrics.prom"
TRACE_FILENAME = "trace.jsonl"
ALERTS_FILENAME = "alerts.jsonl"
REQUESTS_FILENAME = "requests.jsonl"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(name: str, *, namespace: str = "repro") -> str:
    """Sanitized ``namespace_name`` metric identifier.

    Dots and any other non-``[a-zA-Z0-9_]`` characters become
    underscores; runs collapse, so ``query.rank_batch`` maps to
    ``repro_query_rank_batch``.
    """
    flat = _INVALID_CHARS.sub("_", name)
    flat = re.sub(r"_+", "_", flat).strip("_")
    if not flat:
        raise ValueError(f"metric name {name!r} sanitizes to nothing")
    return f"{namespace}_{flat}" if namespace else flat


def _format_value(value: float) -> str:
    """Prometheus float formatting: integers without the trailing ``.0``."""
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(
    registry: MetricsRegistry, *, namespace: str = "repro"
) -> str:
    """The registry in Prometheus text exposition format (0.0.4).

    Counters gain the conventional ``_total`` suffix, gauges export
    verbatim, and histograms export cumulative ``_bucket`` series with
    ``le`` labels, ending in the mandatory ``le="+Inf"`` bucket, plus
    ``_sum`` / ``_count``.
    """
    lines: list[str] = []
    for name, counter in registry.counters().items():
        metric = prometheus_name(name, namespace=namespace) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(counter.value)}")
    for name, gauge in registry.gauges().items():
        metric = prometheus_name(name, namespace=namespace)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauge.value)}")
    for name, hist in registry.histograms().items():
        metric = prometheus_name(name, namespace=namespace)
        lines.append(f"# TYPE {metric} histogram")
        for bound, cumulative in zip(hist.bounds, hist.cumulative_counts()):
            lines.append(
                f'{metric}_bucket{{le="{_format_value(bound)}"}} '
                f"{cumulative}"
            )
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{metric}_sum {_format_value(hist.total)}")
        lines.append(f"{metric}_count {hist.count}")
    return "\n".join(lines) + "\n" if lines else ""


def _write_jsonl(path: Path, entries: list[dict]) -> Path:
    """Write ``entries`` as one JSON object per line; returns ``path``."""
    with path.open("w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry) + "\n")
    return path


def write_telemetry(
    directory: str | Path,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    *,
    alerts: list[dict] | None = None,
    requests: list[dict] | None = None,
    namespace: str = "repro",
) -> dict[str, Path]:
    """Dump a telemetry directory; returns the paths actually written.

    Writes ``metrics.prom`` when a registry is given, ``trace.jsonl``
    when a (real, recording) tracer is given, ``alerts.jsonl`` when a
    non-empty drift-alert list is given, and ``requests.jsonl`` when a
    non-empty request-trace list (ring entries from
    :class:`~repro.serving.reqtrace.TraceRing`) is given.  The directory
    is created as needed; existing files are overwritten — and files for
    sections *absent from this call* are deleted, so one directory
    always tracks exactly the latest run (a run without drift alerts
    must not leave a previous run's ``alerts.jsonl`` behind).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    if registry is not None:
        path = directory / METRICS_FILENAME
        path.write_text(
            render_prometheus(registry, namespace=namespace), encoding="utf-8"
        )
        written["metrics"] = path
    else:
        (directory / METRICS_FILENAME).unlink(missing_ok=True)
    if tracer is not None and getattr(tracer, "enabled", False):
        written["trace"] = tracer.export_jsonl(directory / TRACE_FILENAME)
    else:
        (directory / TRACE_FILENAME).unlink(missing_ok=True)
    if alerts:
        written["alerts"] = _write_jsonl(directory / ALERTS_FILENAME, alerts)
    else:
        (directory / ALERTS_FILENAME).unlink(missing_ok=True)
    if requests:
        written["requests"] = _write_jsonl(
            directory / REQUESTS_FILENAME, requests
        )
    else:
        (directory / REQUESTS_FILENAME).unlink(missing_ok=True)
    return written


def _read_jsonl(path: Path) -> list[dict]:
    """Read a JSONL file into a list of dicts (empty when absent)."""
    if not path.exists():
        return []
    entries: list[dict] = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def read_telemetry(directory: str | Path) -> dict:
    """Load whatever a telemetry directory contains.

    Returns a dict with ``metrics_text`` (raw Prometheus text or None),
    ``spans`` (list of root :class:`Span` trees), ``alerts`` and
    ``requests`` (lists of dicts); missing files yield empty values
    rather than errors, so partially populated directories (e.g. train
    runs, which have no drift alerts) read cleanly.
    """
    directory = Path(directory)
    metrics_path = directory / METRICS_FILENAME
    trace_path = directory / TRACE_FILENAME
    metrics_text = (
        metrics_path.read_text(encoding="utf-8")
        if metrics_path.exists()
        else None
    )
    spans = load_trace(trace_path) if trace_path.exists() else []
    return {
        "metrics_text": metrics_text,
        "spans": spans,
        "alerts": _read_jsonl(directory / ALERTS_FILENAME),
        "requests": _read_jsonl(directory / REQUESTS_FILENAME),
    }


def summarize_trace(spans: list[Span]) -> dict[str, dict]:
    """Aggregate a span forest into per-name latency statistics.

    Returns ``name -> {count, total, mean, max}`` over *every* span in
    every tree (roots and descendants alike), sorted by total descending
    — the "where did the time go" table.
    """
    stats: dict[str, dict] = {}
    for _depth, span in walk_spans(spans):
        if span.duration is None:
            continue
        row = stats.setdefault(
            span.name, {"count": 0, "total": 0.0, "max": 0.0}
        )
        row["count"] += 1
        row["total"] += span.duration
        row["max"] = max(row["max"], span.duration)
    for row in stats.values():
        row["mean"] = row["total"] / row["count"]
    return dict(
        sorted(stats.items(), key=lambda kv: kv[1]["total"], reverse=True)
    )


def render_trace_summary(spans: list[Span], *, title: str = "spans") -> str:
    """Aligned text table of :func:`summarize_trace` output."""
    stats = summarize_trace(spans)
    if not stats:
        return f"{title}: (empty)"
    width = max(len(name) for name in stats)
    lines = [title, "-" * len(title)]
    for name, row in stats.items():
        lines.append(
            f"{name.ljust(width)}  n={row['count']:<6d} "
            f"total={row['total']:8.3f}s  mean={row['mean'] * 1e3:8.2f}ms  "
            f"max={row['max'] * 1e3:8.2f}ms"
        )
    return "\n".join(lines)


def render_span_tree(span: Span, *, max_depth: int = 6) -> str:
    """One span tree as an indented text outline (durations in ms)."""
    lines: list[str] = []
    for depth, node in walk_spans(span):
        if depth > max_depth:
            continue
        ms = (
            "open"
            if node.duration is None
            else f"{node.duration * 1e3:.2f}ms"
        )
        attrs = (
            " " + json.dumps(node.attributes, sort_keys=True)
            if node.attributes
            else ""
        )
        lines.append(f"{'  ' * depth}{node.name}  {ms}{attrs}")
    return "\n".join(lines)
