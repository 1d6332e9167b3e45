"""Request-scoped tracing: per-request ids, stage timings, trace ring.

Aggregate metrics (histograms, counters) say *that* p99 moved; this
module says *why a particular request was slow*.  Every HTTP request
gets a :class:`RequestContext` carrying a request id (honoring an
inbound ``X-Request-Id`` header, echoed back in the response), a
stage-timing map and the coalescing/lifecycle context it executed
under.  Finished contexts land in a bounded :class:`TraceRing` that the
server exposes at ``/debug/requests`` and, at shutdown, exports to
``requests.jsonl`` for ``repro tail``.

The span-link schema mirrors distributed-tracing practice collapsed
into one process: each *request entry* links to exactly one *batch
entry* (the coalesced dispatch it rode) via ``batch.id``, and each
batch entry lists the request ids it served in ``links``.  Batch
entries carry the engine's per-stage timings (snap / gather / score /
ANN probe) measured once per dispatch — shared by every linked
request, which is exactly how coalescing spends the time.

Stage accounting invariant: for any request entry, the sum of
``stages_ms`` values is <= ``duration_ms`` (wall time).  ``queue_wait``
and ``fanback`` are measured per item by the batcher; the engine stages
happen inside the dispatch window that the request spent blocked on its
slot event; ``validate`` precedes enqueue.  Nothing is double-counted.
"""

from __future__ import annotations

import json
import math
import threading
import time
import uuid
from collections import deque
from pathlib import Path

__all__ = [
    "RequestContext",
    "TraceRing",
    "REQUEST_ID_HEADER",
    "QUEUE_WAIT_HEADER",
    "request_id_from_header",
    "load_request_trace",
    "summarize_tail",
    "render_tail_summary",
]

#: Header carrying the request id, inbound (honored) and outbound (echoed).
REQUEST_ID_HEADER = "X-Request-Id"
#: Response header reporting the request's coalescing queue wait (ms).
QUEUE_WAIT_HEADER = "X-Queue-Wait-Ms"

_MAX_ID_LENGTH = 128


def request_id_from_header(value: str | None) -> str:
    """A usable request id: the inbound header value, or a fresh one.

    Inbound ids are stripped, truncated to 128 characters and must be
    printable ASCII without whitespace (anything else is replaced by a
    generated id, so a hostile header can never corrupt the trace ring
    or the echoed response header).
    """
    if value:
        candidate = value.strip()[:_MAX_ID_LENGTH]
        if candidate and all(33 <= ord(ch) <= 126 for ch in candidate):
            return candidate
    return uuid.uuid4().hex[:16]


def _ms(seconds: float) -> float:
    """Seconds -> milliseconds, rounded to 3 decimals (µs resolution)."""
    return round(seconds * 1e3, 3)


class RequestContext:
    """One in-flight request's trace state, stamped as it moves through
    the handler thread, the batcher queue and the dispatch.

    Handler threads create one per request; the batcher stamps
    ``queue_wait`` / batch identity before dispatch and ``fanback``
    after; the server copies the dispatch's engine-stage timings in via
    :meth:`stage`.  :meth:`finish` freezes the wall-clock duration, and
    :meth:`to_entry` renders the JSON-safe ring entry.
    """

    __slots__ = (
        "request_id",
        "endpoint",
        "started_at",
        "stages",
        "values",
        "batch_id",
        "batch_size",
        "dispatch_seconds",
        "status",
        "error",
        "lifecycle",
        "duration",
        "_t0",
    )

    def __init__(self, request_id: str, endpoint: str) -> None:
        self.request_id = request_id
        self.endpoint = endpoint
        self.started_at = time.time()
        self.stages: dict[str, float] = {}
        self.values: dict[str, float] = {}
        self.batch_id: str | None = None
        self.batch_size = 0
        self.dispatch_seconds = 0.0
        self.status: int | None = None
        self.error: str | None = None
        self.lifecycle: dict | None = None
        self.duration: float | None = None
        self._t0 = time.perf_counter()

    def stage(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` under stage ``name`` (additive)."""
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def note(self, key: str, value: float) -> None:
        """Attach a non-duration observation (e.g. ANN probed fraction)."""
        self.values[key] = value

    def begin_batch(
        self, batch_id: str, size: int, *, queue_wait: float
    ) -> None:
        """Stamp the coalescing link: which dispatch this request rode."""
        self.batch_id = batch_id
        self.batch_size = size
        self.stage("queue_wait", queue_wait)

    @property
    def queue_wait_seconds(self) -> float:
        """Time spent queued in the batcher (0 before dispatch)."""
        return self.stages.get("queue_wait", 0.0)

    def finish(self, status: int, *, error: str | None = None) -> None:
        """Freeze wall time and record the response outcome."""
        self.duration = time.perf_counter() - self._t0
        self.status = status
        self.error = error

    def to_entry(self) -> dict:
        """The JSON-safe ring entry (durations in milliseconds)."""
        entry = {
            "kind": "request",
            "id": self.request_id,
            "endpoint": self.endpoint,
            "ts": self.started_at,
            "status": self.status,
            "duration_ms": _ms(self.duration or 0.0),
            "stages_ms": {
                name: _ms(seconds)
                for name, seconds in sorted(self.stages.items())
            },
            "batch": (
                {
                    "id": self.batch_id,
                    "size": self.batch_size,
                    "dispatch_ms": _ms(self.dispatch_seconds),
                }
                if self.batch_id is not None
                else None
            ),
        }
        if self.values:
            entry["values"] = dict(self.values)
        if self.lifecycle is not None:
            entry["lifecycle"] = dict(self.lifecycle)
        if self.error is not None:
            entry["error"] = self.error
        return entry


class TraceRing:
    """Bounded, lock-protected ring of finished request/batch entries.

    Three deques with independent capacities: ``recent`` requests (the
    main ring), ``errors`` (5xx / transport failures, retained even
    when healthy traffic would evict them) and ``batches`` (dispatch
    spans that request entries link to).  :meth:`snapshot` renders the
    ``/debug/requests`` payload: recent requests, the slowest among
    them, retained errors and recent batches.
    """

    def __init__(
        self,
        capacity: int = 256,
        *,
        error_capacity: int = 64,
        batch_capacity: int = 256,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._recent: deque[dict] = deque(maxlen=self.capacity)
        self._errors: deque[dict] = deque(maxlen=int(error_capacity))
        self._batches: deque[dict] = deque(maxlen=int(batch_capacity))
        self.recorded = 0
        self.recorded_errors = 0
        self.recorded_batches = 0

    def record(self, entry: dict) -> None:
        """Add one finished request entry (errors are double-kept)."""
        status = entry.get("status")
        errored = (
            entry.get("error") is not None
            or status is None
            or int(status) >= 500
        )
        with self._lock:
            self._recent.append(entry)
            self.recorded += 1
            if errored:
                self._errors.append(entry)
                self.recorded_errors += 1

    def record_batch(self, entry: dict) -> None:
        """Add one batch-dispatch entry (the span requests link to)."""
        with self._lock:
            self._batches.append(entry)
            self.recorded_batches += 1

    def entries(self) -> list[dict]:
        """Every retained request entry, oldest first (export surface)."""
        with self._lock:
            return list(self._recent)

    def batch_entries(self) -> list[dict]:
        """Every retained batch entry, oldest first."""
        with self._lock:
            return list(self._batches)

    def snapshot(
        self, *, recent: int = 32, slowest: int = 16, errors: int = 16
    ) -> dict:
        """The ``/debug/requests`` payload.

        ``recent`` / ``errors`` are newest-first; ``slowest`` ranks the
        retained ring by ``duration_ms`` (worst first) so a scrape
        during an incident surfaces the tail immediately.
        """
        with self._lock:
            retained = list(self._recent)
            errored = list(self._errors)
            batches = list(self._batches)
        slow = sorted(
            retained, key=lambda e: e.get("duration_ms", 0.0), reverse=True
        )[:slowest]
        return {
            "recorded": self.recorded,
            "recorded_errors": self.recorded_errors,
            "recorded_batches": self.recorded_batches,
            "recent": list(reversed(retained[-recent:])),
            "slowest": slow,
            "errors": list(reversed(errored[-errors:])),
            "batches": list(reversed(batches[-recent:])),
        }

    def export_jsonl(self, path: str | Path) -> Path:
        """Write retained request then batch entries, one per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for entry in self.entries() + self.batch_entries():
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        return path


def load_request_trace(path: str | Path) -> tuple[list[dict], list[dict]]:
    """Read a :meth:`TraceRing.export_jsonl` file back.

    Returns ``(requests, batches)`` split by each line's ``kind`` field;
    unmarked lines are treated as request entries for forward
    compatibility with hand-built files.
    """
    requests: list[dict] = []
    batches: list[dict] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            if entry.get("kind") == "batch":
                batches.append(entry)
            else:
                requests.append(entry)
    return requests, batches


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(q / 100.0 * len(sorted_values)) - 1
    return sorted_values[max(0, min(rank, len(sorted_values) - 1))]


def summarize_tail(
    requests: list[dict], *, q: float = 99.0, slowest: int = 8
) -> dict:
    """Attribute the latency tail of request-trace entries to stages.

    Computes overall duration percentiles, then isolates the *tail set*
    (the slowest ``100 - q`` percent of requests, at least one) and
    ranks stages by the total time they consumed inside that set —
    "where do the slow requests spend their time", which is the
    question a p99 regression poses.  Returns::

        {
          "n": ..., "p50_ms": ..., "p90_ms": ..., "p99_ms": ...,
          "tail": {"q": 99.0, "threshold_ms": ..., "n": ...},
          "stages": [
            {"stage": "score", "n": ..., "total_ms": ...,
             "mean_ms": ..., "share": 0.41},   # of tail wall time
            ...
          ],
          "slowest": [<request entries, worst first, capped>],
        }

    ``requests`` are ring entries (:meth:`RequestContext.to_entry`
    shape) from ``/debug/requests`` or a ``requests.jsonl`` export.
    """
    durations = sorted(
        float(entry.get("duration_ms", 0.0)) for entry in requests
    )
    ranked_requests = sorted(
        requests,
        key=lambda e: float(e.get("duration_ms", 0.0)),
        reverse=True,
    )
    # The tail set is the worst (100 - q)% of requests (at least one),
    # taken by rank rather than by threshold so a duration that ties
    # the p99 value doesn't sweep the whole distribution in.
    tail_n = (
        max(1, math.ceil(len(requests) * (100.0 - q) / 100.0 - 1e-9))
        if requests
        else 0
    )
    tail = ranked_requests[:tail_n]
    threshold = (
        float(tail[-1].get("duration_ms", 0.0)) if tail else 0.0
    )
    tail_wall = sum(float(e.get("duration_ms", 0.0)) for e in tail)
    stage_rows: dict[str, dict] = {}
    for entry in tail:
        for stage, ms in (entry.get("stages_ms") or {}).items():
            row = stage_rows.setdefault(
                stage, {"stage": stage, "n": 0, "total_ms": 0.0}
            )
            row["n"] += 1
            row["total_ms"] += float(ms)
    for row in stage_rows.values():
        row["total_ms"] = round(row["total_ms"], 3)
        row["mean_ms"] = round(row["total_ms"] / row["n"], 3)
        row["share"] = (
            round(row["total_ms"] / tail_wall, 4) if tail_wall > 0 else 0.0
        )
    ranked = sorted(
        stage_rows.values(), key=lambda r: r["total_ms"], reverse=True
    )
    worst = ranked_requests[: max(0, int(slowest))]
    return {
        "n": len(requests),
        "p50_ms": round(_nearest_rank(durations, 50.0), 3),
        "p90_ms": round(_nearest_rank(durations, 90.0), 3),
        "p99_ms": round(_nearest_rank(durations, 99.0), 3),
        "tail": {
            "q": float(q),
            "threshold_ms": round(threshold, 3),
            "n": len(tail),
        },
        "stages": ranked,
        "slowest": worst,
    }


def render_tail_summary(summary: dict, *, title: str = "tail") -> str:
    """Aligned text rendering of a :func:`summarize_tail` result.

    Two tables: stages ranked by their share of tail wall time, then
    the slowest exemplar requests with their coalescing batch and the
    serving epoch they executed under.
    """
    lines = [
        f"{title}: {summary['n']} requests  "
        f"p50={summary['p50_ms']}ms  p90={summary['p90_ms']}ms  "
        f"p99={summary['p99_ms']}ms",
        f"tail set: {summary['tail']['n']} request(s) >= "
        f"{summary['tail']['threshold_ms']}ms "
        f"(p{summary['tail']['q']:g})",
    ]
    if summary["stages"]:
        width = max(len(row["stage"]) for row in summary["stages"])
        lines.append("stages by tail contribution:")
        for row in summary["stages"]:
            lines.append(
                f"  {row['stage'].ljust(width)}  "
                f"total={row['total_ms']:9.3f}ms  "
                f"mean={row['mean_ms']:8.3f}ms  "
                f"share={row['share'] * 100:5.1f}%  n={row['n']}"
            )
    if summary["slowest"]:
        lines.append("slowest requests:")
        for entry in summary["slowest"]:
            batch = entry.get("batch") or {}
            lifecycle = entry.get("lifecycle") or {}
            top_stage = max(
                (entry.get("stages_ms") or {}).items(),
                key=lambda kv: kv[1],
                default=(None, 0.0),
            )
            detail = (
                f"  {entry.get('id', '?')}  {entry.get('endpoint', '?')}  "
                f"{entry.get('duration_ms', 0.0)}ms  "
                f"status={entry.get('status')}"
            )
            if top_stage[0] is not None:
                detail += f"  top_stage={top_stage[0]}:{top_stage[1]}ms"
            if batch.get("id"):
                detail += f"  batch={batch['id']}(n={batch.get('size')})"
            if "epoch" in lifecycle:
                detail += f"  epoch={lifecycle['epoch']}"
                if lifecycle.get("swap_in_progress"):
                    detail += f"  swapping={lifecycle.get('state')}"
            lines.append(detail)
    return "\n".join(lines)
