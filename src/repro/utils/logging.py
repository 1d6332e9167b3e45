"""Structured JSONL logging with trace correlation and hot-loop dedup.

Operational events — a rejected request, a drift alarm, a buffer hitting
capacity — need to land somewhere greppable *and* joinable against the
other telemetry.  :class:`StructuredLogger` writes one JSON object per
line with three guarantees:

* **trace correlation** — when constructed with a
  :class:`~repro.utils.tracing.Tracer`, every record carries the id of the
  innermost open span (``"span": "s17"``), so a log line found in
  ``events.jsonl`` can be joined against the exact ``trace.jsonl`` subtree
  that produced it;
* **rate-limited dedup** — warnings fired from hot loops (one per batch,
  thousands per run) collapse: after the first emission of a
  ``(level, event)`` pair, repeats inside ``rate_limit_seconds`` are
  counted but not written, and the next emitted record reports how many
  were ``"suppressed"``.  Errors are never suppressed;
* **thread safety** — a single lock serializes emission, so the streaming
  thread and a telemetry-server thread can share one logger.

Records are JSON-safe dicts: ``{"ts", "level", "event", "span", ...}``
plus the caller's fields.  The logger keeps a bounded in-memory tail
(:attr:`StructuredLogger.recent`) for the ``/varz`` endpoint and tests,
and optionally appends to a file.  The shared :data:`NULL_LOGGER` is the
no-op default instrumented code holds, mirroring
:data:`~repro.utils.tracing.NULL_TRACER`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import IO

__all__ = ["StructuredLogger", "NullLogger", "NULL_LOGGER", "read_log"]

LEVELS = ("debug", "info", "warning", "error")


class StructuredLogger:
    """JSONL event logger with span correlation and per-event dedup.

    Parameters
    ----------
    path:
        Optional file to append records to (created with parents; one JSON
        object per line).
    stream:
        Optional open text stream to write to instead of / in addition to
        ``path`` (e.g. ``sys.stderr`` for a foreground deployment).
    tracer:
        Optional :class:`~repro.utils.tracing.Tracer`; each record then
        carries the currently open span's id under ``"span"``.
    rate_limit_seconds:
        Dedup window for warnings: repeats of the same ``(level, event)``
        inside the window are suppressed and counted.  ``0`` disables
        dedup entirely.
    recent_size:
        How many records the in-memory :attr:`recent` tail retains.
    clock:
        Wall-clock source (seconds since epoch); injectable for tests.
    """

    def __init__(
        self,
        *,
        path: str | Path | None = None,
        stream: IO[str] | None = None,
        tracer=None,
        rate_limit_seconds: float = 30.0,
        recent_size: int = 256,
        clock=time.time,
    ) -> None:
        if rate_limit_seconds < 0:
            raise ValueError(
                f"rate_limit_seconds must be >= 0, got {rate_limit_seconds}"
            )
        self.tracer = tracer
        self.rate_limit_seconds = float(rate_limit_seconds)
        self.recent: deque[dict] = deque(maxlen=int(recent_size))
        self._clock = clock
        self._stream = stream
        self._handle: IO[str] | None = None
        self._path = Path(path) if path is not None else None
        if self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self._path.open("a", encoding="utf-8")
        self._lock = threading.Lock()
        # (level, event) -> [last emitted monotonic time, suppressed count]
        self._dedup: dict[tuple[str, str], list] = {}
        self.emitted = 0
        self.suppressed = 0

    # ---------------------------------------------------------------- emit

    def log(
        self, level: str, event: str, *, dedup: bool | None = None, **fields
    ) -> dict | None:
        """Emit one record; returns it, or ``None`` when suppressed.

        ``dedup`` controls rate limiting for this call: the default
        (``None``) applies it to ``warning`` records only — the hot-loop
        case — while ``debug``/``info`` flow freely and ``error`` is never
        suppressed regardless of the flag.
        """
        if level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
        if dedup is None:
            dedup = level == "warning"
        if level == "error":
            dedup = False
        with self._lock:
            suppressed_count = 0
            if dedup and self.rate_limit_seconds > 0:
                key = (level, event)
                now = time.monotonic()
                entry = self._dedup.get(key)
                if (
                    entry is not None
                    and now - entry[0] < self.rate_limit_seconds
                ):
                    entry[1] += 1
                    self.suppressed += 1
                    return None
                if entry is not None:
                    suppressed_count = entry[1]
                self._dedup[key] = [now, 0]
            record = {"ts": float(self._clock()), "level": level, "event": event}
            if self.tracer is not None:
                record["span"] = self.tracer.current_span_id
            if suppressed_count:
                record["suppressed"] = suppressed_count
            record.update(fields)
            self._write_record(record)
            return record

    def _write_record(self, record: dict) -> None:
        """Append one record to the tail and sinks (caller holds the lock)."""
        self.recent.append(record)
        self.emitted += 1
        line = json.dumps(record)
        if self._handle is not None:
            self._handle.write(line + "\n")
            self._handle.flush()
        if self._stream is not None:
            self._stream.write(line + "\n")

    def debug(self, event: str, **fields) -> dict | None:
        """Emit a ``debug`` record (never deduped by default)."""
        return self.log("debug", event, **fields)

    def info(self, event: str, **fields) -> dict | None:
        """Emit an ``info`` record (never deduped by default)."""
        return self.log("info", event, **fields)

    def warning(self, event: str, **fields) -> dict | None:
        """Emit a ``warning`` record (rate-limited dedup by default)."""
        return self.log("warning", event, **fields)

    def error(self, event: str, **fields) -> dict | None:
        """Emit an ``error`` record (never suppressed)."""
        return self.log("error", event, **fields)

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Flush pending suppressed tallies, then close the owned handle.

        Dedup normally attaches the suppressed count of a ``(level,
        event)`` key to that event's *next* emission — a count still
        pending when the run ends would silently vanish.  Close therefore
        writes one final summary record per key with a nonzero pending
        count (``"suppressed_flush": true``) before releasing the file
        handle, and zeroes the per-key tallies so a second :meth:`close`
        (the method stays idempotent) flushes nothing twice.
        :attr:`suppressed` keeps counting every record that was actually
        suppressed; the flush reports those counts, it does not undo them.
        """
        with self._lock:
            for (level, event), entry in self._dedup.items():
                if not entry[1]:
                    continue
                record = {
                    "ts": float(self._clock()),
                    "level": level,
                    "event": event,
                }
                if self.tracer is not None:
                    record["span"] = self.tracer.current_span_id
                record["suppressed"] = entry[1]
                record["suppressed_flush"] = True
                entry[1] = 0
                self._write_record(record)
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "StructuredLogger":
        """Context-manager entry: the logger itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the owned file handle."""
        self.close()


class NullLogger:
    """No-op logger: every method discards its record and returns ``None``.

    Instrumented code holds this by default so a log call on a hot path
    costs one method dispatch when logging is off.
    """

    __slots__ = ()

    def log(self, level: str, event: str, *, dedup=None, **fields) -> None:
        """Discard the record."""

    def debug(self, event: str, **fields) -> None:
        """Discard the record."""

    def info(self, event: str, **fields) -> None:
        """Discard the record."""

    def warning(self, event: str, **fields) -> None:
        """Discard the record."""

    def error(self, event: str, **fields) -> None:
        """Discard the record."""

    def close(self) -> None:
        """Nothing to close."""


NULL_LOGGER = NullLogger()


def read_log(path: str | Path) -> list[dict]:
    """Load a JSONL log file back into a list of record dicts."""
    records: list[dict] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
