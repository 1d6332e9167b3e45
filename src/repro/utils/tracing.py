"""Stage timing and span tracing for the ACTOR pipeline.

Where :mod:`repro.utils.metrics` answers "how often / how long in
aggregate", a trace answers "where did *this* operation spend its time".
A :class:`Tracer` records a forest of :class:`Span` trees: each span has a
name, wall-clock start/duration, free-form attributes and nested children.
Nesting is implicit — entering ``tracer.span(...)`` while another span is
open parents the new span under it, so instrumented call stacks come out
as trees without any plumbing.

Every timed block of the pipeline goes through one primitive,
:class:`stage`: it reads the clock once on entry and once on exit and
hands that one duration to each sink it was given — the histogram
``<name>_seconds`` of a :class:`~repro.utils.metrics.MetricsRegistry`,
the span ``<name>`` of a recording tracer, and, for the leaf stages of a
served request, the calling thread's request-stage sink opened by
:func:`collect_stages`.  So ``/metrics``, span traces and request traces
read the same number for the same stage.  ``Tracer.span`` is a stage
whose only sink is the tracer.

The instrumented modules accept an optional tracer and default to the
shared :data:`NULL_TRACER`, whose ``span()`` returns a cached no-op
context manager — a single attribute lookup and method call, cheap enough
to leave on hot paths unconditionally.

Traces export to JSONL (:meth:`Tracer.export_jsonl`; one root span tree
per line) and load back with :func:`load_trace` for offline analysis —
see ``repro telemetry`` and :mod:`repro.utils.telemetry`.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "stage",
    "collect_stages",
    "note_value",
    "load_trace",
    "walk_spans",
]

# The calling thread's request-stage sink (see collect_stages): a sink is
# per thread, so the batcher's dispatcher never picks up stages that
# another thread (an evaluation run, a warm-up) times meanwhile.
_thread_sinks = threading.local()


class Span:
    """One timed operation: name, start, duration, attributes, children.

    ``start`` is in seconds relative to the owning tracer's creation (so
    spans across a trace share one clock); ``duration`` is ``None`` while
    the span is still open.  ``span_id`` is a tracer-unique identifier
    (``s1``, ``s2``, ...) that structured log records reference to
    correlate logs with traces (see :mod:`repro.utils.logging`); spans
    built by hand may leave it ``None``.
    """

    __slots__ = (
        "name", "start", "duration", "attributes", "children", "span_id"
    )

    def __init__(
        self,
        name: str,
        start: float,
        duration: float | None = None,
        attributes: dict | None = None,
        children: list["Span"] | None = None,
        span_id: str | None = None,
    ) -> None:
        self.name = name
        self.start = start
        self.duration = duration
        self.attributes = attributes if attributes is not None else {}
        self.children = children if children is not None else []
        self.span_id = span_id

    def set(self, **attributes) -> None:
        """Attach (or overwrite) attributes on the span."""
        self.attributes.update(attributes)

    def child_seconds(self) -> float:
        """Summed duration of the direct children (0 for leaves)."""
        return sum(c.duration or 0.0 for c in self.children)

    def self_seconds(self) -> float:
        """Duration not attributed to any child span."""
        return max(0.0, (self.duration or 0.0) - self.child_seconds())

    def to_dict(self) -> dict:
        """JSON-safe nested representation (the JSONL line format)."""
        out = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attributes": self.attributes,
            "children": [c.to_dict() for c in self.children],
        }
        if self.span_id is not None:
            out["span_id"] = self.span_id
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            start=float(data["start"]),
            duration=None if data["duration"] is None else float(data["duration"]),
            attributes=dict(data.get("attributes", {})),
            children=[cls.from_dict(c) for c in data.get("children", [])],
            span_id=data.get("span_id"),
        )

    def __repr__(self) -> str:
        ms = "open" if self.duration is None else f"{self.duration * 1e3:.2f}ms"
        return f"Span({self.name!r}, {ms}, children={len(self.children)})"


class Tracer:
    """Collects span trees; spans nest via a context-manager stack.

    Safe for concurrent use: the active-span stack lives in
    ``threading.local`` storage, so spans opened on one thread nest only
    under spans opened by that *same* thread — interleaved requests on
    independent handler threads each produce their own root tree instead
    of corrupting each other's nesting.  ``roots`` (and
    :meth:`export_jsonl`) merge every thread's finished trees; root
    appends and span-id allocation are lock-protected, while child
    appends stay lock-free (a span's parent is always owned by the
    appending thread).

    Usage::

        tracer = Tracer()
        with tracer.span("stream.partial_fit", records=256) as root:
            with tracer.span("stream.ingest"):
                ...
            root.set(edges=n_edges)
        tracer.export_jsonl("out/trace.jsonl")
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self._next_id = 0

    def __getstate__(self) -> dict:
        """Pickle support: thread-local stacks and the lock are dropped
        (instrumented models may carry their tracer through ``save``)."""
        state = self.__dict__.copy()
        del state["_local"]
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        """Pickle support: fresh thread-local storage and lock on load."""
        self.__dict__.update(state)
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def _stack(self) -> list[Span]:
        """The calling thread's private stack of open spans."""
        try:
            return self._local.stack
        except AttributeError:
            stack: list[Span] = []
            self._local.stack = stack
            return stack

    @property
    def enabled(self) -> bool:
        """True — real tracers record; the :class:`NullTracer` does not."""
        return True

    @property
    def current_span(self) -> Span | None:
        """The calling thread's innermost open span, or ``None``."""
        stack = self._stack
        return stack[-1] if stack else None

    @property
    def current_span_id(self) -> str | None:
        """Id of the innermost open span — what log records attach."""
        span = self.current_span
        return span.span_id if span is not None else None

    def span(self, name: str, **attributes) -> "stage":
        """Open a span; nested calls become children of the innermost open
        span.  The span's duration is stamped on exit (also on exception).

        A :class:`stage` whose only sink is this tracer: ``set()`` on the
        context value attaches attributes to the span.
        """
        return stage(name, tracer=self, **attributes)

    def _open(self, name: str, start: float, attributes: dict) -> Span:
        """Push a span that started at ``perf_counter()`` time ``start``."""
        with self._lock:
            self._next_id += 1
            span_id = f"s{self._next_id}"
        span = Span(
            name, start - self._epoch, None, attributes, span_id=span_id
        )
        stack = self._stack
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span, seconds: float) -> None:
        """Stamp ``span``'s duration and pop it off the calling thread."""
        span.duration = seconds
        self._stack.pop()

    def total_seconds(self, name: str) -> float:
        """Summed duration of every *root* span named ``name``."""
        with self._lock:
            roots = list(self.roots)
        return sum(r.duration or 0.0 for r in roots if r.name == name)

    def export_jsonl(self, path: str | Path) -> Path:
        """Write one JSON object per root span tree (all threads merged,
        in root-open order); returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            roots = list(self.roots)
        with path.open("w", encoding="utf-8") as handle:
            for root in roots:
                handle.write(json.dumps(root.to_dict()) + "\n")
        return path

    def clear(self) -> None:
        """Drop every recorded root span (open spans keep nesting)."""
        with self._lock:
            self.roots.clear()


class NullTracer:
    """No-op tracer: ``span()`` returns a cached no-op context manager.

    Instrumented code holds one of these by default, so tracing costs one
    method call per span site when disabled.
    """

    __slots__ = ()

    @property
    def enabled(self) -> bool:
        """False: spans are discarded."""
        return False

    @property
    def current_span(self) -> None:
        """Always ``None``: a null tracer has no open spans."""
        return None

    @property
    def current_span_id(self) -> None:
        """Always ``None`` — log records stay uncorrelated."""
        return None

    def span(self, name: str, **attributes):
        """A shared no-op context manager yielding a no-op span."""
        return _NULL_CONTEXT

    def export_jsonl(self, path: str | Path) -> Path:
        """Refuse: a null tracer has nothing to export."""
        raise RuntimeError("NullTracer records nothing; use Tracer() to export")


class _NullSpan:
    __slots__ = ()

    def set(self, **attributes) -> None:
        """Discard attributes."""


_NULL_CONTEXT = nullcontext(_NullSpan())
NULL_TRACER = NullTracer()


class stage:
    """Time one block once and hand that duration to every sink.

    The clock is read once on entry and once on exit; the one duration,
    also kept as :attr:`seconds`, goes to

    * the histogram ``<name>_seconds`` of ``metrics``, when given;
    * the span ``<name>`` (with ``attributes``) of ``tracer``, when it
      records;
    * the calling thread's request-stage sink under ``key``, when a key
      is given and the block runs inside :func:`collect_stages`.  Only
      leaf stages take a key, so no request-trace time counts twice.

    All three are written also when the block raises.  Stages nest (a
    stage opened inside another becomes a child span), and the context
    value is the stage itself: :meth:`set` attaches span attributes and
    :attr:`seconds` reads the duration after the block.
    """

    __slots__ = (
        "name", "metrics", "tracer", "key", "attributes", "seconds",
        "_start", "_span",
    )

    def __init__(
        self,
        name: str,
        *,
        metrics=None,
        tracer=None,
        key: str | None = None,
        **attributes,
    ) -> None:
        self.name = name
        self.metrics = metrics
        self.tracer = tracer
        self.key = key
        self.attributes = attributes
        self.seconds = 0.0
        self._span: Span | None = None

    def __enter__(self) -> "stage":
        """Read the start time; open the span when the tracer records."""
        start = self._start = time.perf_counter()
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            self._span = tracer._open(self.name, start, self.attributes)
        return self

    def __exit__(self, *exc_info) -> None:
        """Read the end time once and feed that duration to every sink."""
        seconds = self.seconds = time.perf_counter() - self._start
        if self.metrics is not None:
            self.metrics.histogram(self.name + "_seconds").observe(seconds)
        if self._span is not None:
            self.tracer._close(self._span, seconds)
        if self.key is not None:
            sink = getattr(_thread_sinks, "sink", None)
            if sink is not None:
                sink[self.key] = sink.get(self.key, 0.0) + seconds

    def set(self, **attributes) -> None:
        """Attach (or overwrite) attributes on the span, if one is open."""
        if self._span is not None:
            self._span.attributes.update(attributes)


@contextmanager
def collect_stages() -> Iterator[dict]:
    """Collect the calling thread's keyed stage timings for one dispatch.

    Yields a dict that accumulates ``{"snap": seconds, "gather": ...,
    "score": ...}`` for every keyed :class:`stage` the *calling thread*
    runs inside the block, plus non-duration observations from
    :func:`note_value` under a ``values`` sub-dict (e.g. the ANN probed
    fraction).  The sink is thread-local, so stages timed on other
    threads never land in it.  Nests safely: the previous sink is
    restored on exit.
    """
    sink: dict = {}
    previous = getattr(_thread_sinks, "sink", None)
    _thread_sinks.sink = sink
    try:
        yield sink
    finally:
        _thread_sinks.sink = previous


def note_value(key: str, value: float) -> None:
    """Record a non-duration observation on the calling thread's sink.

    A no-op outside :func:`collect_stages`.
    """
    sink = getattr(_thread_sinks, "sink", None)
    if sink is not None:
        sink.setdefault("values", {})[key] = value


def load_trace(path: str | Path) -> list[Span]:
    """Read a :meth:`Tracer.export_jsonl` file back into span trees."""
    spans: list[Span] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


def walk_spans(spans: list[Span] | Span) -> Iterator[tuple[int, Span]]:
    """Yield ``(depth, span)`` over one or many span trees, pre-order."""
    stack: list[tuple[int, Span]] = [
        (0, s) for s in reversed(spans if isinstance(spans, list) else [spans])
    ]
    while stack:
        depth, span = stack.pop()
        yield depth, span
        for child in reversed(span.children):
            stack.append((depth + 1, child))
