"""In-memory span recording around a program's public calls.

The benchmark never edits the program: a traced run replaces chosen
functions and methods with wrappers that record one span per call —
name, start, end, parent, thread, request id and the thread's minor page
faults — and puts the originals back afterwards.  Spans stay in memory
and are written out once, when the run ends.

A span's *self time* is its duration minus the part of its interval
that its children cover.  Children may run on other threads (a
scatter-gather pool) and overlap each other, so the covered part is the
union of the children's intervals, clipped to the parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import resource
import threading
import time
from collections import defaultdict
from pathlib import Path

_RUSAGE_THREAD = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)


#: Span slots allocated up front.  A list that grew while the program
#: runs would keep reallocating at the top of the C heap and stop the
#: allocator from returning freed memory, hiding the page faults the
#: program takes untraced.
_CAPACITY = 1 << 21


def thread_faults() -> int:
    """Minor page faults of the calling thread so far."""
    return resource.getrusage(_RUSAGE_THREAD).ru_minflt


class Span:
    """One recorded call."""

    __slots__ = ("span_id", "name", "start", "end", "parent", "thread",
                 "request_id", "faults", "attrs")

    def __init__(self, span_id, name, start, parent, thread, request_id,
                 attrs=None):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.request_id = request_id
        self.faults = 0
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        """Wall seconds from open to close."""
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON form (see :meth:`from_dict`)."""
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Inverse of :meth:`to_dict`."""
        span = cls(data["span_id"], data["name"], data["start"],
                   data["parent"], data["thread"], data["request_id"],
                   data["attrs"])
        span.end = data["end"]
        span.faults = data["faults"]
        return span


class Recorder:
    """Records spans from wrapped callables; ``enabled`` toggles at run time.

    Each thread keeps a stack of open span ids, so a call made inside
    another wrapped call becomes its child.  :meth:`bind` carries the
    caller's open span into work handed to another thread.
    """

    def __init__(self) -> None:
        self._slots: list = [None] * _CAPACITY
        self._next_slot = itertools.count()
        self.enabled = True
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, name: str, *, request_id=None, attrs=None) -> Span:
        """Start a span as a child of the thread's innermost open span."""
        stack = self._stack()
        parent, parent_rid = stack[-1] if stack else (None, None)
        span = Span(next(self._ids), name, 0.0, parent,
                    threading.get_ident(),
                    request_id if request_id is not None else parent_rid,
                    attrs)
        stack.append((span.span_id, span.request_id))
        span.faults = thread_faults()
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        """Stamp the span's end and fault delta and keep it."""
        span.end = time.perf_counter()
        span.faults = thread_faults() - span.faults
        self._stack().pop()
        slot = next(self._next_slot)
        if slot < _CAPACITY:
            self._slots[slot] = span

    @property
    def spans(self) -> list[Span]:
        """Every closed span, in closing order (up to the slot capacity)."""
        return [s for s in self._slots[:_CAPACITY] if s is not None]

    def bind(self, fn):
        """``fn`` wrapped to run, on any thread, under the caller's span."""
        stack = self._stack()
        if not stack:
            return fn
        top = stack[-1]

        @functools.wraps(fn)
        def bound(*args, **kwargs):
            worker = self._stack()
            worker.append(top)
            try:
                return fn(*args, **kwargs)
            finally:
                worker.pop()

        return bound

    # ------------------------------------------------------------- patching

    def wrap(self, owner, attr: str, name, *, request_id=None, attrs=None,
             note=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` is the span name or a callable of the call's arguments
        returning it; ``request_id`` / ``attrs`` are optional callables
        of the arguments; ``note(span, result)`` may add attributes from
        the result.  :meth:`restore` puts every original back.
        """
        own = attr in vars(owner)
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            span = recorder.open(
                name(*args, **kwargs) if callable(name) else name,
                request_id=request_id(*args) if request_id else None,
                attrs=attrs(*args, **kwargs) if attrs else None,
            )
            try:
                result = original(*args, **kwargs)
                if note is not None:
                    note(span, result)
                return result
            finally:
                recorder.close(span)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------ transport

    def dump(self, path: Path) -> None:
        """Write every recorded span as JSON lines."""
        with Path(path).open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def load_spans(path: Path) -> list[Span]:
    """Read spans written by :meth:`Recorder.dump`."""
    with Path(path).open(encoding="utf-8") as fh:
        return [Span.from_dict(json.loads(line)) for line in fh
                if line.strip()]


# ------------------------------------------------------------------ analysis


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans) -> dict:
    """Parent span id -> list of child spans."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def self_times(spans) -> dict:
    """Span id -> (self seconds, self minor faults).

    Self faults subtract only children on the span's own thread, since
    fault counters are per thread.
    """
    kids = children_of(spans)
    out = {}
    for span in spans:
        mine = kids.get(span.span_id, ())
        cover = covered([(c.start, c.end) for c in mine], span.start,
                        span.end)
        faults = span.faults - sum(c.faults for c in mine
                                   if c.thread == span.thread)
        out[span.span_id] = (span.duration - cover, faults)
    return out


def within(spans, lo: float, hi: float) -> list[Span]:
    """Spans that started inside ``[lo, hi]``."""
    return [s for s in spans if lo <= s.start <= hi]
