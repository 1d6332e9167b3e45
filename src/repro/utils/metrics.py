"""Lightweight runtime metrics: counters, gauges and histograms.

The streaming subsystem (and, optionally, the offline trainer) records its
operational state — records/sec ingested, buffer occupancy, evictions,
alias-table rebuilds, per-burst SGNS loss — into a
:class:`MetricsRegistry`.  The registry is deliberately dependency-free and
cheap: a metric update is a dict lookup plus a float add, so it can sit on
hot paths without being the thing the profiler finds.

Three metric kinds cover the needs of the codebase:

* :class:`Counter` — monotonically increasing totals (records ingested,
  edges buffered, evictions);
* :class:`Gauge` — last-written values (buffer occupancy, per-burst loss);
* :class:`Histogram` — fixed log-spaced buckets with count, total and
  p50/p90/p99 quantile estimates.  Every duration is a histogram named
  ``<stage>_seconds``, written by :class:`repro.utils.tracing.stage`,
  which times each block once for the histogram, the span and the
  request trace alike.

Registries are plain objects, not process-global state: each
:class:`~repro.core.streaming.OnlineActor` owns one, and callers that want
a shared view pass one in.  ``snapshot()`` returns plain dicts (JSON-safe)
and ``render()`` produces the aligned text table the CLI prints for
``repro stream --metrics``.

Thread-safety: metric *creation* and the reporting accessors
(``counters()`` .. ``histograms()``, ``snapshot()``) synchronize on an
internal lock, so a live scrape thread (see
:mod:`repro.utils.telemetry_server`) can iterate the registry while a
worker thread registers new metrics.  Individual updates (``inc``/``set``/
``observe``) stay lock-free — they are small enough to be effectively
atomic under the GIL, and a scrape observing a histogram mid-``observe``
merely reads a snapshot one sample old.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Last-written value (occupancy, most recent loss, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = float(value)


def default_latency_buckets() -> tuple[float, ...]:
    """The default histogram bounds: 1µs to ~67s, doubling per bucket.

    27 log-spaced upper bounds cover every latency this codebase measures
    (sub-millisecond alias rebuilds up to multi-second training epochs)
    with a worst-case quantile resolution of one octave.
    """
    return tuple(1e-6 * 2.0**i for i in range(27))


class Histogram:
    """Fixed-bucket distribution with quantile estimates.

    Buckets are defined by sorted upper ``bounds`` (Prometheus ``le``
    semantics: bucket ``i`` counts observations ``<= bounds[i]``, with one
    implicit overflow bucket above the last bound).  The default bounds
    are log-spaced latencies (:func:`default_latency_buckets`), so an
    ``observe`` is one ``bisect`` on a 27-tuple plus two float adds —
    cheap enough for per-batch hot paths.

    Quantiles are estimated by linear interpolation inside the containing
    bucket (clamped to the observed min/max), so the error is bounded by
    the bucket width — one octave for the default bounds.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float] | None = None) -> None:
        if bounds is None:
            bounds = default_latency_buckets()
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value: float) -> None:
        """Record one observation (must be >= 0)."""
        if value < 0:
            raise ValueError(f"histogram observations must be >= 0, got {value}")
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean observation (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]); 0 when empty.

        Finds the bucket containing the target rank and interpolates
        linearly between the bucket's bounds, clamped to the observed
        ``[min, max]`` range so estimates never leave the data.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = (
                    self.bounds[i] if i < len(self.bounds) else self.max
                )
                fraction = (target - cumulative) / bucket_count
                estimate = lower + fraction * (upper - lower)
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max

    @property
    def p50(self) -> float:
        """Estimated median."""
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        """Estimated 90th percentile."""
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        """Estimated 99th percentile."""
        return self.quantile(0.99)

    def count_below(self, value: float) -> float:
        """Estimated observations ``<= value`` (possibly fractional).

        Exact at bucket bounds, linearly interpolated inside the
        containing bucket — the same estimate :meth:`quantile` inverts.
        This is what turns a log-spaced latency histogram into the
        good-event count of a threshold SLO (see :mod:`repro.utils.slo`):
        ``count_below(0.25)`` is "requests served in <= 250ms so far".
        """
        if self.count == 0 or value < 0.0:
            return 0.0
        if value >= self.max:
            return float(self.count)
        index = bisect_left(self.bounds, value)
        running = float(sum(self.bucket_counts[:index]))
        lower = self.bounds[index - 1] if index > 0 else 0.0
        upper = self.bounds[index] if index < len(self.bounds) else self.max
        if upper <= lower:
            return running
        fraction = (value - lower) / (upper - lower)
        return running + fraction * self.bucket_counts[index]

    def cumulative_counts(self) -> list[int]:
        """Cumulative count per bound (Prometheus ``le`` buckets),
        excluding the overflow bucket — ``count`` is the ``+Inf`` value."""
        out: list[int] = []
        running = 0
        for bucket_count in self.bucket_counts[:-1]:
            running += bucket_count
            out.append(running)
        return out


class TimerStat:
    """Unpickling stand-in for the timers of older registries.

    Registries pickled before every duration became a histogram (models
    saved by ``repro train --metrics``, cached engines) hold
    ``TimerStat`` objects with ``count`` / ``total`` / ``min`` / ``max``
    slots; :meth:`MetricsRegistry.__setstate__` folds each into the
    histogram ``<name>_seconds``.
    """

    __slots__ = ("count", "total", "min", "max")

    def histogram(self) -> Histogram:
        """The timer as a histogram; every observation lands in the
        bucket of the mean (the timer kept no distribution)."""
        hist = Histogram()
        if self.count:
            mean = self.total / self.count
            hist.bucket_counts[bisect_left(hist.bounds, mean)] = self.count
            hist.count = self.count
            hist.total = self.total
            hist.min = self.min
            hist.max = self.max
        return hist


class MetricsRegistry:
    """Named counters, gauges and histograms, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        """Pickle support: the lock is dropped (models carry registries)."""
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        """Pickle support: a fresh lock is created on load.

        A timer ``X`` of an older pickle becomes the histogram
        ``X_seconds``, unless the registry already holds one (a timer
        and a histogram that timed the same block).
        """
        timers = state.pop("_timers", {})
        self.__dict__.update(state)
        self._lock = threading.Lock()
        for name, timer in timers.items():
            self._histograms.setdefault(f"{name}_seconds", timer.histogram())

    # ------------------------------------------------------------- accessors

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created if absent."""
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created if absent."""
        try:
            return self._gauges[name]
        except KeyError:
            with self._lock:
                return self._gauges.setdefault(name, Gauge())

    def histogram(
        self, name: str, *, bounds: Sequence[float] | None = None
    ) -> Histogram:
        """The histogram called ``name``, created if absent.

        ``bounds`` only applies on creation; later calls return the
        existing histogram unchanged.
        """
        try:
            return self._histograms[name]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(name, Histogram(bounds))

    # -------------------------------------------------------------- reporting

    def counters(self) -> dict[str, Counter]:
        """Name -> :class:`Counter`, sorted by name (export surface)."""
        with self._lock:
            return dict(sorted(self._counters.items()))

    def gauges(self) -> dict[str, Gauge]:
        """Name -> :class:`Gauge`, sorted by name (export surface)."""
        with self._lock:
            return dict(sorted(self._gauges.items()))

    def histograms(self) -> dict[str, Histogram]:
        """Name -> :class:`Histogram`, sorted by name (export surface)."""
        with self._lock:
            return dict(sorted(self._histograms.items()))

    def snapshot(self) -> dict:
        """All metric values as plain (JSON-safe) dicts."""
        return {
            "counters": {k: c.value for k, c in self.counters().items()},
            "gauges": {k: g.value for k, g in self.gauges().items()},
            "histograms": {
                k: {
                    "count": h.count,
                    "total": h.total,
                    "mean": h.mean,
                    "min": h.min if h.count else 0.0,
                    "max": h.max,
                    "p50": h.p50,
                    "p90": h.p90,
                    "p99": h.p99,
                }
                for k, h in self.histograms().items()
            },
        }

    def render(self, *, title: str = "metrics") -> str:
        """Aligned text table of every metric (CLI / bench output).

        Durations (``*_seconds`` histograms) print in milliseconds with
        their total; every other histogram prints in its own unit.
        """
        rows: list[tuple[str, str]] = []
        for name, counter in self.counters().items():
            rows.append((name, f"{counter.value:g}"))
        for name, gauge in self.gauges().items():
            rows.append((name, f"{gauge.value:g}"))
        for name, hist in self.histograms().items():
            quantiles = (hist.p50, hist.p90, hist.p99)
            if name.endswith("_seconds"):
                p50, p90, p99 = (f"{q * 1e3:.2f}ms" for q in quantiles)
                extra = f" total={hist.total * 1e3:.2f}ms"
            else:
                p50, p90, p99 = (f"{q:g}" for q in quantiles)
                extra = ""
            rows.append(
                (name, f"n={hist.count} p50={p50} p90={p90} p99={p99}{extra}")
            )
        if not rows:
            return f"{title}: (empty)"
        width = max(len(name) for name, _ in rows)
        lines = [title, "-" * len(title)]
        lines += [f"{name.ljust(width)}  {value}" for name, value in rows]
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every metric (fresh registry state)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
