"""Online model-quality drift watchdog for the streaming path.

For an online embedding model the thing that silently rots is the *model
itself*: as :class:`~repro.core.streaming.OnlineActor` evicts records and
rebuilds alias tables, embedding quality can drift with no operational
signal until the next offline evaluation.  CrossMap (the paper's online
predecessor) frames exactly this life-cycle problem — keeping embeddings
fresh as the record distribution shifts — and production embedding systems
pair serving metrics with *continuous quality probes*.

:class:`DriftWatchdog` hooks into every
:meth:`~repro.core.streaming.OnlineActor.partial_fit` call and watches
four independent signals:

1. **Probe MRR** — a frozen held-out probe query set is scored through the
   batched :class:`~repro.core.query_engine.QueryEngine` every
   ``probe_every`` batches; the rolling probe MRR (gauge
   ``drift.probe_mrr``) alarming when it falls more than ``mrr_drop``
   (relative) below the first measurement.  This is the direct
   model-quality signal — the others are cheap proxies that fire earlier.
2. **Embedding-norm distributions** — per modality (time / location /
   word), the mean L2 row norm per batch feeds a histogram
   (``drift.norm.<modality>``) and an EWMA z-score detector
   (``drift.norm_z.<modality>``): a burst of fresh random rows or a
   runaway learning rate moves the norm mass and trips the alarm.
3. **Hotspot-assignment PSI** — the spatial hotspot assignment counts of
   the first ``reference_batches`` batches form a frozen reference
   distribution; each later batch window is compared with the population
   stability index (gauge ``drift.spatial_psi``).  PSI > 0.25 is the
   classic "significant shift" threshold.
4. **Eviction-rate anomaly** — per-batch recency-buffer evictions feed an
   EWMA z-score (``drift.eviction_z``); a spike means the window is
   churning far faster than steady state.

Every alarm transition (healthy -> alarming) appends a JSON-safe event to
:attr:`DriftWatchdog.alerts` — surfaced as ``alerts.jsonl`` through
:func:`~repro.utils.telemetry.write_telemetry`, the ``repro telemetry``
subcommand, and the ``/healthz`` endpoint of
:class:`~repro.utils.telemetry_server.TelemetryServer` — and is logged as
a structured warning when a logger is attached.  All bookkeeping is
vectorized or O(#modalities); the streaming benchmark gates the total
overhead (probe scoring included) below 5% of streaming wall time.
"""

from __future__ import annotations

import math
import time
from collections import deque
from collections.abc import Sequence

import numpy as np

from repro.core.query_engine import QueryEngine
from repro.utils.logging import NULL_LOGGER
from repro.utils.metrics import MetricsRegistry
from repro.utils.tracing import stage
from repro.utils.validation import check_positive

__all__ = [
    "DriftWatchdog",
    "EwmaZScore",
    "population_stability_index",
    "make_probe_queries",
]

# Modalities whose embedding-norm distribution the watchdog tracks.
_NORM_MODALITIES = ("time", "location", "word")


class EwmaZScore:
    """Exponentially-weighted mean/variance with z-score readout.

    ``update(x)`` returns how many EWMA standard deviations ``x`` sits
    from the mean *before* folding ``x`` in — 0.0 during the warmup
    period (the first ``warmup`` observations), so early noise cannot
    alarm.  The variance recurrence is the standard Welford-style EWMA:
    ``var = (1 - alpha) * (var + alpha * diff^2)``.  A jump after a
    perfectly constant history (variance exactly zero) reports ``±99``
    instead of a division by zero — finite so it stays Prometheus-safe,
    far above any sane threshold.
    """

    __slots__ = ("alpha", "warmup", "mean", "var", "count")

    def __init__(self, *, alpha: float = 0.2, warmup: int = 10) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {warmup}")
        self.alpha = float(alpha)
        self.warmup = int(warmup)
        self.mean = 0.0
        self.var = 0.0
        self.count = 0

    def update(self, value: float) -> float:
        """Fold in one observation; returns its z-score (0 in warmup)."""
        value = float(value)
        self.count += 1
        if self.count == 1:
            self.mean = value
            return 0.0
        diff = value - self.mean
        std = math.sqrt(self.var)
        if std > 0:
            z = diff / std
        else:
            z = math.copysign(99.0, diff) if abs(diff) > 1e-12 else 0.0
        self.mean += self.alpha * diff
        self.var = (1.0 - self.alpha) * (self.var + self.alpha * diff * diff)
        return z if self.count > self.warmup else 0.0


def population_stability_index(
    expected: np.ndarray, observed: np.ndarray, *, epsilon: float = 1e-4
) -> float:
    """PSI between two count (or probability) vectors of equal length.

    ``sum((q - p) * ln(q / p))`` over the normalized distributions, with
    ``epsilon`` smoothing so empty buckets stay finite.  Conventional
    reading: < 0.1 stable, 0.1-0.25 moderate shift, > 0.25 significant.
    """
    p = np.asarray(expected, dtype=np.float64)
    q = np.asarray(observed, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    p = p / max(p.sum(), epsilon) + epsilon
    q = q / max(q.sum(), epsilon) + epsilon
    p /= p.sum()
    q /= q.sum()
    return float(np.sum((q - p) * np.log(q / p)))


def make_probe_queries(
    records,
    *,
    target: str = "text",
    n_noise: int = 10,
    max_queries: int = 64,
    seed: int = 0,
):
    """Build a frozen probe query set from held-out records.

    A thin wrapper over :func:`repro.eval.mrr.make_queries` that accepts
    either a :class:`~repro.data.records.Corpus` or any iterable of
    records — the shape the CLI has at hand when enabling the watchdog.
    """
    from repro.data.records import Corpus
    from repro.eval.mrr import make_queries

    corpus = (
        records
        if isinstance(records, Corpus)
        else Corpus.from_records(list(records))
    )
    return make_queries(
        corpus, target, n_noise=n_noise, max_queries=max_queries, seed=seed
    )


class DriftWatchdog:
    """Continuous quality probes for an online streaming model.

    Attach with :meth:`repro.core.streaming.OnlineActor.attach_drift_watchdog`
    (or construct through
    :meth:`~repro.core.streaming.OnlineActor.enable_drift_watchdog`); the
    actor then calls :meth:`observe_batch` after every ingested batch.

    Parameters
    ----------
    model:
        The live :class:`~repro.core.streaming.OnlineActor` (any
        :class:`~repro.core.prediction.GraphEmbeddingModel` with a
        ``buffer`` works).
    probe_queries:
        Frozen held-out :class:`~repro.eval.mrr.PredictionQuery` list for
        the probe-MRR gauge (see :func:`make_probe_queries`); ``None``
        disables the probe signal.
    probe_every:
        Score the probe set every this many batches.
    mrr_drop:
        Relative drop below the baseline (first) probe MRR that alarms:
        ``0.3`` fires when the rolling MRR loses 30% of its baseline.
    reference_batches:
        Minimum batches whose spatial-hotspot assignment counts form the
        frozen PSI reference window (accumulation continues until
        ``psi_min_samples`` records are also covered).
    window_batches:
        Minimum rolling-window length (in batches) compared against the
        reference; the window likewise keeps growing until it spans
        ``psi_min_samples`` records.
    psi_min_samples:
        Minimum records both the reference and the rolling window must
        cover before a PSI is computed.  PSI noise scales like
        ``buckets / samples``, so a fixed batch count is far too noisy at
        small batch sizes — bounding by sample count keeps the
        stationary-stream PSI well under the alarm line regardless of
        how the operator batches the stream.
    psi_threshold:
        PSI above which the hotspot-population alarm fires (0.25 is the
        conventional "significant shift" line).
    psi_buckets:
        PSI is computed over at most this many buckets: the hotspots
        with the highest reference mass keep individual buckets and the
        long tail is merged into one.  Raw per-hotspot PSI over hundreds
        of sparse cells is dominated by sampling noise at streaming batch
        sizes; ~10 buckets is the classic credit-scoring setup and keeps
        the stationary-stream PSI well under the alarm line.
    norm_alpha / norm_z_threshold / norm_warmup:
        EWMA parameters of the per-modality norm detectors.
    eviction_alpha / eviction_z_threshold / eviction_warmup:
        EWMA parameters of the eviction-rate detector.
    metrics:
        Registry for the drift gauges; defaults to the model's own, so
        drift metrics ride the same Prometheus export.
    logger:
        Optional :class:`~repro.utils.logging.StructuredLogger`; every
        alert is also emitted as a structured warning.
    max_alerts:
        Retention bound of the in-memory alert list (oldest dropped).
    clock:
        Wall-clock source for alert timestamps; injectable for tests.
    """

    def __init__(
        self,
        model,
        *,
        probe_queries: Sequence | None = None,
        probe_every: int = 10,
        mrr_drop: float = 0.3,
        reference_batches: int = 5,
        window_batches: int = 5,
        psi_threshold: float = 0.25,
        psi_buckets: int = 10,
        psi_min_samples: int = 500,
        norm_alpha: float = 0.1,
        norm_z_threshold: float = 6.0,
        norm_warmup: int = 10,
        eviction_alpha: float = 0.2,
        eviction_z_threshold: float = 6.0,
        eviction_warmup: int = 10,
        metrics: MetricsRegistry | None = None,
        logger=None,
        max_alerts: int = 1000,
        clock=time.time,
    ) -> None:
        check_positive("probe_every", probe_every)
        check_positive("reference_batches", reference_batches)
        check_positive("window_batches", window_batches)
        check_positive("psi_threshold", psi_threshold)
        if psi_buckets < 2:
            raise ValueError(f"psi_buckets must be >= 2, got {psi_buckets}")
        if not 0.0 < mrr_drop < 1.0:
            raise ValueError(f"mrr_drop must be in (0, 1), got {mrr_drop}")
        self.model = model
        self.probe_queries = (
            list(probe_queries) if probe_queries is not None else None
        )
        self.probe_every = int(probe_every)
        self.mrr_drop = float(mrr_drop)
        self.reference_batches = int(reference_batches)
        self.window_batches = int(window_batches)
        check_positive("psi_min_samples", psi_min_samples)
        self.psi_threshold = float(psi_threshold)
        self.psi_buckets = int(psi_buckets)
        self.psi_min_samples = int(psi_min_samples)
        self.norm_z_threshold = float(norm_z_threshold)
        self.eviction_z_threshold = float(eviction_z_threshold)
        if metrics is None:
            metrics = getattr(model, "metrics", None)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.logger = logger if logger is not None else NULL_LOGGER
        self._clock = clock

        self._norm_detectors = {
            m: EwmaZScore(alpha=norm_alpha, warmup=norm_warmup)
            for m in _NORM_MODALITIES
        }
        self._eviction_detector = EwmaZScore(
            alpha=eviction_alpha, warmup=eviction_warmup
        )
        n_spatial = len(model.built.detector.spatial_hotspots)
        self._reference_counts = np.zeros(n_spatial, dtype=np.float64)
        self._reference_batches_seen = 0
        self._head_hotspots: np.ndarray | None = None
        self._window: deque[np.ndarray] = deque()
        self._last_evictions = int(getattr(model.buffer, "evictions", 0))
        self._engine: QueryEngine | None = None
        self._alarm_state: dict[str, bool] = {}
        self.alerts: deque[dict] = deque(maxlen=int(max_alerts))
        self.n_batches = 0
        self.probe_mrr: float | None = None
        self.probe_baseline: float | None = None
        self.spatial_psi: float | None = None

    # -------------------------------------------------------------- signals

    def observe_batch(self, records: Sequence) -> None:
        """Digest one ingested batch (called from ``partial_fit``).

        Runs after the training burst, so every signal sees the
        post-update model.  Total cost is gated below 5% of streaming
        wall time by ``benchmarks/bench_online_streaming.py``.
        """
        with stage("drift.observe", metrics=self.metrics):
            self.n_batches += 1
            self._observe_hotspots(records)
            self._observe_norms()
            self._observe_evictions()
            if (
                self.probe_queries
                and self.n_batches % self.probe_every == 0
            ):
                self._observe_probe()
        self.metrics.gauge("drift.alarm").set(
            1.0 if any(self._alarm_state.values()) else 0.0
        )

    def _observe_hotspots(self, records: Sequence) -> None:
        """Accumulate spatial-assignment counts; PSI vs the reference."""
        if self._reference_counts.size == 0:
            return
        locations = np.asarray([r.location for r in records], dtype=float)
        if locations.size == 0:
            return
        idx = self.model.built.detector.assign_spatial(locations)
        counts = np.bincount(idx, minlength=self._reference_counts.size).astype(
            np.float64
        )
        if self._head_hotspots is None:
            # Still building the reference: accumulate until it spans
            # both enough batches and enough records.
            self._reference_counts += counts
            self._reference_batches_seen += 1
            if (
                self._reference_batches_seen >= self.reference_batches
                and self._reference_counts.sum() >= self.psi_min_samples
            ):
                # Freeze the bucketing alongside the reference: the
                # heaviest hotspots keep individual buckets, the tail
                # merges into one.
                n_head = min(
                    self.psi_buckets - 1, self._reference_counts.size
                )
                order = np.argsort(self._reference_counts)[::-1]
                self._head_hotspots = order[:n_head]
            return
        self._window.append(counts)
        # Trim to the smallest suffix still satisfying both minima, so
        # the window tracks recent data without dropping below the
        # sample count that keeps PSI noise under the alarm line.
        while (
            len(self._window) > self.window_batches
            and sum(c.sum() for c in self._window) - self._window[0].sum()
            >= self.psi_min_samples
        ):
            self._window.popleft()
        observed = np.sum(self._window, axis=0)
        if (
            len(self._window) < self.window_batches
            or observed.sum() < self.psi_min_samples
        ):
            # A part-filled window has too few samples per bucket —
            # sampling noise alone would cross the alarm line.
            return
        psi = population_stability_index(
            self._bucketize(self._reference_counts),
            self._bucketize(observed),
        )
        self.spatial_psi = psi
        self.metrics.gauge("drift.spatial_psi").set(psi)
        self._transition(
            "spatial_psi",
            psi > self.psi_threshold,
            value=psi,
            threshold=self.psi_threshold,
            message=(
                f"hotspot population shifted: PSI {psi:.3f} > "
                f"{self.psi_threshold}"
            ),
        )

    def _bucketize(self, counts: np.ndarray) -> np.ndarray:
        """Compress per-hotspot counts to head buckets + one tail bucket."""
        head = counts[self._head_hotspots]
        tail = counts.sum() - head.sum()
        return np.append(head, tail)

    def _observe_norms(self) -> None:
        """Track per-modality mean embedding norms (histogram + EWMA z).

        Rows are gathered straight from the model's embedding store
        (``modality_rows`` + ``store.view``), so the detector reads the
        live matrices whatever the backend — dense, shared-memory or
        memory-mapped.
        """
        store = self.model.store
        for modality in _NORM_MODALITIES:
            _keys, rows = self.model.modality_rows(modality)
            if len(rows) == 0:
                continue
            matrix = store.view(rows)
            mean_norm = float(np.linalg.norm(matrix, axis=1).mean())
            self.metrics.gauge(f"drift.norm_mean.{modality}").set(mean_norm)
            self.metrics.histogram(f"drift.norm.{modality}").observe(mean_norm)
            z = self._norm_detectors[modality].update(mean_norm)
            self.metrics.gauge(f"drift.norm_z.{modality}").set(z)
            self._transition(
                f"norm:{modality}",
                abs(z) > self.norm_z_threshold,
                value=z,
                threshold=self.norm_z_threshold,
                message=(
                    f"{modality} embedding-norm mean moved {z:+.1f} EWMA "
                    f"sigma (norm {mean_norm:.4f})"
                ),
            )

    def _observe_evictions(self) -> None:
        """EWMA z-score over per-batch recency-buffer evictions."""
        buffer = getattr(self.model, "buffer", None)
        if buffer is None:
            return
        evictions = int(buffer.evictions)
        delta = evictions - self._last_evictions
        self._last_evictions = evictions
        self.metrics.gauge("drift.evictions_per_batch").set(delta)
        z = self._eviction_detector.update(delta)
        self.metrics.gauge("drift.eviction_z").set(z)
        self._transition(
            "eviction_rate",
            z > self.eviction_z_threshold,
            value=z,
            threshold=self.eviction_z_threshold,
            message=(
                f"eviction rate spiked {z:+.1f} EWMA sigma "
                f"({delta} evictions this batch)"
            ),
        )

    def _observe_probe(self) -> None:
        """Score the frozen probe set through the batched engine."""
        if self._engine is None:
            # Private registry: probe scoring must not inflate the
            # serving-path query metrics.
            self._engine = QueryEngine(self.model, metrics=MetricsRegistry())
        with stage("drift.probe", metrics=self.metrics):
            mrr = self._engine.mean_reciprocal_rank(self.probe_queries)
        self.probe_mrr = mrr
        if self.probe_baseline is None:
            self.probe_baseline = mrr
            self.metrics.gauge("drift.probe_mrr_baseline").set(mrr)
        self.metrics.gauge("drift.probe_mrr").set(mrr)
        floor = self.probe_baseline * (1.0 - self.mrr_drop)
        self._transition(
            "probe_mrr",
            mrr < floor,
            value=mrr,
            threshold=floor,
            message=(
                f"probe MRR {mrr:.3f} fell below "
                f"{floor:.3f} ({self.mrr_drop:.0%} under baseline "
                f"{self.probe_baseline:.3f})"
            ),
        )

    # --------------------------------------------------------------- alerts

    def _transition(
        self,
        kind: str,
        firing: bool,
        *,
        value: float,
        threshold: float,
        message: str,
    ) -> None:
        """Edge-triggered alarm bookkeeping: alert once per excursion."""
        was_firing = self._alarm_state.get(kind, False)
        self._alarm_state[kind] = firing
        if firing and not was_firing:
            alert = {
                "ts": float(self._clock()),
                "batch": self.n_batches,
                "kind": kind,
                "value": round(float(value), 6),
                "threshold": round(float(threshold), 6),
                "message": message,
            }
            self.alerts.append(alert)
            self.metrics.counter("drift.alerts").inc()
            self.logger.warning(f"drift.alert.{kind}", **alert)

    @property
    def alarming(self) -> bool:
        """Whether any alarm is currently in the firing state."""
        return any(self._alarm_state.values())

    def status(self) -> dict:
        """JSON-safe summary for ``/healthz`` (a status provider)."""
        return {
            "status": "alerting" if self.alarming else "ok",
            "drift": {
                "batches": self.n_batches,
                "probe_mrr": self.probe_mrr,
                "probe_baseline": self.probe_baseline,
                "spatial_psi": self.spatial_psi,
                "alerts": len(self.alerts),
                "firing": sorted(
                    kind for kind, on in self._alarm_state.items() if on
                ),
            },
        }
