"""Hotspot detector: the spatial/temporal discretization front-end of ACTOR.

Definition 5 of the paper: a *spatial hotspot* is a local maximum of the
kernel density of record locations, a *temporal hotspot* a local maximum of
the kernel density of record timestamps.  After detection, "for a new data
point we can find the hotspot it belongs to by calculating the distances
with all the detected hotspots and choosing the closest one" — exactly what
:meth:`HotspotDetector.assign_spatial` / :meth:`assign_temporal` do (with a
KD-tree instead of a linear scan).

Temporal hotspots operate on the time-of-day component with circular
distance, matching the daily periodicity of urban activity (Table 1 reports
27-34 temporal hotspots, i.e. sub-hour daily buckets).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.data.records import Corpus
from repro.hotspots.meanshift import circular_mean_shift, mean_shift
from repro.utils.tracing import NULL_TRACER, stage
from repro.utils.validation import check_positive

__all__ = ["HotspotDetector"]


class HotspotDetector:
    """Detect and assign spatial & temporal hotspots via mean shift.

    The two mode finders, :meth:`_spatial_modes` and
    :meth:`_temporal_modes`, are the only part a discretization variant
    replaces (see :class:`~repro.hotspots.grid.GridDetector`).

    Parameters
    ----------
    spatial_bandwidth:
        Mean-shift window radius for locations, in kilometres.
    temporal_bandwidth:
        Window radius for time-of-day, in hours.
    period:
        Temporal period (24 for daily cycles).
    min_support:
        Minimum basin population for a mode to survive (noise control).
    """

    def __init__(
        self,
        *,
        spatial_bandwidth: float = 0.5,
        temporal_bandwidth: float = 0.75,
        period: float = 24.0,
        min_support: int = 3,
    ) -> None:
        check_positive("spatial_bandwidth", spatial_bandwidth)
        check_positive("temporal_bandwidth", temporal_bandwidth)
        self.spatial_bandwidth = float(spatial_bandwidth)
        self.temporal_bandwidth = float(temporal_bandwidth)
        self.period = float(period)
        self.min_support = int(min_support)
        self._spatial_hotspots: np.ndarray | None = None
        self._temporal_hotspots: np.ndarray | None = None
        self._spatial_tree: cKDTree | None = None
        # Optional observability sinks, attached by Actor.fit (or by hand):
        # when set, fit_arrays records the hotspot.spatial_fit /
        # hotspot.temporal_fit stages and hotspot counts, and emits a
        # hotspot.detect span tree.
        self.metrics = None
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------ state

    @property
    def spatial_hotspots(self) -> np.ndarray:
        """``(S, 2)`` hotspot coordinates, ordered by descending support."""
        if self._spatial_hotspots is None:
            raise RuntimeError("detector is not fitted; call fit() first")
        return self._spatial_hotspots

    @property
    def temporal_hotspots(self) -> np.ndarray:
        """``(T,)`` hotspot hours-of-day, ordered by descending support."""
        if self._temporal_hotspots is None:
            raise RuntimeError("detector is not fitted; call fit() first")
        return self._temporal_hotspots

    @property
    def n_spatial(self) -> int:
        """Number of detected spatial hotspots."""
        return self.spatial_hotspots.shape[0]

    @property
    def n_temporal(self) -> int:
        """Number of detected temporal hotspots."""
        return self.temporal_hotspots.shape[0]

    @classmethod
    def from_arrays(
        cls,
        spatial_hotspots: np.ndarray,
        temporal_hotspots: np.ndarray,
        *,
        period: float = 24.0,
    ) -> "HotspotDetector":
        """Reconstruct a fitted detector from stored hotspot arrays.

        Used by the portable model serialization
        (:mod:`repro.core.serialize`): assignment needs only the hotspot
        coordinates, not the original fitting data.
        """
        spatial_hotspots = np.asarray(spatial_hotspots, dtype=float)
        temporal_hotspots = np.asarray(temporal_hotspots, dtype=float).ravel()
        if spatial_hotspots.ndim != 2 or spatial_hotspots.shape[1] != 2:
            raise ValueError(
                f"spatial_hotspots must have shape (S, 2), got "
                f"{spatial_hotspots.shape}"
            )
        if spatial_hotspots.shape[0] == 0 or temporal_hotspots.shape[0] == 0:
            raise ValueError("hotspot arrays must be non-empty")
        detector = cls(period=period)
        detector._spatial_hotspots = spatial_hotspots
        detector._temporal_hotspots = temporal_hotspots
        detector._spatial_tree = cKDTree(spatial_hotspots)
        return detector

    # -------------------------------------------------------------------- fit

    def fit(self, corpus: Corpus) -> "HotspotDetector":
        """Detect hotspots from all record locations and times in ``corpus``."""
        locations = np.asarray(corpus.locations(), dtype=float)
        hours = np.asarray([r.time_of_day for r in corpus], dtype=float)
        return self.fit_arrays(locations, hours)

    def fit_arrays(
        self, locations: np.ndarray, hours: np.ndarray
    ) -> "HotspotDetector":
        """Fit directly from ``(n, 2)`` locations and ``(n,)`` hours-of-day."""
        locations = np.asarray(locations, dtype=float)
        hours = np.asarray(hours, dtype=float)
        if locations.ndim != 2 or locations.shape[1] != 2:
            raise ValueError(
                f"locations must have shape (n, 2), got {locations.shape}"
            )
        if locations.shape[0] != hours.shape[0]:
            raise ValueError("locations and hours must have equal length")
        with stage(
            "hotspot.detect",
            tracer=self.tracer,
            n_records=int(locations.shape[0]),
        ) as detect:
            with stage(
                "hotspot.spatial_fit", metrics=self.metrics, tracer=self.tracer
            ):
                spatial = self._spatial_modes(locations)
            with stage(
                "hotspot.temporal_fit", metrics=self.metrics, tracer=self.tracer
            ):
                temporal = self._temporal_modes(hours)
            detect.set(
                n_spatial=int(spatial.shape[0]),
                n_temporal=int(temporal.shape[0]),
            )
        self._spatial_hotspots = spatial
        self._temporal_hotspots = temporal
        self._spatial_tree = cKDTree(self._spatial_hotspots)
        if self.metrics is not None:
            self.metrics.gauge("hotspot.n_spatial").set(self.n_spatial)
            self.metrics.gauge("hotspot.n_temporal").set(self.n_temporal)
        return self

    def _spatial_modes(self, locations: np.ndarray) -> np.ndarray:
        """``(S, 2)`` spatial hotspots of ``locations``: mean-shift modes."""
        return mean_shift(
            locations, self.spatial_bandwidth, min_support=self.min_support
        ).modes

    def _temporal_modes(self, hours: np.ndarray) -> np.ndarray:
        """``(T,)`` temporal hotspots of ``hours``: circular mean-shift modes."""
        return circular_mean_shift(
            hours,
            self.temporal_bandwidth,
            period=self.period,
            min_support=self.min_support,
        ).modes.ravel()

    # ----------------------------------------------------------------- assign

    def assign_spatial(self, locations: np.ndarray) -> np.ndarray:
        """Nearest spatial hotspot index for each row of ``locations``."""
        if self._spatial_tree is None:
            raise RuntimeError("detector is not fitted; call fit() first")
        locations = np.atleast_2d(np.asarray(locations, dtype=float))
        _, idx = self._spatial_tree.query(locations)
        return np.asarray(idx, dtype=np.int64)

    def assign_temporal(self, timestamps: np.ndarray) -> np.ndarray:
        """Nearest temporal hotspot (circular distance) for each timestamp.

        ``timestamps`` may be absolute hours; only the time-of-day component
        matters.
        """
        hotspots = self.temporal_hotspots
        hours = np.asarray(timestamps, dtype=float).ravel() % self.period
        diff = np.abs(hours[:, None] - hotspots[None, :])
        circular = np.minimum(diff, self.period - diff)
        return circular.argmin(axis=1).astype(np.int64)
