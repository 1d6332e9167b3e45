"""Grid discretization: the baseline alternative to mean-shift hotspots.

Earlier spatiotemporal models (and CrossMap's simpler variants) discretize
space with a uniform grid and time with fixed-width buckets instead of
detecting density modes.  :class:`GridDetector` implements that scheme with
the same interface as :class:`~repro.hotspots.detector.HotspotDetector`, so
ACTOR can be trained on either discretization and the choice can be
ablated (``benchmarks/bench_ablation_hotspots.py``).

Differences from mean shift the ablation probes:

* grid cells are anchored arbitrarily — a venue sitting on a cell border
  splits its records between two units;
* empty-but-adjacent cells fragment sparse areas instead of pooling them
  into one mode;
* cell count grows with area, not with data density.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.data.records import Corpus
from repro.utils.validation import check_positive

__all__ = ["GridDetector"]


class GridDetector:
    """Uniform spatial grid + fixed temporal buckets.

    Drop-in alternative to :class:`HotspotDetector`: exposes
    ``spatial_hotspots`` / ``temporal_hotspots`` (cell centres of occupied
    cells) and the same ``assign_*`` methods.

    Parameters
    ----------
    cell_km:
        Spatial grid cell edge length in kilometres.
    bucket_hours:
        Temporal bucket width in hours; must divide the period evenly
        enough (the last bucket absorbs any remainder).
    period:
        Temporal period (24 h).
    min_support:
        Cells/buckets with fewer records are dropped; their records snap
        to the nearest surviving unit, mirroring the mean-shift detector's
        noise handling.
    """

    def __init__(
        self,
        *,
        cell_km: float = 1.0,
        bucket_hours: float = 1.0,
        period: float = 24.0,
        min_support: int = 1,
    ) -> None:
        check_positive("cell_km", cell_km)
        check_positive("bucket_hours", bucket_hours)
        check_positive("period", period)
        if bucket_hours > period:
            raise ValueError("bucket_hours must not exceed the period")
        self.cell_km = float(cell_km)
        self.bucket_hours = float(bucket_hours)
        self.period = float(period)
        self.min_support = int(min_support)
        self._spatial_hotspots: np.ndarray | None = None
        self._temporal_hotspots: np.ndarray | None = None
        self._spatial_tree: cKDTree | None = None

    # ------------------------------------------------------------------ state

    @property
    def spatial_hotspots(self) -> np.ndarray:
        """``(S, 2)`` occupied-cell centres; requires :meth:`fit`."""
        if self._spatial_hotspots is None:
            raise RuntimeError("detector is not fitted; call fit() first")
        return self._spatial_hotspots

    @property
    def temporal_hotspots(self) -> np.ndarray:
        """``(T,)`` occupied-bucket centres; requires :meth:`fit`."""
        if self._temporal_hotspots is None:
            raise RuntimeError("detector is not fitted; call fit() first")
        return self._temporal_hotspots

    @property
    def n_spatial(self) -> int:
        """Number of occupied spatial cells."""
        return self.spatial_hotspots.shape[0]

    @property
    def n_temporal(self) -> int:
        """Number of occupied temporal buckets."""
        return self.temporal_hotspots.shape[0]

    # -------------------------------------------------------------------- fit

    def fit(self, corpus: Corpus) -> "GridDetector":
        """Discretize all record locations and times-of-day in ``corpus``."""
        locations = np.asarray(corpus.locations(), dtype=float)
        hours = np.asarray([r.time_of_day for r in corpus], dtype=float)
        return self.fit_arrays(locations, hours)

    def fit_arrays(
        self, locations: np.ndarray, hours: np.ndarray
    ) -> "GridDetector":
        """Fit from ``(n, 2)`` locations and ``(n,)`` hours-of-day."""
        locations = np.asarray(locations, dtype=float)
        hours = np.asarray(hours, dtype=float) % self.period
        if locations.ndim != 2 or locations.shape[1] != 2:
            raise ValueError(
                f"locations must have shape (n, 2), got {locations.shape}"
            )
        if locations.shape[0] != hours.shape[0]:
            raise ValueError("locations and hours must have equal length")

        cells = np.floor(locations / self.cell_km).astype(np.int64)
        uniq, counts = np.unique(cells, axis=0, return_counts=True)
        keep = counts >= self.min_support
        if not keep.any():
            keep = counts >= 1  # never end up with zero units
        self._spatial_hotspots = (uniq[keep] + 0.5) * self.cell_km

        n_buckets = max(1, int(self.period // self.bucket_hours))
        bucket_idx = np.minimum(
            (hours / self.bucket_hours).astype(np.int64), n_buckets - 1
        )
        occupied, t_counts = np.unique(bucket_idx, return_counts=True)
        t_keep = t_counts >= self.min_support
        if not t_keep.any():
            t_keep = t_counts >= 1
        self._temporal_hotspots = (
            occupied[t_keep].astype(float) + 0.5
        ) * self.bucket_hours
        self._spatial_tree = cKDTree(self._spatial_hotspots)
        return self

    # ----------------------------------------------------------------- assign

    def assign_spatial(self, locations: np.ndarray) -> np.ndarray:
        """Nearest occupied cell centre for each location."""
        if self._spatial_tree is None:
            raise RuntimeError("detector is not fitted; call fit() first")
        locations = np.atleast_2d(np.asarray(locations, dtype=float))
        _, idx = self._spatial_tree.query(locations)
        return np.asarray(idx, dtype=np.int64)

    def assign_temporal(self, timestamps: np.ndarray) -> np.ndarray:
        """Nearest occupied bucket centre (circular distance)."""
        hotspots = self.temporal_hotspots
        hours = np.asarray(timestamps, dtype=float).ravel() % self.period
        diff = np.abs(hours[:, None] - hotspots[None, :])
        circular = np.minimum(diff, self.period - diff)
        return circular.argmin(axis=1).astype(np.int64)
