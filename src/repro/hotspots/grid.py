"""Grid discretization: the baseline alternative to mean-shift hotspots.

Earlier spatiotemporal models (and CrossMap's simpler variants) discretize
space with a uniform grid and time with fixed-width buckets instead of
detecting density modes.  :class:`GridDetector` is a
:class:`~repro.hotspots.detector.HotspotDetector` that replaces only the
two mode finders; state, input validation, the ``hotspot.*`` stages and
nearest-unit assignment are the detector's own.  ACTOR can therefore be
trained on either discretization and the choice ablated
(``benchmarks/bench_ablation_hotspots.py``).

Differences from mean shift the ablation probes:

* grid cells are anchored arbitrarily — a venue sitting on a cell border
  splits its records between two units;
* empty-but-adjacent cells fragment sparse areas instead of pooling them
  into one mode;
* cell count grows with area, not with data density.
"""

from __future__ import annotations

import numpy as np

from repro.hotspots.detector import HotspotDetector
from repro.utils.validation import check_positive

__all__ = ["GridDetector"]


class GridDetector(HotspotDetector):
    """Uniform spatial grid + fixed temporal buckets.

    Its hotspots are the centres of occupied cells and buckets, in
    ascending cell order rather than by support.

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
        super().__init__(period=period, min_support=min_support)
        self.cell_km = float(cell_km)
        self.bucket_hours = float(bucket_hours)

    def _spatial_modes(self, locations: np.ndarray) -> np.ndarray:
        """Centres of the grid cells holding ``min_support`` records."""
        cells = np.floor(locations / self.cell_km).astype(np.int64)
        uniq, counts = np.unique(cells, axis=0, return_counts=True)
        keep = counts >= self.min_support
        if not keep.any():
            keep = counts >= 1  # never end up with zero units
        return (uniq[keep] + 0.5) * self.cell_km

    def _temporal_modes(self, hours: np.ndarray) -> np.ndarray:
        """Centres of the time-of-day buckets holding ``min_support`` records."""
        n_buckets = max(1, int(self.period // self.bucket_hours))
        bucket_idx = np.minimum(
            (hours % self.period / self.bucket_hours).astype(np.int64),
            n_buckets - 1,
        )
        occupied, counts = np.unique(bucket_idx, return_counts=True)
        keep = counts >= self.min_support
        if not keep.any():
            keep = counts >= 1
        return (occupied[keep].astype(float) + 0.5) * self.bucket_hours
