"""Tests for the grid-discretization alternative detector."""

import numpy as np
import pytest

from repro.hotspots.grid import GridDetector
from tests.hotspots.test_detector import clustered_corpus


class TestConstruction:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GridDetector(cell_km=0)
        with pytest.raises(ValueError):
            GridDetector(bucket_hours=-1)
        with pytest.raises(ValueError, match="period"):
            GridDetector(bucket_hours=30.0)

    def test_unfitted_access_raises(self):
        detector = GridDetector()
        with pytest.raises(RuntimeError, match="not fitted"):
            _ = detector.spatial_hotspots
        with pytest.raises(RuntimeError, match="not fitted"):
            detector.assign_spatial(np.zeros((1, 2)))


class TestFit:
    @pytest.fixture(scope="class")
    def detector(self):
        return GridDetector(cell_km=1.0, bucket_hours=1.0, min_support=3).fit(
            clustered_corpus()
        )

    def test_occupied_cells_only(self, detector):
        """Two tight clusters -> few occupied cells, not a full grid."""
        assert 1 <= detector.n_spatial <= 8

    def test_cell_centres_near_clusters(self, detector):
        modes = detector.spatial_hotspots
        d_a = np.linalg.norm(modes - [2, 2], axis=1).min()
        d_b = np.linalg.norm(modes - [12, 12], axis=1).min()
        assert d_a < 1.0 and d_b < 1.0

    def test_temporal_buckets_near_peaks(self, detector):
        hours = detector.temporal_hotspots
        assert any(abs(h - 9.0) <= 1.0 for h in hours)
        assert any(abs(h - 21.0) <= 1.0 for h in hours)

    def test_assign_roundtrip(self, detector):
        s = detector.assign_spatial([(2.0, 2.0)])[0]
        t = detector.assign_temporal([9.2])[0]
        assert np.linalg.norm(detector.spatial_hotspots[s] - [2, 2]) < 1.0
        assert abs(detector.temporal_hotspots[t] - 9.0) < 1.5

    def test_assign_temporal_circular(self, detector):
        idx_a = detector.assign_temporal(np.asarray([9.0]))
        idx_b = detector.assign_temporal(np.asarray([33.0]))  # same hour
        assert idx_a[0] == idx_b[0]

    def test_min_support_drops_sparse_cells(self):
        corpus = clustered_corpus(n_per=50)
        dense = GridDetector(cell_km=0.2, min_support=1).fit(corpus)
        pruned = GridDetector(cell_km=0.2, min_support=10).fit(corpus)
        assert pruned.n_spatial <= dense.n_spatial

    def test_validation_of_arrays(self):
        detector = GridDetector()
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            detector.fit_arrays(np.zeros((3, 3)), np.zeros(3))
        with pytest.raises(ValueError, match="equal length"):
            detector.fit_arrays(np.zeros((3, 2)), np.zeros(2))


class TestInterchangeability:
    def test_graph_builder_accepts_grid_detector(self):
        """GridDetector is a drop-in replacement in the ingest pipeline."""
        from repro.data import Vocabulary
        from repro.graphs import GraphBuilder

        corpus = clustered_corpus()
        built = GraphBuilder(
            detector=GridDetector(cell_km=1.0, min_support=1),
            vocab=Vocabulary(min_count=1),
        ).build(corpus)
        summary = built.activity.summary()
        assert summary["n_spatial"] >= 1
        assert summary["n_temporal"] >= 1
        assert summary["n_edges"] > 0
