"""Tests for the spherical k-means coarse quantizer.

The quantizer's contract: deterministic builds, unit-norm centroids,
labels identical to its own assignment kernel, and — the independent
cross-check — dot-product assignment over normalized rows agreeing with
the mean-shift module's KD-tree Euclidean assignment (on the unit sphere
cosine-nearest and Euclidean-nearest coincide).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.ann.kmeans import (
    SCORE_BLOCK_BYTES,
    kmeans,
    kmeans_seeds,
    nearest_centroid,
)
from repro.core.prediction import normalize_rows
from repro.hotspots.meanshift import assign_nearest


def clustered(n=400, dim=8, centers=5, seed=0, spread=0.05):
    """Tight unit-sphere bumps: the regime the quantizer must nail."""
    rng = np.random.default_rng(seed)
    bumps = normalize_rows(rng.normal(size=(centers, dim)))
    assign = rng.integers(0, centers, size=n)
    return normalize_rows(
        bumps[assign] + spread * rng.normal(size=(n, dim))
    )


class TestNearestCentroid:
    def test_matches_meanshift_kdtree_reference(self):
        """Dot-product argmax == KD-tree Euclidean nearest on the sphere."""
        points = clustered(seed=1)
        centroids = normalize_rows(
            np.random.default_rng(2).normal(size=(7, 8))
        )
        labels = nearest_centroid(points, centroids)
        reference, _counts = assign_nearest(points, centroids)
        np.testing.assert_array_equal(labels, reference)

    def test_chunking_is_invisible(self):
        points = clustered(n=101)
        centroids = points[:9]
        full = nearest_centroid(points, centroids)
        chunked = nearest_centroid(points, centroids, chunk_rows=7)
        np.testing.assert_array_equal(full, chunked)

    def test_score_blocks_stay_within_budget(self):
        """1,024 centroids: one budget-sized score block at a time.

        A single block for all 50,000 rows would allocate 410 MB.
        """
        rng = np.random.default_rng(8)
        points = normalize_rows(rng.normal(size=(50_000, 16)))
        centroids = normalize_rows(rng.normal(size=(1_024, 16)))
        tracemalloc.start()
        try:
            nearest_centroid(points, centroids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * SCORE_BLOCK_BYTES

    def test_ties_resolve_to_lowest_centroid(self):
        points = np.array([[1.0, 0.0]])
        centroids = np.array([[1.0, 0.0], [1.0, 0.0]])  # exact tie
        assert nearest_centroid(points, centroids).tolist() == [0]


class TestSeeds:
    def test_seeds_are_distinct_row_indices(self):
        points = clustered(n=50)
        seeds = kmeans_seeds(points, 6, np.random.default_rng(0))
        assert seeds.shape == (6,)
        assert ((seeds >= 0) & (seeds < 50)).all()
        # D^2 sampling zeroes chosen rows' mass, so no index repeats
        assert len(set(seeds.tolist())) == 6

    def test_duplicate_heavy_data_still_seeds(self):
        """All-identical rows: D^2 mass is zero, uniform fallback kicks in."""
        points = normalize_rows(np.ones((20, 4)))
        seeds = kmeans_seeds(points, 3, np.random.default_rng(1))
        assert seeds.shape == (3,)
        assert ((seeds >= 0) & (seeds < 20)).all()


class TestKMeans:
    def test_result_invariants(self):
        points = clustered()
        result = kmeans(points, 5, seed=3)
        assert result.modes.shape == (5, points.shape[1])
        np.testing.assert_allclose(
            np.linalg.norm(result.modes, axis=1), 1.0, atol=1e-12
        )
        assert result.labels.shape == (points.shape[0],)
        assert result.counts.sum() == points.shape[0]
        # ordered by descending support, labels self-consistent
        assert (np.diff(result.counts) <= 0).all()
        np.testing.assert_array_equal(
            result.labels, nearest_centroid(points, result.modes)
        )

    def test_deterministic_across_builds(self):
        points = clustered(seed=4)
        a = kmeans(points, 6, seed=11)
        b = kmeans(points, 6, seed=11)
        np.testing.assert_array_equal(a.modes, b.modes)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_n_clusters_clamped_to_n_points(self):
        points = clustered(n=3)
        result = kmeans(points, 10, seed=0)
        assert result.modes.shape[0] <= 3
        assert result.counts.sum() == 3

    def test_quantization_is_tight_on_clustered_data(self):
        """Assigned centroid nearly collinear with each point (cos > 0.9)."""
        points = clustered(n=600, centers=6, spread=0.03, seed=5)
        result = kmeans(points, 6, seed=6)
        cos = np.einsum(
            "nd,nd->n", points, result.modes[result.labels]
        )
        assert (cos > 0.9).mean() > 0.95

    def test_rejects_empty_and_bad_k(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 4)), 3)
        with pytest.raises(ValueError):
            kmeans(clustered(n=10), 0)
