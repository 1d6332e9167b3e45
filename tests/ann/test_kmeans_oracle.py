"""Bitwise oracle for the IVF quantizer and index build.

The reference below is the straightforward form of the build: k-means++
seeds drawn with ``Generator.choice``, cluster means summed row-major
with ``reduceat`` over ``points[order]``, labels sorted on int64 keys, and
one full assignment pass against the ordered modes after k-means.  The
shipped code transposes the sample, draws the seeds in reused buffers,
sorts narrower keys and takes the inverted-list assignment from the
final Lloyd pass.  Seeds, centroids, labels, counts and the CSR lists
must agree bit for bit, not just to a tolerance.
"""

import numpy as np
import pytest

from repro.ann import IVFIndex
from repro.ann.kmeans import (
    kmeans,
    kmeans_assign,
    kmeans_seeds,
    nearest_centroid,
)
from repro.hotspots.meanshift import MeanShiftResult
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive

# --------------------------------------------------------------- reference
# The straightforward build, code verbatim.


def normalize_rows(matrix):
    """L2-normalize rows; zero rows stay zero."""
    matrix = np.asarray(matrix)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    out = np.zeros_like(matrix, dtype=float)
    np.divide(matrix, norms, out=out, where=norms > 0)
    return out


def ref_nearest_centroid(points, centroids, *, chunk_rows=262_144):
    points = np.asarray(points, dtype=float)
    out = np.empty(points.shape[0], dtype=np.int64)
    for start in range(0, points.shape[0], int(chunk_rows)):
        block = points[start : start + int(chunk_rows)] @ centroids.T
        out[start : start + int(chunk_rows)] = np.argmax(block, axis=1)
    return out


def ref_kmeans_seeds(points, n_clusters, rng):
    n = points.shape[0]
    seeds = [int(rng.integers(n))]
    d2 = np.maximum(0.0, 2.0 - 2.0 * (points @ points[seeds[0]]))
    for _ in range(1, n_clusters):
        total = float(d2.sum())
        if total > 0.0:
            choice = int(rng.choice(n, p=d2 / total))
        else:
            choice = int(rng.integers(n))
        seeds.append(choice)
        d2 = np.minimum(
            d2, np.maximum(0.0, 2.0 - 2.0 * (points @ points[choice]))
        )
    return np.asarray(seeds, dtype=np.int64)


def ref_cluster_means(points, labels, n_clusters):
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(sorted_labels)) + 1)
    )
    sums = np.zeros((n_clusters, points.shape[1]))
    sums[sorted_labels[starts]] = np.add.reduceat(
        points[order], starts, axis=0
    )
    counts = np.bincount(labels, minlength=n_clusters)
    means = np.zeros_like(sums)
    np.divide(sums, counts[:, None], out=means, where=counts[:, None] > 0)
    return means, counts


def ref_kmeans(points, n_clusters, *, n_iter=10, tol=1e-4, seed=0):
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError(
            f"points must be a non-empty 2-D array, got shape {points.shape}"
        )
    check_positive("n_clusters", n_clusters)
    n_clusters = int(min(n_clusters, points.shape[0]))
    rng = ensure_rng(seed)
    centroids = normalize_rows(
        points[ref_kmeans_seeds(points, n_clusters, rng)]
    )
    labels = ref_nearest_centroid(points, centroids)
    for _ in range(int(n_iter)):
        means, counts = ref_cluster_means(points, labels, n_clusters)
        new_centroids = normalize_rows(means)
        dead = np.linalg.norm(new_centroids, axis=1) == 0
        new_centroids[dead] = centroids[dead]
        shift = float(
            np.linalg.norm(new_centroids - centroids, axis=1).max()
        )
        centroids = new_centroids
        labels = ref_nearest_centroid(points, centroids)
        if shift < tol:
            break
    counts = np.bincount(labels, minlength=n_clusters)
    order = np.argsort(-counts, kind="stable")
    relabel = np.empty_like(order)
    relabel[order] = np.arange(order.size)
    return MeanShiftResult(
        modes=centroids[order],
        labels=relabel[labels],
        counts=counts[order],
    )


def ref_ivf_build(
    matrix, *, nlist=256, seed=0, train_sample=65_536, kmeans_iters=10
):
    """``(centroids, list_rows, list_offsets)`` of the reference build."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    nlist = int(min(nlist, n))
    rng = np.random.default_rng(seed)
    if n > int(train_sample):
        sample = matrix[
            rng.choice(n, size=int(train_sample), replace=False)
        ]
    else:
        sample = matrix
    result = ref_kmeans(sample, nlist, n_iter=int(kmeans_iters), seed=rng)
    centroids = result.modes
    nlist = centroids.shape[0]
    labels = ref_nearest_centroid(matrix, centroids)
    counts = np.bincount(labels, minlength=nlist)
    list_rows = np.argsort(labels, kind="stable").astype(np.int64)
    list_offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return centroids, list_rows, list_offsets


# ------------------------------------------------------------------ inputs


def clustered(n, dim, centers, seed, spread=0.05):
    rng = np.random.default_rng(seed)
    bumps = normalize_rows(rng.normal(size=(centers, dim)))
    assign = rng.integers(0, centers, size=n)
    return normalize_rows(bumps[assign] + spread * rng.normal(size=(n, dim)))


def uniform(n, dim, seed):
    rng = np.random.default_rng(seed)
    return normalize_rows(rng.uniform(-1.0, 1.0, size=(n, dim)))


def duplicated(n_distinct, dim, seed, copies=7):
    base = clustered(n_distinct, dim, 4, seed)
    return np.repeat(base, copies, axis=0)[
        np.random.default_rng(seed).permutation(n_distinct * copies)
    ]


def with_zero_rows(n, dim, seed, every):
    """A few zero rows: each ties every centroid at score 0."""
    points = clustered(n, dim, 6, seed)
    points[::every] = 0.0
    return points


INPUTS = {
    # name: (points, nlist)
    **{
        f"clustered-d{dim}-s{seed}": (clustered(900, dim, 12, seed), 32)
        for dim in (8, 16, 32, 64)
        for seed in (0, 1)
    },
    "uniform-d16": (uniform(700, 16, 2), 24),
    "uniform-d64": (uniform(500, 64, 3), 40),
    "duplicates-x7": (duplicated(60, 12, 4), 16),
    "duplicates-x7-many-lists": (duplicated(20, 8, 5), 64),
    # the zero rows' unsorted winner, cell 0, is not the biggest cell
    "zero-rows": (with_zero_rows(400, 16, 1, every=50), 20),
    "n-below-nlist": (clustered(9, 8, 3, 7), 32),
    # clusters of ~600 rows: numpy's recursive pairwise sum (> 128)
    "large-clusters": (clustered(2400, 32, 3, 8, spread=0.2), 4),
    "all-identical": (normalize_rows(np.ones((30, 6))), 5),
}


def assert_same_result(new, ref):
    assert np.array_equal(new.modes, ref.modes)
    assert np.array_equal(new.labels, ref.labels)
    assert np.array_equal(new.counts, ref.counts)


def assert_same_index(index, ref):
    centroids, list_rows, list_offsets = ref
    assert np.array_equal(index.centroids, centroids)
    assert np.array_equal(index.list_rows, list_rows)
    assert np.array_equal(index.list_offsets, list_offsets)
    assert index.list_rows.dtype == list_rows.dtype
    assert index.list_offsets.dtype == list_offsets.dtype


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("name", sorted(INPUTS))
class TestBitIdentical:
    def test_seeds(self, name):
        points, nlist = INPUTS[name]
        k = min(nlist, points.shape[0])
        seeds = kmeans_seeds(points, k, np.random.default_rng(13))
        assert np.array_equal(
            seeds, ref_kmeans_seeds(points, k, np.random.default_rng(13))
        )

    @pytest.mark.parametrize("n_iter", [0, 1, 10])
    def test_kmeans(self, name, n_iter):
        points, nlist = INPUTS[name]
        assert_same_result(
            kmeans(points, nlist, n_iter=n_iter, seed=3),
            ref_kmeans(points, nlist, n_iter=n_iter, seed=3),
        )

    def test_assignment_is_nearest_ordered_mode(self, name):
        points, nlist = INPUTS[name]
        result, labels = kmeans_assign(points, nlist, seed=5)
        assert_same_result(result, ref_kmeans(points, nlist, seed=5))
        assert np.array_equal(
            labels, ref_nearest_centroid(points, result.modes)
        )

    @pytest.mark.parametrize("kmeans_iters", [0, 10])
    def test_index_build(self, name, kmeans_iters):
        points, nlist = INPUTS[name]
        index = IVFIndex(points, nlist=nlist, kmeans_iters=kmeans_iters)
        reference = ref_ivf_build(
            points, nlist=nlist, kmeans_iters=kmeans_iters
        )
        assert_same_index(index, reference)


class TestIndexBuildPaths:
    def test_sample_path(self):
        """n > train_sample: k-means on a sample, then a full pass."""
        points = clustered(1500, 16, 10, 9)
        index = IVFIndex(points, nlist=24, train_sample=400, seed=2)
        assert_same_index(
            index, ref_ivf_build(points, nlist=24, train_sample=400, seed=2)
        )

    def test_sample_path_with_zero_rows(self):
        points = with_zero_rows(1200, 8, 10, every=5)
        index = IVFIndex(points, nlist=16, train_sample=300, seed=4)
        assert_same_index(
            index, ref_ivf_build(points, nlist=16, train_sample=300, seed=4)
        )

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_trained_word_matrix(self, tiny_actor, seed):
        matrix = tiny_actor.modality_cache("word").normalized
        index = IVFIndex(matrix, nlist=64, seed=seed)
        assert_same_index(index, ref_ivf_build(matrix, nlist=64, seed=seed))

    def test_default_blocks_match_one_block(self):
        """The budgeted score blocks give the one-block labels."""
        points = uniform(3000, 32, 11)
        centroids = uniform(1500, 32, 12)  # 1398-row default blocks
        assert np.array_equal(
            nearest_centroid(points, centroids),
            ref_nearest_centroid(points, centroids),
        )
