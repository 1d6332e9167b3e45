"""Spherical k-means: the coarse quantizer behind the IVF ANN index.

The IVF index partitions an embedding matrix into ``nlist`` Voronoi cells
around k-means centroids.  Everything here operates on **row-L2-normalized**
vectors (the store's cached ``normalized()`` view), where nearest-by-cosine
and nearest-by-Euclidean coincide, so one dot-product ``argmax`` is the
assignment kernel — the same trick the query engine uses to turn cosine
scoring into a matrix product.  Assignment scores the points in row blocks
of at most :data:`SCORE_BLOCK_BYTES`, whatever the number of centroids.

This is deliberately the sibling of :mod:`repro.hotspots.meanshift`, the
repository's other mode-seeking clusterer, and shares its conventions:

* results come back as a :class:`~repro.hotspots.meanshift.MeanShiftResult`
  (modes ordered by descending support, labels, counts) so downstream code
  handles both clusterers uniformly;
* :func:`~repro.hotspots.meanshift.assign_nearest` is the independent
  KD-tree reference that :func:`nearest_centroid`'s dot-product assignment
  is validated against in the test suite;
* per-cluster means are sort + ``np.add.reduceat`` segment sums.  Here
  they run over the transposed sample (one ``(d, n)`` copy per
  :func:`kmeans` call), so each dimension's segments are contiguous; the
  labels sort stably on ``int16`` keys (a radix sort) whenever the
  cluster count fits.

Seeding is k-means++ (D² sampling): binned grid seeding — mean shift's
choice — degenerates in the 16-to-64-dimensional embedding spaces this
quantizer runs in, where almost every point occupies its own grid cell.
Each draw is the inverse-CDF draw ``Generator.choice(n, p=...)`` makes,
computed in reused buffers, so the seeds follow the same RNG stream.

Cost of one :func:`kmeans` call over ``n`` sample rows: ``n_clusters``
sequential seeding passes (a matrix-vector product each) plus ``n_iter +
1`` assignment passes (a matrix product each), fewer when the centroids
converge early.
"""

from __future__ import annotations

import numpy as np

from repro.hotspots.meanshift import MeanShiftResult
from repro.storage.base import normalize_rows
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive

__all__ = [
    "SCORE_BLOCK_BYTES",
    "kmeans",
    "kmeans_assign",
    "kmeans_seeds",
    "nearest_centroid",
    "stable_order",
]

#: Bytes of one assignment score block: a block holds about
#: ``SCORE_BLOCK_BYTES // (8 * n_centroids)`` rows.
SCORE_BLOCK_BYTES = 16 << 20


def _assign(
    points: np.ndarray,
    centroids: np.ndarray,
    chunk_rows: int | None = None,
    tied: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`nearest_centroid`; also marks rows whose best score is shared.

    With ``tied`` (a boolean array, one entry per point) given, the rows
    whose highest score two or more centroids reach are set in it: only
    those rows can change label when the centroids are reordered.
    """
    if chunk_rows is None:
        chunk_rows = SCORE_BLOCK_BYTES // (8 * max(1, centroids.shape[0]))
    n = points.shape[0]
    step = max(1, int(chunk_rows))
    scores = np.empty((min(step, n), centroids.shape[0]))
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, step):
        chunk = points[start : start + step]
        block = scores[: chunk.shape[0]]
        np.matmul(chunk, centroids.T, out=block)
        best = np.argmax(block, axis=1)
        out[start : start + step] = best
        if tied is not None:
            top = block[np.arange(best.shape[0]), best]
            tied[start : start + step] = (
                np.count_nonzero(block == top[:, None], axis=1) > 1
            )
    return out


def nearest_centroid(
    points: np.ndarray,
    centroids: np.ndarray,
    *,
    chunk_rows: int | None = None,
) -> np.ndarray:
    """Index of the highest-dot-product centroid for every point.

    On row-normalized inputs this is the nearest centroid under both
    cosine and Euclidean distance.  Scores are computed in row blocks of
    ``chunk_rows`` rows, by default as many as fit in
    :data:`SCORE_BLOCK_BYTES`, so no assignment materializes more than
    one such block at a time.  Ties resolve to the lowest centroid index
    (``np.argmax``), deterministically.
    """
    return _assign(np.asarray(points, dtype=float), centroids, chunk_rows)


def kmeans_seeds(
    points: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seed rows: D²-weighted sampling without replacement.

    Each new seed is drawn with probability proportional to its squared
    Euclidean distance from the nearest already-chosen seed; on normalized
    rows that distance is ``2 - 2 * cos``, so every update is one matrix
    product.  The draw is ``rng.choice(n, p=d2 / d2.sum())`` written out:
    normalized cumulative sum, one ``rng.random()``, right-side
    ``searchsorted``.  Degenerate inputs (every remaining point coincides
    with a seed) fall back to uniform draws so exactly ``n_clusters``
    seeds always come back.
    """
    n = points.shape[0]
    seeds = np.empty(n_clusters, dtype=np.int64)
    d2 = np.empty(n)
    dist = np.empty(n)
    cdf = np.empty(n)

    def update(row: int, out: np.ndarray) -> None:
        """``out = max(0, 2 - 2 * (points @ points[row]))``, op for op."""
        np.matmul(points, points[row], out=dist)
        np.multiply(2.0, dist, out=dist)
        np.subtract(2.0, dist, out=dist)
        np.maximum(0.0, dist, out=out)

    seeds[0] = rng.integers(n)
    update(seeds[0], d2)
    for i in range(1, n_clusters):
        total = float(d2.sum())
        if total > 0.0:
            np.divide(d2, total, out=cdf)
            np.cumsum(cdf, out=cdf)
            cdf /= cdf[-1]
            seeds[i] = cdf.searchsorted(rng.random(), side="right")
        else:
            seeds[i] = rng.integers(n)
        update(seeds[i], dist)
        np.minimum(d2, dist, out=d2)
    return seeds


def stable_order(labels: np.ndarray, n_clusters: int) -> np.ndarray:
    """``np.argsort(labels, kind="stable")``, on int16 keys when they fit.

    A stable order is unique, so the narrower keys (which numpy sorts
    with a radix sort) give the same permutation.
    """
    if n_clusters <= np.iinfo(np.int16).max + 1:
        labels = labels.astype(np.int16)
    return np.argsort(labels, kind="stable")


def _cluster_means(
    points_t: np.ndarray, labels: np.ndarray, n_clusters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster mean vectors via the sort + ``reduceat`` segment sum.

    ``points_t`` is the ``(d, n)`` transpose of the points, so each
    dimension's segments are contiguous runs.  Empty clusters come back
    as zero rows (with zero counts); the caller decides whether to keep
    their previous centroid or reseed.
    """
    order = stable_order(labels, n_clusters)
    sorted_labels = labels[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(sorted_labels)) + 1)
    )
    sums = np.zeros((n_clusters, points_t.shape[0]))
    sums[sorted_labels[starts]] = np.add.reduceat(
        points_t.take(order, axis=1), starts, axis=1
    ).T
    counts = np.bincount(labels, minlength=n_clusters)
    means = np.zeros_like(sums)
    np.divide(sums, counts[:, None], out=means, where=counts[:, None] > 0)
    return means, counts


def _lloyd(
    points: np.ndarray,
    n_clusters: int,
    n_iter: int,
    tol: float,
    seed: int | np.random.Generator | None,
    tied: np.ndarray | None = None,
) -> MeanShiftResult:
    """:func:`kmeans` on validated float ``points``.

    With ``tied`` given, the final assignment pass marks in it the rows
    whose best score several centroids share (see :func:`_assign`).
    """
    check_positive("n_clusters", n_clusters)
    n_clusters = int(min(n_clusters, points.shape[0]))
    rng = ensure_rng(seed)
    points_t = np.ascontiguousarray(points.T)
    centroids = normalize_rows(
        points[kmeans_seeds(points, n_clusters, rng)]
    )
    n_iter = int(n_iter)
    labels = _assign(points, centroids, tied=tied if n_iter <= 0 else None)
    for step in range(n_iter):
        means, counts = _cluster_means(points_t, labels, n_clusters)
        new_centroids = normalize_rows(means)
        # A cluster that emptied (or whose mean cancelled to zero) keeps
        # its previous centroid rather than collapsing to a zero row that
        # would attract nothing forever.
        dead = np.linalg.norm(new_centroids, axis=1) == 0
        new_centroids[dead] = centroids[dead]
        shift = float(
            np.linalg.norm(new_centroids - centroids, axis=1).max()
        )
        centroids = new_centroids
        last = shift < tol or step == n_iter - 1
        labels = _assign(points, centroids, tied=tied if last else None)
        if last:
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


def _as_points(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError(
            f"points must be a non-empty 2-D array, got shape {points.shape}"
        )
    return points


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    *,
    n_iter: int = 10,
    tol: float = 1e-4,
    seed: int | np.random.Generator | None = 0,
) -> MeanShiftResult:
    """Spherical k-means over row-normalized ``points``.

    Lloyd iterations with k-means++ seeding; centroids are re-normalized
    every step so the dot-product assignment stays a cosine assignment.
    ``n_clusters`` is clamped to the number of points.  Returns a
    :class:`~repro.hotspots.meanshift.MeanShiftResult` whose ``modes``
    are the centroids ordered by descending support, exactly like
    :func:`~repro.hotspots.meanshift.mean_shift`.
    """
    return _lloyd(_as_points(points), n_clusters, n_iter, tol, seed)


def kmeans_assign(
    points: np.ndarray,
    n_clusters: int,
    *,
    n_iter: int = 10,
    tol: float = 1e-4,
    seed: int | np.random.Generator | None = 0,
) -> tuple[MeanShiftResult, np.ndarray]:
    """:func:`kmeans` and ``nearest_centroid(points, result.modes)``.

    The assignment is the final Lloyd pass's, without a pass of its own:
    ``result.labels`` already index the ordered modes, and only the rows
    whose best score several centroids share are scored again, because
    a tie goes to the lowest index and so depends on the centroid order.
    """
    points = _as_points(points)
    tied = np.zeros(points.shape[0], dtype=bool)
    result = _lloyd(points, n_clusters, n_iter, tol, seed, tied)
    labels = result.labels.copy()
    if tied.any():
        labels[tied] = _assign(points[tied], result.modes)
    return result, labels
