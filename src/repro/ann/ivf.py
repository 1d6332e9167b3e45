"""IVF-style inverted-file ANN index over one normalized embedding matrix.

The exact query path scores every vertex of a modality — an O(V) matrix
product per query that caps serving far below the "millions of vertices"
target.  :class:`IVFIndex` makes retrieval sub-linear the classic IVF way:

* **build** — a spherical k-means coarse quantizer
  (:func:`repro.ann.kmeans.kmeans`, trained on a bounded sample) carves
  the matrix into ``nlist`` Voronoi cells, and every row goes to its
  nearest centroid's *inverted list* (a CSR pair: ``list_rows`` ordered
  by cell then ascending row id, plus ``list_offsets``).  When the sample
  is the whole matrix, the quantizer's final Lloyd pass already placed
  every row (:func:`repro.ann.kmeans.kmeans_assign`); a larger matrix
  gets one chunked assignment pass of its own;
* **search** — each query scores the ``nlist`` centroids (one small
  matrix product), probes its ``nprobe`` best cells, and cosine-scores
  only the rows of those lists with the same row-dot ``einsum`` kernel
  the exact engine uses (:func:`~repro.core.prediction
  .cosine_similarities`), then ranks them with the shared
  :func:`~repro.core.prediction.top_k` — stable ties by ascending row id,
  matching the exact path's tie contract.

Every per-query step depends only on that query and the index state, so a
query's result is bit-identical whether searched alone or inside any
batch — the coalescing-parity property serving relies on.  Probing all
``nlist`` cells degrades gracefully to exact brute force over the same
kernel (the recall tests' reference point).

The index is a *snapshot*: it never mutates with the store.  Freshness is
the owner's job — :class:`repro.ann.engine.IndexedQueryEngine` stamps
each index with the store's ``version`` counter and rebuilds lazily when
the counter moves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.ann.kmeans import (
    kmeans,
    kmeans_assign,
    nearest_centroid,
    stable_order,
)
from repro.core.prediction import top_k
from repro.utils.validation import check_positive

__all__ = ["IVFIndex", "SearchStats"]


@dataclass
class SearchStats:
    """Probe accounting for one :meth:`IVFIndex.search` call.

    Attributes
    ----------
    n_queries:
        Queries answered by the call.
    nprobe:
        Cells probed per query.
    probed_rows:
        Total candidate rows scored across all queries.
    total_rows:
        ``n_queries * index.n_rows`` — what exact scoring would have cost.
    """

    n_queries: int
    nprobe: int
    probed_rows: int
    total_rows: int

    @property
    def probed_fraction(self) -> float:
        """Scored fraction of the exact workload (lower = more sub-linear)."""
        if self.total_rows == 0:
            return 0.0
        return self.probed_rows / self.total_rows


class IVFIndex:
    """Inverted-file ANN index over a row-L2-normalized matrix.

    Parameters
    ----------
    matrix:
        ``(n, d)`` float matrix with **L2-normalized rows** (zero rows are
        allowed and score 0 everywhere, the OOV convention).  Callers pass
        the store's cached ``normalized()`` view; the index keeps a
        reference, not a copy.
    nlist:
        Number of inverted lists (clamped to ``n``).
    nprobe:
        Default cells probed per query (clamped to ``nlist``;
        overridable per search).
    seed:
        Quantizer-training RNG seed — builds are deterministic.
    train_sample:
        k-means trains on at most this many rows (one more assignment
        pass then places every row); keeps million-row builds bounded.
    kmeans_iters:
        Lloyd iterations for the quantizer.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        *,
        nlist: int = 256,
        nprobe: int = 8,
        seed: int = 0,
        train_sample: int = 65_536,
        kmeans_iters: int = 10,
    ) -> None:
        check_positive("nlist", nlist)
        check_positive("nprobe", nprobe)
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ValueError(
                f"matrix must be non-empty and 2-D, got shape {matrix.shape}"
            )
        start = time.perf_counter()
        self.matrix = matrix
        n = matrix.shape[0]
        self.nlist = int(min(nlist, n))
        self.nprobe = int(min(nprobe, self.nlist))
        rng = np.random.default_rng(seed)
        if n > int(train_sample):
            sample = matrix[
                rng.choice(n, size=int(train_sample), replace=False)
            ]
            result = kmeans(
                sample, self.nlist, n_iter=int(kmeans_iters), seed=rng
            )
            labels = nearest_centroid(matrix, result.modes)
        else:
            # The sample is the whole matrix: the final Lloyd pass has
            # already placed every row.
            result, labels = kmeans_assign(
                matrix, self.nlist, n_iter=int(kmeans_iters), seed=rng
            )
        self.centroids = result.modes
        # kmeans may merge nothing but can only return <= nlist centroids
        # when the sample had fewer distinct points; track the real count.
        self.nlist = self.centroids.shape[0]
        self.nprobe = int(min(self.nprobe, self.nlist))
        counts = np.bincount(labels, minlength=self.nlist)
        # Stable sort by cell keeps rows ascending *within* each list, so
        # per-query candidate sets re-sort cheaply into the global
        # ascending order the tie contract needs.
        self.list_rows = stable_order(labels, self.nlist).astype(
            np.int64, copy=False
        )
        self.list_offsets = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(np.int64)
        self.build_seconds = time.perf_counter() - start

    # ------------------------------------------------------------- properties

    @property
    def n_rows(self) -> int:
        """Number of indexed vertices."""
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        """Embedding dimension."""
        return self.matrix.shape[1]

    @property
    def list_sizes(self) -> np.ndarray:
        """Rows per inverted list (length ``nlist``)."""
        return np.diff(self.list_offsets)

    def __repr__(self) -> str:
        """Shape summary, e.g. ``IVFIndex(1000000x32, nlist=1024)``."""
        return (
            f"IVFIndex({self.n_rows}x{self.dim}, nlist={self.nlist}, "
            f"nprobe={self.nprobe})"
        )

    # ----------------------------------------------------------------- search

    def candidate_rows(self, probes: np.ndarray) -> np.ndarray:
        """All indexed rows of the probed cells, ascending by row id."""
        parts = [
            self.list_rows[self.list_offsets[c] : self.list_offsets[c + 1]]
            for c in probes
        ]
        rows = np.concatenate(parts) if parts else np.empty(0, np.int64)
        # Each list is ascending already; np.sort merges the sorted runs.
        return np.sort(rows)

    def probe_cells(
        self, queries: np.ndarray, nprobe: int
    ) -> np.ndarray:
        """The ``nprobe`` best cells per query (stable under tied scores)."""
        cell_scores = queries @ self.centroids.T
        return np.argsort(-cell_scores, kind="stable", axis=1)[:, :nprobe]

    def search(
        self,
        queries: np.ndarray,
        k: int,
        *,
        nprobe: int | None = None,
    ) -> tuple[list[np.ndarray], list[np.ndarray], SearchStats]:
        """Approximate top-``k`` rows and cosine scores per query.

        ``queries`` is ``(q, d)`` with L2-normalized rows (a zero query
        scores 0 everywhere and deterministically probes the first
        ``nprobe`` cells).  Returns ``(rows, scores, stats)`` where
        ``rows[i]`` / ``scores[i]`` hold query ``i``'s best probed rows in
        descending score order (ties by ascending row id, the exact
        path's order) — possibly fewer than ``k`` when the probed cells
        hold fewer rows.  Results for each query are independent of the
        rest of the batch.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(
                f"queries must be 2-D with dim {self.dim}, got shape "
                f"{queries.shape}"
            )
        nprobe = self.nprobe if nprobe is None else int(nprobe)
        check_positive("nprobe", nprobe)
        nprobe = min(nprobe, self.nlist)
        probes = self.probe_cells(queries, nprobe)
        rows_out: list[np.ndarray] = []
        scores_out: list[np.ndarray] = []
        probed = 0
        for i in range(queries.shape[0]):
            rows = self.candidate_rows(probes[i])
            probed += rows.shape[0]
            # Same row-dot einsum kernel as the exact engine's
            # cosine_similarities; rows and query are both normalized.
            scores = np.einsum("nd,d->n", self.matrix[rows], queries[i])
            order = top_k(scores, k)
            rows_out.append(rows[order])
            scores_out.append(scores[order])
        stats = SearchStats(
            n_queries=queries.shape[0],
            nprobe=nprobe,
            probed_rows=probed,
            total_rows=queries.shape[0] * self.n_rows,
        )
        return rows_out, scores_out, stats
