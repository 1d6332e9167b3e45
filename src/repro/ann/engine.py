"""The :class:`IndexedQueryEngine`: ANN retrieval behind the engine seam.

A drop-in :class:`~repro.core.query_engine.QueryEngine` subclass that
answers *full-vocabulary* retrieval (nearest-neighbor search over every
unit of a modality) through per-modality :class:`~repro.ann.ivf.IVFIndex`
instances instead of a dense O(V) scan.  Everything else — explicit
candidate ranking (``rank_batch`` / ``score_ragged_batch``), query
composition, MRR evaluation — inherits the exact vectorized paths
unchanged; that inheritance *is* the exact fallback matrix that keeps
Table-2 ranking identical under the index.  Every modality in
:data:`ANN_MODALITIES` gets an index; ``user`` neighbors stay exact.

Freshness: every index is stamped with the same
``(model.query_version, id(model.center))`` key the engine's modality
caches use.  The store's monotonic ``version`` counter advances on every
mutation path (refit, streamed ``partial_fit`` growth, in-place SGD
bursts, eviction churn), so a stale index can never be served — the next
:meth:`IndexedQueryEngine.index_for` call notices the moved stamp and
rebuilds lazily, keeping write bursts cheap (no eager rebuild per batch).

Telemetry: builds are the ``ann.build`` stage (``ann.build_seconds``
histogram and span) plus ``ann.index_builds`` / per-modality row gauges;
every search is the leaf stage ``query.ann_search`` (histogram, span and
the request trace's ``ann_search`` key) and records the
``ann.probed_fraction`` histogram (scored fraction of the exact
workload) and the ``ann.searches`` counter.
"""

from __future__ import annotations

from collections.abc import Hashable

import numpy as np

from repro.ann.ivf import IVFIndex
from repro.core.prediction import normalize_rows
from repro.core.query_engine import QueryEngine
from repro.utils.tracing import note_value
from repro.utils.validation import check_positive

__all__ = ["IndexedQueryEngine", "ANN_MODALITIES"]

ANN_MODALITIES = ("word", "time", "location")


class IndexedQueryEngine(QueryEngine):
    """Query engine with IVF-accelerated nearest-neighbor retrieval.

    Parameters
    ----------
    model:
        Any fitted :class:`~repro.core.prediction.GraphEmbeddingModel`.
    nlist:
        Inverted lists per modality index (clamped per modality to its
        vocabulary size).
    nprobe:
        Default cells probed per query; raise toward ``nlist`` for
        recall, lower for speed (``nprobe == nlist`` is exact coverage).
    **engine_kwargs:
        Forwarded to :class:`~repro.core.query_engine.QueryEngine`
        (metrics, tracer).

    Each index is built with :class:`~repro.ann.ivf.IVFIndex`'s default
    seed, training sample and k-means iterations.
    """

    def __init__(
        self,
        model,
        *,
        nlist: int = 256,
        nprobe: int = 8,
        **engine_kwargs,
    ) -> None:
        super().__init__(model, **engine_kwargs)
        check_positive("nlist", nlist)
        check_positive("nprobe", nprobe)
        self.nlist = int(nlist)
        self.nprobe = int(nprobe)
        # modality -> (stamp, IVFIndex); stamp mirrors the modality-cache
        # key so index and cache can never disagree about freshness.
        self._indexes: dict[str, tuple[tuple, IVFIndex]] = {}

    # ------------------------------------------------------------- the index

    def _stamp(self) -> tuple:
        """The freshness key: store version + center-matrix identity."""
        return (self.model.query_version, id(self.model.center))

    def index_for(self, modality: str) -> IVFIndex:
        """The (lazily built, version-checked) index of ``modality``.

        Rebuilt from the store's cached normalized rows whenever the
        store version moved or the center matrix was replaced — the same
        invalidation rule as
        :meth:`~repro.core.prediction.GraphEmbeddingModel.modality_cache`.
        """
        if modality not in ANN_MODALITIES:
            raise ValueError(
                f"modality {modality!r} is not ANN-indexed "
                f"(indexed: {ANN_MODALITIES})"
            )
        # Resolving the cache first refreshes normalized rows AND the
        # version stamp in one step, so the index is built from exactly
        # the rows the stamp certifies.
        cache = self.model.modality_cache(modality)
        stamp = self._stamp()
        entry = self._indexes.get(modality)
        if entry is not None and entry[0] == stamp:
            return entry[1]
        with self._stage("ann.build", modality=modality):
            index = IVFIndex(
                cache.normalized, nlist=self.nlist, nprobe=self.nprobe
            )
            self.metrics.counter("ann.index_builds").inc()
            self.metrics.gauge(f"ann.index_rows.{modality}").set(
                index.n_rows
            )
            self.metrics.gauge(f"ann.index_nlist.{modality}").set(
                index.nlist
            )
        self._indexes[modality] = (stamp, index)
        return index

    def ann_status(self) -> dict:
        """Configuration + per-modality index state (for ``/varz``)."""
        indexes = {}
        for modality, (stamp, index) in self._indexes.items():
            indexes[modality] = {
                "rows": index.n_rows,
                "nlist": index.nlist,
                "build_seconds": round(index.build_seconds, 4),
                "stale": stamp != self._stamp(),
            }
        return {
            "nlist": self.nlist,
            "nprobe": self.nprobe,
            "modalities": list(ANN_MODALITIES),
            "indexes": indexes,
        }

    # ----------------------------------------------------------------- search

    def search(
        self,
        modality: str,
        query_vectors,
        k: int,
        *,
        nprobe: int | None = None,
    ) -> list[list[tuple[Hashable, float]]]:
        """ANN top-``k`` units of ``modality`` for a batch of raw vectors.

        Returns one ``[(unit key, cosine score), ...]`` list per query —
        the batched counterpart of
        :meth:`~repro.core.prediction.GraphEmbeddingModel.neighbors`,
        restricted to the probed inverted lists.  Each query's result
        depends only on that query and the index snapshot, so searching
        alone and searching inside a batch are bit-identical (the
        coalescing-parity contract).
        """
        index = self.index_for(modality)
        cache = self.model.modality_cache(modality)
        queries = normalize_rows(
            np.asarray(query_vectors, dtype=float).reshape(-1, index.dim)
        )
        with self._stage(
            "query.ann_search",
            key="ann_search",
            modality=modality,
            n_queries=queries.shape[0],
        ) as search:
            rows_list, scores_list, stats = index.search(
                queries, k, nprobe=nprobe
            )
            search.set(probed_fraction=stats.probed_fraction)
        note_value("ann.probed_fraction", stats.probed_fraction)
        self.metrics.counter("ann.searches").inc(stats.n_queries)
        self.metrics.histogram("ann.probed_fraction").observe(
            stats.probed_fraction
        )
        keys = cache.keys
        return [
            [(keys[int(r)], float(s)) for r, s in zip(rows, scores)]
            for rows, scores in zip(rows_list, scores_list)
        ]

    def neighbors(
        self, query_vec, modality: str, k: int = 10
    ) -> list[tuple[Hashable, float]]:
        """ANN override of the exact engine-level neighbor search.

        Indexed modalities ride :meth:`search`; anything outside
        :data:`ANN_MODALITIES` (``user``), or a modality with no units
        to index, falls back to the exact dense scan, so the engine
        answers every modality either way.
        """
        if modality not in ANN_MODALITIES:
            return super().neighbors(query_vec, modality, k)
        if not self.model.modality_cache(modality).keys:
            return super().neighbors(query_vec, modality, k)
        return self.search(modality, [query_vec], k)[0]
