"""Scatter-gather query engines over hash-sharded embedding replicas.

:class:`ShardedQueryEngine` answers full-vocabulary retrieval by fanning
one query out to per-shard replicas of the modality matrix, taking a
local top-k on each shard, and merging the per-shard candidates under
the exact path's total order.  The merge is **bit-exact** against the
unsharded :class:`~repro.core.query_engine.QueryEngine` because

* the scoring kernel is a per-row ``einsum`` — each row's cosine score
  depends only on that row and the query, never on which rows surround
  it, so a shard-local gather scores identically to the full scan;
* :func:`~repro.core.prediction.top_k`'s contract (descending score,
  ties by ascending position, NaNs last) is a *total order*, and the
  global top-k under a total order is always a subset of the union of
  per-shard top-k's — merging the union under the same order
  (``np.lexsort`` on ``(position, -score)``) reproduces the unsharded
  ranking exactly.

:class:`ShardedIndexedQueryEngine` adds a per-``(modality, shard)``
:class:`~repro.ann.ivf.IVFIndex` so each shard probes sub-linearly
before the same merge; with ``nprobe == nlist`` each shard covers every
row and the result matches the exact engines up to tie order inside the
IVF candidate gather.

Both engines time the fan-out and the merge as the leaf stages
``query.scatter`` / ``query.merge`` (request-trace keys ``scatter`` /
``merge``), so request traces and tail-latency attribution see sharding
as first-class pipeline stages.
The fan-out runs on a thread pool when more than one shard is
configured (the einsum kernel releases the GIL); the merge is performed
after all shards return, so thread scheduling never affects results.
"""

from __future__ import annotations

from collections.abc import Hashable
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.ann.engine import ANN_MODALITIES
from repro.ann.ivf import IVFIndex
from repro.core.prediction import normalize_rows, top_k
from repro.core.query_engine import QueryEngine
from repro.sharding.partitioner import HashPartitioner
from repro.sharding.store import ShardedStore
from repro.utils.tracing import note_value
from repro.utils.validation import check_positive

__all__ = ["ShardedQueryEngine", "ShardedIndexedQueryEngine", "merge_topk"]


def merge_topk(positions, scores, k: int):
    """Merge per-shard candidates under the exact-path total order.

    ``positions`` / ``scores`` are the concatenated per-shard top-k
    candidates (global modality positions and their cosine scores).
    Returns the indices of the ``k`` winners into those arrays, ordered
    exactly as the unsharded scan would order them: descending score,
    ties broken by ascending position, NaNs last (``np.lexsort`` places
    NaN keys last, matching ``np.argsort`` inside
    :func:`~repro.core.prediction.top_k`).
    """
    positions = np.asarray(positions)
    scores = np.asarray(scores)
    order = np.lexsort((positions, -scores))
    return order[: min(k, order.shape[0])]


class _Replica:
    """One shard's slice of a modality: global positions + normalized rows."""

    __slots__ = ("positions", "normalized")

    def __init__(self, positions: np.ndarray, normalized: np.ndarray) -> None:
        self.positions = positions
        self.normalized = normalized


class ShardedQueryEngine(QueryEngine):
    """Exact scatter-gather retrieval over ``n_shards`` replicas.

    Parameters
    ----------
    model:
        Any fitted :class:`~repro.core.prediction.GraphEmbeddingModel`.
    n_shards:
        Fan-out width.  ``None`` adopts the model's
        :class:`~repro.sharding.ShardedStore` shard count when the model
        is store-sharded, else ``1`` — so the engine works both on
        sharded bundles and as a pure serving-side fan-out over an
        unsharded store.
    scatter_threads:
        Worker threads for the fan-out; ``None`` picks
        ``min(n_shards, cores)``, ``0``/``1`` scatters serially.
    **engine_kwargs:
        Forwarded to :class:`~repro.core.query_engine.QueryEngine`.
    """

    def __init__(
        self,
        model,
        *,
        n_shards: int | None = None,
        scatter_threads: int | None = None,
        **engine_kwargs,
    ) -> None:
        super().__init__(model, **engine_kwargs)
        if n_shards is None:
            store = getattr(model, "_store", None) or getattr(
                model, "store", None
            )
            n_shards = (
                store.n_shards if isinstance(store, ShardedStore) else 1
            )
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)
        self.partitioner = HashPartitioner(self.n_shards)
        if scatter_threads is None:
            try:
                import os

                cores = len(os.sched_getaffinity(0))
            except (AttributeError, OSError):  # pragma: no cover - non-linux
                cores = 1
            scatter_threads = min(self.n_shards, cores)
        self.scatter_threads = int(scatter_threads)
        # modality -> (stamp, [replica per shard]); stamp mirrors the
        # modality-cache key so replicas can never serve stale rows.
        self._replicas: dict[str, tuple[tuple, list[_Replica]]] = {}
        self._executor: ThreadPoolExecutor | None = None

    # -------------------------------------------------------------- replicas

    def _stamp(self) -> tuple:
        """The freshness key: store version + center-matrix identity."""
        return (self.model.query_version, id(self.model.center))

    def replicas_for(self, modality: str) -> list[_Replica]:
        """Per-shard replicas of ``modality`` (lazily rebuilt on staleness).

        Rows are gathered from the modality cache's normalized matrix —
        a per-row operation, so every replica row is bit-identical to
        the corresponding row of the unsharded scan.  Shard ownership is
        hashed from the underlying *store* row id, matching the training
        layout when the model is store-sharded.
        """
        cache = self.model.modality_cache(modality)
        stamp = self._stamp()
        entry = self._replicas.get(modality)
        if entry is not None and entry[0] == stamp:
            return entry[1]
        _, rows = self.model.modality_rows(modality)
        assign = self.partitioner.shard_of(np.asarray(rows, dtype=np.int64))
        replicas = []
        for s in range(self.n_shards):
            positions = np.flatnonzero(assign == s)
            replicas.append(
                _Replica(
                    positions,
                    np.ascontiguousarray(cache.normalized[positions]),
                )
            )
        self._replicas[modality] = (stamp, replicas)
        return replicas

    def shard_status(self) -> dict:
        """Fan-out configuration + per-modality replica state (``/varz``)."""
        modalities = {}
        for modality, (stamp, replicas) in self._replicas.items():
            modalities[modality] = {
                "rows_per_shard": [
                    int(r.positions.shape[0]) for r in replicas
                ],
                "stale": stamp != self._stamp(),
            }
        return {
            "n_shards": self.n_shards,
            "partitioner": "splitmix64",
            "scatter_threads": self.scatter_threads,
            "modalities": modalities,
        }

    # --------------------------------------------------------------- scatter

    def _map_shards(self, fn, replicas: list[_Replica]) -> list:
        """Run ``fn(shard, replica)`` over every shard; ordered results.

        Threaded when configured (the scoring einsum releases the GIL),
        serial otherwise; results are collected in shard order either
        way, so downstream merges are deterministic regardless of
        scheduling.
        """
        if self.scatter_threads > 1 and len(replicas) > 1:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.scatter_threads,
                    thread_name_prefix="repro-scatter",
                )
            futures = [
                self._executor.submit(fn, s, replica)
                for s, replica in enumerate(replicas)
            ]
            return [f.result() for f in futures]
        return [fn(s, replica) for s, replica in enumerate(replicas)]

    def neighbors(
        self, query_vec, modality: str, k: int = 10
    ) -> list[tuple[Hashable, float]]:
        """Scatter-gather top-``k``; bit-exact vs the unsharded engine.

        Each shard scores its replica with the same per-row einsum the
        dense scan uses and returns its local top-k under the shared tie
        contract; the union is merged by :func:`merge_topk`.  The two
        phases are the ``query.scatter`` and ``query.merge`` stages of
        the calling thread (the stage sink is thread-local), and the
        fan-out width is noted as ``shards.fanout``.
        """
        cache = self.model.modality_cache(modality)
        replicas = self.replicas_for(modality)
        query = np.asarray(query_vec, dtype=float)
        norm = np.linalg.norm(query)
        unit = query / norm if norm > 0 else None

        def one_shard(_s: int, replica: _Replica):
            """Score one replica and return its local top-k candidates."""
            if unit is not None:
                scores = np.einsum("nd,d->n", replica.normalized, unit)
            else:
                scores = np.zeros(replica.normalized.shape[0])
            order = top_k(scores, k)
            return replica.positions[order], scores[order]

        with self._stage("query.scatter", key="scatter"):
            results = self._map_shards(one_shard, replicas)

        with self._stage("query.merge", key="merge"):
            positions = np.concatenate([r[0] for r in results])
            scores = np.concatenate([r[1] for r in results])
            sel = merge_topk(positions, scores, k)
            out = [
                (cache.keys[int(positions[i])], float(scores[i]))
                for i in sel
            ]
        note_value("shards.fanout", self.n_shards)
        return out

    # ----------------------------------------------------------------- pickle

    def __getstate__(self) -> dict:
        """Drop the thread pool (it is recreated on first use)."""
        state = self.__dict__.copy()
        state["_executor"] = None
        return state


class ShardedIndexedQueryEngine(ShardedQueryEngine):
    """Scatter-gather retrieval with one IVF index per (modality, shard).

    Each shard probes its own :class:`~repro.ann.ivf.IVFIndex` (built
    over that shard's replica rows) and the per-shard candidates merge
    under the exact tie contract, so recall degrades per shard exactly
    as it does for the unsharded ANN engine; ``nprobe == nlist`` is full
    per-shard coverage.  Build parameters mirror
    :class:`~repro.ann.engine.IndexedQueryEngine`.
    """

    def __init__(
        self,
        model,
        *,
        nlist: int = 256,
        nprobe: int = 8,
        ann_modalities: tuple[str, ...] = ANN_MODALITIES,
        index_seed: int = 0,
        train_sample: int = 65_536,
        kmeans_iters: int = 10,
        **engine_kwargs,
    ) -> None:
        super().__init__(model, **engine_kwargs)
        check_positive("nlist", nlist)
        check_positive("nprobe", nprobe)
        unknown = set(ann_modalities) - set(ANN_MODALITIES)
        if unknown:
            raise ValueError(
                f"ann_modalities must be drawn from {ANN_MODALITIES}, "
                f"got unknown {sorted(unknown)}"
            )
        self.nlist = int(nlist)
        self.nprobe = int(nprobe)
        self.ann_modalities = tuple(ann_modalities)
        self.index_seed = int(index_seed)
        self.train_sample = int(train_sample)
        self.kmeans_iters = int(kmeans_iters)
        # modality -> (stamp, [IVFIndex per shard])
        self._indexes: dict[str, tuple[tuple, list[IVFIndex]]] = {}

    def indexes_for(self, modality: str) -> list[IVFIndex | None]:
        """Per-shard IVF indexes (lazily rebuilt with the replicas).

        A shard that owns no rows of the modality gets ``None`` — it
        contributes no candidates, exactly as the exact path scores an
        empty replica to an empty top-k.
        """
        if modality not in self.ann_modalities:
            raise ValueError(
                f"modality {modality!r} is not ANN-indexed "
                f"(indexed: {self.ann_modalities})"
            )
        replicas = self.replicas_for(modality)
        stamp = self._stamp()
        entry = self._indexes.get(modality)
        if entry is not None and entry[0] == stamp:
            return entry[1]
        with self._stage("ann.build", modality=modality, shards=len(replicas)):
            indexes = [
                IVFIndex(
                    replica.normalized,
                    nlist=self.nlist,
                    nprobe=self.nprobe,
                    seed=self.index_seed + s,
                    train_sample=self.train_sample,
                    kmeans_iters=self.kmeans_iters,
                )
                if replica.positions.shape[0] > 0
                else None
                for s, replica in enumerate(replicas)
            ]
            self.metrics.counter("ann.index_builds").inc(
                sum(1 for index in indexes if index is not None)
            )
        self._indexes[modality] = (stamp, indexes)
        return indexes

    def ann_status(self) -> dict:
        """Configuration + per-(modality, shard) index state (``/varz``)."""
        modalities = {}
        for modality, (stamp, indexes) in self._indexes.items():
            modalities[modality] = {
                "shards": [
                    {
                        "rows": index.n_rows,
                        "nlist": index.nlist,
                        "build_seconds": round(index.build_seconds, 4),
                    }
                    if index is not None
                    else {"rows": 0, "nlist": 0, "build_seconds": 0.0}
                    for index in indexes
                ],
                "stale": stamp != self._stamp(),
            }
        return {
            "nlist": self.nlist,
            "nprobe": self.nprobe,
            "n_shards": self.n_shards,
            "modalities": list(self.ann_modalities),
            "indexes": modalities,
        }

    def search(
        self,
        modality: str,
        query_vectors,
        k: int,
        *,
        nprobe: int | None = None,
    ) -> list[list[tuple[Hashable, float]]]:
        """Batched sharded ANN search; one ranked list per query.

        Every shard probes its index for the whole batch (``scatter``
        stage, threaded when configured), then each query's per-shard
        candidates merge under the exact tie contract (``merge`` stage).
        The mean per-shard probed fraction is noted as
        ``ann.probed_fraction``.
        """
        indexes = self.indexes_for(modality)
        replicas = self.replicas_for(modality)
        cache = self.model.modality_cache(modality)
        dim = self.model.dim
        queries = normalize_rows(
            np.asarray(query_vectors, dtype=float).reshape(-1, dim)
        )

        def one_shard(s: int, _replica: _Replica):
            """Probe one shard's index; empty shards yield no candidates."""
            if indexes[s] is None:
                n_queries = queries.shape[0]
                return (
                    [np.empty(0, dtype=np.int64)] * n_queries,
                    [np.empty(0)] * n_queries,
                    None,
                )
            return indexes[s].search(queries, k, nprobe=nprobe)

        with self._stage("query.scatter", key="scatter"):
            results = self._map_shards(one_shard, replicas)

        with self._stage("query.merge", key="merge"):
            out: list[list[tuple[Hashable, float]]] = []
            keys = cache.keys
            for q in range(queries.shape[0]):
                positions = np.concatenate(
                    [
                        replicas[s].positions[results[s][0][q]]
                        for s in range(self.n_shards)
                    ]
                )
                scores = np.concatenate(
                    [results[s][1][q] for s in range(self.n_shards)]
                )
                sel = merge_topk(positions, scores, k)
                out.append(
                    [
                        (keys[int(positions[i])], float(scores[i]))
                        for i in sel
                    ]
                )
        note_value("shards.fanout", self.n_shards)
        stats = [r[2] for r in results if r[2] is not None]
        probed = float(
            np.mean([s.probed_fraction for s in stats]) if stats else 0.0
        )
        note_value("ann.probed_fraction", probed)
        self.metrics.counter("ann.searches").inc(queries.shape[0])
        self.metrics.histogram("ann.probed_fraction").observe(probed)
        return out

    def neighbors(
        self, query_vec, modality: str, k: int = 10
    ) -> list[tuple[Hashable, float]]:
        """Sharded ANN neighbors; exact scatter-gather fallback otherwise.

        Non-indexed modalities (e.g. ``user``) and empty vocabularies
        ride the parent's exact scatter-gather path, so every modality
        is answered either way.
        """
        if modality not in self.ann_modalities:
            return super().neighbors(query_vec, modality, k)
        if not self.model.modality_cache(modality).keys:
            return super().neighbors(query_vec, modality, k)
        return self.search(modality, [query_vec], k)[0]
