"""Cross-modal prediction API (paper Sections 3 and 6.2.1).

Given any two of (time, location, text) the model must rank candidates for
the third: the query's available units are embedded and averaged, each
candidate is embedded, and candidates are ranked by cosine similarity —
"compute the cosine similarity of each candidate ... and rank them in the
descending order".

:class:`GraphEmbeddingModel` is the shared base for every embedding-based
model in this repository (ACTOR, CrossMap, LINE, metapath2vec): it owns the
built graphs plus an :class:`~repro.storage.base.EmbeddingStore` holding
the center/context matrices, and implements the full query surface — unit
lookup, query composition, candidate scoring and nearest-neighbor search.
``model.center`` / ``model.context`` remain plain ndarray attributes to
callers (they are properties delegating to the store), and the batched
query caches key off the store's monotonic ``version`` counter.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.graphs.builder import BuiltGraphs
from repro.graphs.types import NodeType
from repro.storage import DenseStore, EmbeddingStore
from repro.storage.base import normalize_rows, out_of_range, rescaled

__all__ = [
    "cosine_similarities",
    "rank_descending",
    "top_k",
    "normalize_rows",
    "ModalityCache",
    "GraphEmbeddingModel",
    "TARGETS",
]

TARGETS = ("text", "location", "time")

_MODALITY_TO_TYPE = {
    "time": NodeType.TIME,
    "location": NodeType.LOCATION,
    "word": NodeType.WORD,
    "user": NodeType.USER,
}


def cosine_similarities(query: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Cosine similarity of ``query`` against every row of ``matrix``.

    Zero vectors (an out-of-vocabulary candidate, an empty query) get
    similarity 0 rather than NaN.

    The row dots use ``einsum`` rather than BLAS ``matrix @ query``:
    blocked gemv kernels can return *different* floats for bit-identical
    rows depending on row position, which would make exact ties (duplicate
    candidates) position-dependent.  ``einsum`` accumulates every row the
    same way, so identical rows always score identically — the tie
    contract that the batched engine's rank parity relies on.  A query or
    row whose sum of squares under- or overflows is scored after
    :func:`~repro.storage.base.rescaled`, so every cosine stays in
    ``[-1, 1]`` up to rounding.
    """
    query_norm = np.linalg.norm(query)
    if out_of_range(query_norm):
        query = rescaled(query, query_norm)
        query_norm = np.linalg.norm(query)
    row_norms = np.linalg.norm(matrix, axis=1)
    scores = _cosines(query, query_norm, matrix, row_norms)
    redo = np.flatnonzero(out_of_range(row_norms))
    if redo.size:
        rows = rescaled(matrix[redo], row_norms[redo])
        scores[redo] = _cosines(
            query, query_norm, rows, np.linalg.norm(rows, axis=1)
        )
    return scores


def _cosines(query, query_norm, matrix, row_norms) -> np.ndarray:
    denom = query_norm * row_norms
    scores = np.zeros(matrix.shape[0])
    valid = denom > 0
    scores[valid] = np.einsum("ij,j->i", matrix[valid], query) / denom[valid]
    return scores


def rank_descending(scores: np.ndarray) -> np.ndarray:
    """1-based rank of each entry under descending-score order.

    Ties are broken by original position (stable), matching a ranked list.
    """
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty_like(order)
    ranks[order] = np.arange(1, scores.shape[0] + 1)
    return ranks


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` best scores, descending, with stable ties.

    Exactly equivalent to ``np.argsort(-scores, kind="stable")[:k]`` but
    O(n + k log k) via ``argpartition``: only the selected prefix is
    sorted.  Boundary ties (several candidates sharing the k-th score) are
    resolved by ascending original position, matching the stable full sort.
    """
    scores = np.asarray(scores)
    n = scores.shape[0]
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k >= n:
        return np.argsort(-scores, kind="stable")
    if np.isnan(scores).any():
        # argpartition makes no ordering promise for NaN: a NaN landing in
        # the prefix turns `threshold` into NaN, both filters below go
        # False, and the result can shrink below k.  The stable full sort
        # ranks NaN last (after every finite and infinite score), which is
        # the documented reference order, so defer to it for these rare
        # pathological inputs.
        return np.argsort(-scores, kind="stable")[:k]
    part = np.argpartition(-scores, k - 1)[:k]
    threshold = scores[part].min()
    chosen = np.flatnonzero(scores > threshold)
    need = k - chosen.shape[0]
    if need > 0:
        tied = np.flatnonzero(scores == threshold)[:need]
        chosen = np.concatenate([chosen, tied])
    return chosen[np.argsort(-scores[chosen], kind="stable")]


# normalize_rows moved to repro.storage.base (the store's normalized-view
# cache is the canonical producer); re-exported here for compatibility.


@dataclass
class ModalityCache:
    """Precomputed per-modality matrices for the batched query path.

    Attributes
    ----------
    keys:
        External unit keys, aligned with the matrix rows.
    matrix:
        Center vectors of the modality's units (one row per key).
    normalized:
        Row-L2-normalized copy of ``matrix`` (zero rows stay zero).
    position_of:
        ``key -> row`` mapping.  For time/location modalities
        :attr:`index_map` is the vectorized equivalent.
    index_map:
        Hotspot-index -> row array (``-1`` where the hotspot never became
        a graph node); ``None`` for keyword/user modalities.
    """

    keys: list[Hashable]
    matrix: np.ndarray
    normalized: np.ndarray
    position_of: dict[Hashable, int]
    index_map: np.ndarray | None = None


class GraphEmbeddingModel:
    """Query surface shared by every embedding model over the activity graph.

    Subclasses populate ``self.built`` (graphs + detector + vocab) and
    ``self.center`` / ``self.context`` embedding matrices in ``fit``.
    The matrices live in an :class:`~repro.storage.base.EmbeddingStore`
    (a :class:`~repro.storage.dense.DenseStore` unless another backend was
    adopted); the ``center``/``context`` attributes stay assignable exactly
    as before — assignment routes through ``store.set_matrix`` and bumps
    the store version, which is what invalidates the batched query caches.
    """

    built: BuiltGraphs

    # ----------------------------------------------------------------- storage

    @property
    def store(self) -> EmbeddingStore:
        """The model's embedding store (lazily a ``DenseStore``)."""
        store = self.__dict__.get("_store")
        if store is None:
            store = self.__dict__["_store"] = DenseStore()
        return store

    def adopt_store(self, store: EmbeddingStore) -> None:
        """Swap in a different storage backend (matrices travel with it).

        Any previously cached modality matrices are keyed off the old
        store's version and center identity, so they can never be served
        stale after adoption.
        """
        self.__dict__["_store"] = store

    @property
    def center(self) -> np.ndarray:
        """Center embedding matrix (zero-copy view from the store)."""
        return self.store.center

    @center.setter
    def center(self, value) -> None:
        """Replace the center matrix via the store (bumps its version)."""
        self.store.set_matrix("center", value)

    @property
    def context(self) -> np.ndarray:
        """Context embedding matrix (zero-copy view from the store)."""
        return self.store.context

    @context.setter
    def context(self, value) -> None:
        """Replace the context matrix via the store (bumps its version)."""
        self.store.set_matrix("context", value)

    def __setstate__(self, state: dict) -> None:
        """Unpickle, migrating pre-storage pickles transparently.

        Older pickles carry raw ``center``/``context`` ndarrays in
        ``__dict__`` (they were plain attributes then); fold them into a
        fresh :class:`DenseStore` so the loaded model speaks the store
        protocol like any other.
        """
        center = state.pop("center", None)
        context = state.pop("context", None)
        self.__dict__.update(state)
        if "_store" not in self.__dict__ and (
            center is not None or context is not None
        ):
            self.__dict__["_store"] = DenseStore(center, context)

    # ------------------------------------------------------------- unit level

    @property
    def dim(self) -> int:
        """Embedding dimension."""
        return self.center.shape[1]

    def unit_vector(self, modality: str, value) -> np.ndarray | None:
        """Embed one raw value of ``modality``; ``None`` if unmappable.

        * ``"time"`` — a timestamp (hours); snapped to its temporal hotspot.
        * ``"location"`` — an ``(x, y)`` pair; snapped to its spatial
          hotspot.
        * ``"word"`` — a keyword; ``None`` when pruned from the vocabulary.
        * ``"user"`` — a user name; ``None`` when unseen in training.
        """
        node = self._node_of(modality, value)
        return None if node is None else self.center[node]

    def _node_of(self, modality: str, value) -> int | None:
        if modality not in _MODALITY_TO_TYPE:
            raise ValueError(
                f"modality must be one of {sorted(_MODALITY_TO_TYPE)}, got {modality!r}"
            )
        activity = self.built.activity
        node_type = _MODALITY_TO_TYPE[modality]
        # Times/locations snap to their nearest hotspot first; a hotspot
        # that never co-occurred in training has no graph node, and such
        # queries fall back to None (-> zero vector) rather than raising,
        # matching the batched engine and the streaming model.
        if modality == "time":
            key: Hashable = int(
                self.built.detector.assign_temporal(np.asarray([value]))[0]
            )
        elif modality == "location":
            loc = np.asarray(value, dtype=float)[None, :]
            key = int(self.built.detector.assign_spatial(loc)[0])
        else:
            key = value
        if activity.has_node(node_type, key):
            return activity.index_of(node_type, key)
        return None

    def words_vector(self, words: Iterable[str]) -> np.ndarray:
        """Mean of the in-vocabulary word vectors (zeros if none survive).

        The sum is accumulated sequentially (``reduceat``) rather than via
        ``np.mean``'s pairwise summation so the result is bit-identical to
        the batched engine's segment sums for any bag size.
        """
        vectors = [
            v
            for v in (self.unit_vector("word", w) for w in words)
            if v is not None
        ]
        if not vectors:
            return np.zeros(self.dim)
        stacked = np.stack(vectors)
        return np.add.reduceat(stacked, [0], axis=0)[0] / len(vectors)

    # ------------------------------------------------------------ query level

    def query_vector(
        self,
        *,
        time: float | None = None,
        location: tuple[float, float] | None = None,
        words: Sequence[str] | None = None,
    ) -> np.ndarray:
        """Average of the available modalities' unit vectors."""
        parts: list[np.ndarray] = []
        if time is not None:
            vec = self.unit_vector("time", time)
            if vec is not None:
                parts.append(vec)
        if location is not None:
            vec = self.unit_vector("location", location)
            if vec is not None:
                parts.append(vec)
        if words is not None:
            parts.append(self.words_vector(words))
        if not parts:
            return np.zeros(self.dim)
        return np.mean(parts, axis=0)

    def candidate_vector(self, target: str, candidate) -> np.ndarray:
        """Embed one candidate of the ``target`` modality.

        Text candidates are word bags (sequences of keywords); location
        candidates are coordinate pairs; time candidates are timestamps.
        """
        if target == "text":
            return self.words_vector(candidate)
        if target == "location":
            vec = self.unit_vector("location", candidate)
        elif target == "time":
            vec = self.unit_vector("time", candidate)
        else:
            raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
        return np.zeros(self.dim) if vec is None else vec

    def score_candidates(
        self,
        *,
        target: str,
        candidates: Sequence,
        time: float | None = None,
        location: tuple[float, float] | None = None,
        words: Sequence[str] | None = None,
    ) -> np.ndarray:
        """Cosine score of every candidate against the query (higher = better)."""
        query = self.query_vector(time=time, location=location, words=words)
        matrix = np.stack(
            [self.candidate_vector(target, c) for c in candidates]
        )
        return cosine_similarities(query, matrix)

    # --------------------------------------------------------------- neighbors

    def modality_rows(
        self, modality: str
    ) -> tuple[list[Hashable], np.ndarray]:
        """All unit keys of ``modality`` with their store row indices.

        The row indices address both the center matrix and the store's
        normalized view, so callers gather whichever representation they
        need without materializing the other.  Streaming subclasses
        override this to append rows that grew past the base graph.
        """
        node_type = _MODALITY_TO_TYPE[modality]
        nodes = self.built.activity.nodes_of_type(node_type)
        keys = [self.built.activity.key_of(int(n)) for n in nodes]
        return keys, np.asarray(nodes, dtype=np.int64)

    def modality_vectors(
        self, modality: str
    ) -> tuple[list[Hashable], np.ndarray]:
        """All unit keys of ``modality`` with their center-vector matrix."""
        keys, rows = self.modality_rows(modality)
        return keys, self.store.view(rows)

    # ----------------------------------------------------------- batch caches

    @property
    def query_version(self) -> int:
        """Monotone counter invalidating the batched-query caches.

        This is the store's :attr:`~repro.storage.base.EmbeddingStore
        .version`: every mutation path — refit (``set_matrix``), streamed
        row growth (``grow``), and in-place SGD bursts (reported via
        :meth:`invalidate_query_cache`) — advances it, so a
        :class:`ModalityCache` is valid only while it stands still.
        """
        return self.store.version

    def invalidate_query_cache(self) -> None:
        """Bump the store version (embeddings changed in place).

        In-place SGD kernels write through store views without calling
        store methods; :meth:`~repro.core.streaming.OnlineActor
        .partial_fit` calls this once per burst so readers notice.
        """
        self.store.bump()

    def modality_cache(self, modality: str) -> ModalityCache:
        """The (lazily built, version-checked) :class:`ModalityCache`.

        Rebuilt whenever the store version moved or the store/center
        matrix object was replaced (a refit swaps both and may reset the
        version, hence the identity check); otherwise every call to
        :meth:`neighbors` and the batched query engine reuses the same
        normalized matrix instead of re-deriving it per query.  The
        normalized rows are gathered from the store's cached full
        normalized view — row-wise normalization makes the gather
        bit-identical to normalizing the gathered block directly.
        """
        cache: dict = self.__dict__.setdefault("_modality_caches", {})
        entry = cache.get(modality)
        center = self.center
        stamp = (self.query_version, id(center))
        if entry is not None and entry[0] == stamp and entry[2] is center:
            return entry[1]
        keys, rows = self.modality_rows(modality)
        matrix = self.store.view(rows)
        normalized = self.store.normalized("center")[rows]
        position_of = {key: i for i, key in enumerate(keys)}
        index_map = None
        if modality in ("time", "location"):
            n_hotspots = (
                self.built.detector.n_temporal
                if modality == "time"
                else self.built.detector.n_spatial
            )
            index_map = np.full(n_hotspots, -1, dtype=np.int64)
            for key, pos in position_of.items():
                index_map[int(key)] = pos
        built = ModalityCache(
            keys=keys,
            matrix=matrix,
            normalized=normalized,
            position_of=position_of,
            index_map=index_map,
        )
        # Hold a reference to the center matrix the cache was built from so
        # identity comparison stays meaningful (the array cannot be garbage
        # collected and its id reused).
        cache[modality] = (stamp, built, center)
        return built

    def query_engine(self):
        """The batched :class:`~repro.core.query_engine.QueryEngine`.

        Created on first use and shared afterwards; its per-modality
        caches follow :attr:`query_version`, so it stays valid across
        streaming updates.
        """
        engine = self.__dict__.get("_query_engine")
        if engine is None:
            from repro.core.query_engine import QueryEngine

            engine = self._query_engine = QueryEngine(self)
        return engine

    def neighbors(
        self, query_vec: np.ndarray, modality: str, k: int = 10
    ) -> list[tuple[Hashable, float]]:
        """Top-``k`` nearest units of ``modality`` to ``query_vec`` by cosine.

        Served from the cached normalized modality matrix with an
        ``argpartition`` top-k — no full sort, no per-call re-norming.
        """
        cache = self.modality_cache(modality)
        query = np.asarray(query_vec, dtype=float)
        norm = np.linalg.norm(query)
        if norm > 0:
            # einsum, not gemv: per-row accumulation order is independent
            # of row position, so a shard-local gather scores bit-equal
            # to this full scan (the merge contract, docs/architecture.md).
            scores = np.einsum("nd,d->n", cache.normalized, query / norm)
        else:
            scores = np.zeros(cache.matrix.shape[0])
        order = top_k(scores, k)
        return [(cache.keys[i], float(scores[i])) for i in order]
