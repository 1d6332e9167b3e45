"""Vectorized batch query engine for cross-modal prediction serving.

The scalar query surface of :class:`~repro.core.prediction.GraphEmbeddingModel`
embeds one unit at a time: a KD-tree snap per timestamp, a vector lookup per
word, an ``np.stack`` per candidate list.  That is fine for a single
interactive query but dominates MRR evaluation and any serving workload with
interpreter overhead.  :class:`QueryEngine` performs the same computation in
bulk:

* all query times / locations are snapped with **one**
  ``assign_temporal`` / ``assign_spatial`` call;
* word bags are embedded through a flattened keyword-row gather plus a
  single ``np.add.reduceat`` segment sum (the sort+reduceat idiom of
  :mod:`repro.embedding.sgns`, applied CSR-style: ``offsets`` play the role
  of the indptr array) — no per-word NumPy calls, no ``np.add.at``;
* an ``(n_queries, n_candidates)`` score block is one matrix product over
  pre-L2-normalized modality matrices.  These are gathered from the
  embedding store's cached normalized view and invalidated by the store's
  monotonic ``version`` counter, which every mutation path (refit, stream
  growth, in-place SGD bursts, eviction) advances — see
  :attr:`~repro.core.prediction.GraphEmbeddingModel.query_version` and
  :meth:`repro.storage.base.EmbeddingStore.normalized`.

The scalar path remains the reference implementation; :meth:`rank_batch` is
guaranteed rank-parity with :func:`repro.eval.mrr.query_rank` (enforced by
property tests): exact ties — identical candidate values, zero vectors —
resolve by original position in both paths, and non-tied scores differ by
far more than the last-ulp noise between matrix-product shapes.

Every phase is one :class:`~repro.utils.tracing.stage`: ``query.batch``
wraps an entry point, ``query.embed`` its query and candidate embedding,
and the leaf stages ``query.snap``, ``query.gather`` and ``query.score``
are timed once into their ``*_seconds`` histogram, their span and — inside
:func:`~repro.utils.tracing.collect_stages` — the request trace's ``snap``
/ ``gather`` / ``score`` keys.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np

from repro.core.prediction import (
    TARGETS,
    GraphEmbeddingModel,
    normalize_rows,
)
from repro.utils.metrics import MetricsRegistry
from repro.utils.tracing import NULL_TRACER, stage

__all__ = ["QueryEngine", "dedup_candidates"]


def dedup_candidates(flat: Sequence) -> tuple[list, np.ndarray]:
    """First-seen unique candidates plus the inverse gather indices.

    Serving traffic repeats hot candidates heavily (the load generator's
    Zipf popularity makes the same venues/timestamps ride along in most
    coalesced batches), so the ragged scorer embeds each distinct value
    once and scatters the rows back through ``inverse``.  Candidate
    embedding is content-deterministic row by row, which makes the
    dedup + gather bit-identical to embedding the full flattened list.

    Values are keyed by their own hash; unhashable sequences (lists,
    arrays) fall back to a flattened-tuple key.  Returns
    ``(unique, inverse)`` with ``unique[inverse[i]]`` the i-th original
    candidate.
    """
    index_of: dict = {}
    unique: list = []
    inverse = np.empty(len(flat), dtype=np.int64)
    for i, cand in enumerate(flat):
        key: Hashable
        try:
            hash(cand)
            key = cand
        except TypeError:
            key = tuple(np.asarray(cand).ravel().tolist())
        pos = index_of.get(key)
        if pos is None:
            pos = index_of[key] = len(unique)
            unique.append(cand)
        inverse[i] = pos
    return unique, inverse


class QueryEngine:
    """Batched scoring/ranking over a fitted :class:`GraphEmbeddingModel`.

    Parameters
    ----------
    model:
        Any fitted embedding model exposing the shared query surface
        (ACTOR, OnlineActor, CrossMap, LINE, metapath2vec, QueryModel).
    metrics:
        Optional :class:`~repro.utils.metrics.MetricsRegistry`; falls back
        to the model's own registry when it has one, else a private one.
        Counter ``query.queries`` records the serving load; latency
        histograms ``query.batch_seconds`` / ``query.embed_seconds`` /
        ``query.snap_seconds`` / ``query.gather_seconds`` /
        ``query.score_seconds`` break each batch into its embedding
        (hotspot snap, word gather) and scoring phases.
    tracer:
        Optional :class:`~repro.utils.tracing.Tracer`.  Each batch emits a
        ``query.batch`` span (``op`` names the entry point) with
        ``query.embed`` (``query.snap`` / ``query.gather`` children) and
        ``query.score`` children.  Defaults to the no-op tracer.
    """

    def __init__(
        self,
        model: GraphEmbeddingModel,
        *,
        metrics: MetricsRegistry | None = None,
        tracer=None,
    ) -> None:
        if metrics is None:
            metrics = getattr(model, "metrics", None)
        self.model = model
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @property
    def dim(self) -> int:
        """Embedding dimension of the underlying model."""
        return self.model.dim

    def _stage(self, name: str, **kwargs) -> stage:
        """A :class:`~repro.utils.tracing.stage` feeding this engine's
        registry and tracer."""
        return stage(name, metrics=self.metrics, tracer=self.tracer, **kwargs)

    # ------------------------------------------------------------ unit level

    def embed_times(
        self, times: Sequence[float] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Embed many timestamps with one ``assign_temporal`` call.

        Returns ``(vectors, found)``: vectors of shape ``(n, d)`` (zero
        rows where the snapped hotspot never became a graph node) and the
        boolean ``found`` mask.
        """
        with self._stage("query.snap", key="snap", modality="time"):
            cache = self.model.modality_cache("time")
            values = np.asarray(times, dtype=float).ravel()
            idx = self.model.built.detector.assign_temporal(values)
            positions = cache.index_map[idx]
            found = positions >= 0
            vectors = np.zeros((values.shape[0], self.dim))
            vectors[found] = cache.matrix[positions[found]]
        return vectors, found

    def embed_locations(
        self, locations: Sequence | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Embed many ``(x, y)`` pairs with one ``assign_spatial`` call."""
        with self._stage("query.snap", key="snap", modality="location"):
            cache = self.model.modality_cache("location")
            coords = np.asarray(locations, dtype=float).reshape(-1, 2)
            idx = self.model.built.detector.assign_spatial(coords)
            positions = cache.index_map[idx]
            found = positions >= 0
            vectors = np.zeros((coords.shape[0], self.dim))
            vectors[found] = cache.matrix[positions[found]]
        return vectors, found

    def embed_word_bags(self, bags: Sequence[Sequence[str]]) -> np.ndarray:
        """Mean word vector per bag (zeros where no word is in-vocabulary).

        The bags are flattened CSR-style — one row-index array plus
        offsets — so the per-bag means come from a single gather and one
        ``np.add.reduceat`` segment sum, matching
        :meth:`GraphEmbeddingModel.words_vector` bag by bag.
        """
        with self._stage("query.gather", key="gather", bags=len(bags)):
            return self._embed_word_bags(bags)

    def _embed_word_bags(self, bags: Sequence[Sequence[str]]) -> np.ndarray:
        """Uninstrumented body of :meth:`embed_word_bags`."""
        cache = self.model.modality_cache("word")
        get = cache.position_of.get
        bag_sizes = np.fromiter(
            (len(bag) for bag in bags), dtype=np.int64, count=len(bags)
        )
        # One C-level pass over every word: vocabulary row or -1 for OOV.
        rows = np.fromiter(
            (get(word, -1) for bag in bags for word in bag),
            dtype=np.int64,
            count=int(bag_sizes.sum()),
        )
        out = np.zeros((len(bags), self.dim))
        valid = rows >= 0
        nonzero = bag_sizes > 0
        if not valid.any():
            return out
        # `rows` holds only words of non-empty bags, in bag order, so the
        # bag-size offsets segment both the OOV mask and the kept rows.
        offsets = np.concatenate(([0], np.cumsum(bag_sizes[nonzero][:-1])))
        lengths = np.zeros(len(bags), dtype=np.int64)
        lengths[nonzero] = np.add.reduceat(valid.astype(np.int64), offsets)
        nonempty = np.flatnonzero(lengths)
        offsets = np.concatenate(([0], np.cumsum(lengths[nonempty][:-1])))
        sums = np.add.reduceat(cache.matrix[rows[valid]], offsets, axis=0)
        out[nonempty] = sums / lengths[nonempty][:, None]
        return out

    # ----------------------------------------------------------- query level

    def query_matrix(
        self,
        *,
        times: Sequence[float | None] | None = None,
        locations: Sequence | None = None,
        words: Sequence[Sequence[str] | None] | None = None,
        n_queries: int | None = None,
    ) -> np.ndarray:
        """Query vectors for a batch, one row per query.

        Each of ``times`` / ``locations`` / ``words`` is either ``None``
        (modality absent for the whole batch) or a length-``n`` sequence
        whose entries may individually be ``None``.  Per query the
        available modality vectors are averaged exactly like
        :meth:`GraphEmbeddingModel.query_vector`: snapped units missing
        from the graph are skipped, while a present-but-fully-OOV word bag
        still contributes a zero vector to the average.
        """
        sizes = {
            len(part)
            for part in (times, locations, words)
            if part is not None
        }
        if n_queries is not None:
            sizes.add(n_queries)
        if len(sizes) != 1:
            raise ValueError(
                f"query modality batches must agree on length, got {sizes}"
            )
        n = sizes.pop()
        total = np.zeros((n, self.dim))
        count = np.zeros(n)
        if times is not None:
            present = np.asarray([t is not None for t in times])
            if present.any():
                rows = np.flatnonzero(present)
                vectors, found = self.embed_times(
                    [times[int(i)] for i in rows]
                )
                total[rows[found]] += vectors[found]
                count[rows[found]] += 1
        if locations is not None:
            present = np.asarray([loc is not None for loc in locations])
            if present.any():
                rows = np.flatnonzero(present)
                vectors, found = self.embed_locations(
                    [locations[int(i)] for i in rows]
                )
                total[rows[found]] += vectors[found]
                count[rows[found]] += 1
        if words is not None:
            present = np.asarray([bag is not None for bag in words])
            if present.any():
                rows = np.flatnonzero(present)
                vectors = self.embed_word_bags([words[int(i)] for i in rows])
                total[rows] += vectors
                count[rows] += 1
        out = np.zeros((n, self.dim))
        np.divide(total, count[:, None], out=out, where=count[:, None] > 0)
        return out

    def candidate_matrix(self, target: str, candidates: Sequence) -> np.ndarray:
        """Embed every candidate of ``target`` — the batched
        :meth:`GraphEmbeddingModel.candidate_vector`."""
        if target == "text":
            return self.embed_word_bags(candidates)
        if target == "location":
            vectors, _found = self.embed_locations(candidates)
        elif target == "time":
            vectors, _found = self.embed_times(candidates)
        else:
            raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
        return vectors

    # ----------------------------------------------------------- score level

    def score_ragged_batch(
        self,
        *,
        target: str,
        candidates: Sequence[Sequence],
        times: Sequence[float | None] | None = None,
        locations: Sequence | None = None,
        words: Sequence[Sequence[str] | None] | None = None,
    ) -> list[np.ndarray]:
        """Cosine scores when every query brings its *own* candidate list.

        The serving path's workhorse: coalesced client requests each
        carry their own candidate list.  The lists are flattened into a
        single :meth:`candidate_matrix` gather and scored with one
        row-wise ``einsum`` against the repeated query rows, then split
        back per query.

        Every per-row operation (snap, CSR word gather, row
        normalization, sequential einsum dot) is content-deterministic,
        so element ``i`` of the result is **bit-identical** to calling
        this method with query ``i`` alone — the exact-parity contract
        the request coalescer relies on (enforced by tests).
        """
        counts = np.asarray([len(c) for c in candidates], dtype=np.int64)
        if (counts == 0).any():
            raise ValueError("every query needs at least one candidate")
        with self._stage(
            "query.batch",
            op="score_ragged_batch",
            target=target,
            n_queries=len(candidates),
        ):
            with self._stage("query.embed"):
                query_mat = normalize_rows(
                    self.query_matrix(
                        times=times,
                        locations=locations,
                        words=words,
                        n_queries=len(candidates),
                    )
                )
                flat = [c for group in candidates for c in group]
                # Zipf-shaped serving traffic repeats hot candidates:
                # embed each distinct value once, gather rows back.
                unique, inverse = dedup_candidates(flat)
                cand_mat = normalize_rows(
                    self.candidate_matrix(target, unique)
                )[inverse]
                self.metrics.counter("query.candidates_deduped").inc(
                    len(flat) - len(unique)
                )
            with self._stage("query.score", key="score", target=target):
                scores = np.einsum(
                    "nd,nd->n", cand_mat, np.repeat(query_mat, counts, axis=0)
                )
            self.metrics.counter("query.queries").inc(len(candidates))
            splits = np.cumsum(counts[:-1])
            return [np.asarray(block) for block in np.split(scores, splits)]

    def neighbors(
        self, query_vec, modality: str, k: int = 10
    ) -> list[tuple[Hashable, float]]:
        """Exact top-``k`` nearest units of ``modality`` to a raw vector.

        Delegates to the model's cached dense scan
        (:meth:`~repro.core.prediction.GraphEmbeddingModel.neighbors`).
        This is the serving seam the ANN layer plugs into:
        :class:`~repro.ann.engine.IndexedQueryEngine` overrides it with a
        sub-linear IVF probe, so :class:`~repro.serving.service
        .QueryService` routes every neighbor request through the engine
        and picks up whichever retrieval mode the engine implements.
        """
        return self.model.neighbors(query_vec, modality, k)

    def rank_batch(self, queries: Sequence) -> np.ndarray:
        """1-based truth ranks for a batch of ``PredictionQuery`` objects.

        Rank-parity with the scalar reference
        (:func:`repro.eval.mrr.query_rank`): the rank of the ground truth
        is 1 + the number of strictly better candidates + the number of
        tied candidates at earlier positions, which is exactly what
        :func:`~repro.core.prediction.rank_descending`'s stable sort
        produces.  Candidate lists may differ per query and per target.
        """
        with self._stage(
            "query.batch", op="rank_batch", n_queries=len(queries)
        ):
            ranks = np.empty(len(queries), dtype=np.int64)
            by_target: dict[str, list[int]] = {}
            for i, query in enumerate(queries):
                by_target.setdefault(query.target, []).append(i)
            for target, indices in by_target.items():
                group = [queries[i] for i in indices]
                ranks[indices] = self._rank_group(target, group)
        return ranks

    def _rank_group(self, target: str, queries: Sequence) -> np.ndarray:
        """Truth ranks for queries sharing one target modality."""
        with self._stage("query.embed"):
            query_mat = normalize_rows(
                self.query_matrix(
                    times=[q.time for q in queries],
                    locations=[q.location for q in queries],
                    words=[q.words for q in queries],
                )
            )
            counts = np.asarray(
                [len(q.candidates) for q in queries], dtype=np.int64
            )
            flat_candidates = [c for q in queries for c in q.candidates]
            cand_mat = normalize_rows(
                self.candidate_matrix(target, flat_candidates)
            )
        with self._stage("query.score", key="score", target=target):
            scores = np.einsum(
                "nd,nd->n", cand_mat, np.repeat(query_mat, counts, axis=0)
            )
            starts = np.concatenate(([0], np.cumsum(counts[:-1])))
            truth_pos = np.asarray(
                [q.truth_index for q in queries], dtype=np.int64
            )
            truth_scores = scores[starts + truth_pos]
            expanded_truth = np.repeat(truth_scores, counts)
            position = np.arange(scores.shape[0]) - np.repeat(starts, counts)
            beats = (scores > expanded_truth) | (
                (scores == expanded_truth)
                & (position < np.repeat(truth_pos, counts))
            )
            ranks = 1 + np.add.reduceat(beats.astype(np.int64), starts)
        self.metrics.counter("query.queries").inc(len(queries))
        return ranks

    # ---------------------------------------------------------- metric level

    def mean_reciprocal_rank(self, queries: Sequence) -> float:
        """Batched MRR (Eq. 15) over ``PredictionQuery`` objects."""
        if not len(queries):
            raise ValueError("queries must be non-empty")
        return float(np.mean(1.0 / self.rank_batch(queries)))
