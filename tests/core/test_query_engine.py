"""Tests for the batched QueryEngine: exact rank parity with the scalar path.

The engine's contract is not "approximately the same ranking" — it is
bit-identical truth ranks against :func:`repro.eval.mrr.query_rank` for
every query, including the degenerate ones (out-of-vocabulary word bags,
queries snapping to hotspots that never became graph nodes, duplicate
candidates producing exact score ties).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Actor, ActorConfig, OnlineActor, QueryEngine
from repro.core.prediction import normalize_rows
from repro.core.query_engine import dedup_candidates
from repro.data import Record
from repro.data.records import Corpus
from repro.eval.mrr import make_queries, query_rank, query_ranks
from repro.eval import hits_at_k, mean_reciprocal_rank
from repro.hotspots import HotspotDetector
from repro.utils.metrics import MetricsRegistry
from repro.utils.tracing import collect_stages

TARGETS = ("text", "location", "time")


def scalar_ranks(model, queries):
    return [query_rank(model, q) for q in queries]


@pytest.fixture(scope="module")
def query_sets(dataset):
    return {
        target: make_queries(
            dataset.test, target, n_noise=10, max_queries=60, seed=i
        )
        for i, target in enumerate(TARGETS)
    }


class TestRankParity:
    @pytest.mark.parametrize("target", TARGETS)
    def test_exact_parity_per_target(self, tiny_actor, query_sets, target):
        queries = query_sets[target]
        batched = tiny_actor.query_engine().rank_batch(queries)
        assert batched.tolist() == scalar_ranks(tiny_actor, queries)

    def test_exact_parity_mixed_targets(self, tiny_actor, query_sets):
        """rank_batch groups per-target internally but preserves order."""
        mixed = [q for triple in zip(*query_sets.values()) for q in triple]
        batched = tiny_actor.query_engine().rank_batch(mixed)
        assert batched.tolist() == scalar_ranks(tiny_actor, mixed)

    def test_exact_parity_with_oov_words(self, tiny_actor, query_sets):
        """Fully- and partially-OOV bags (zero / partial vectors) agree."""
        queries = []
        for q in query_sets["location"][:20]:
            words = ("never_in_vocab_1", "never_in_vocab_2", *q.words[:1])
            queries.append(type(q)(**{**q.__dict__, "words": words}))
        for q in query_sets["text"][:20]:
            candidates = [("never_in_vocab_3",)] + list(q.candidates)
            queries.append(
                type(q)(
                    **{
                        **q.__dict__,
                        "candidates": candidates,
                        "truth_index": q.truth_index + 1,
                    }
                )
            )
        batched = tiny_actor.query_engine().rank_batch(queries)
        assert batched.tolist() == scalar_ranks(tiny_actor, queries)

    def test_exact_parity_with_duplicate_candidates(
        self, tiny_actor, query_sets
    ):
        """Exact ties (bit-identical candidate vectors) resolve alike."""
        queries = []
        for q in query_sets["time"][:20]:
            candidates = list(q.candidates) + [q.candidates[q.truth_index]]
            queries.append(
                type(q)(**{**q.__dict__, "candidates": candidates})
            )
        batched = tiny_actor.query_engine().rank_batch(queries)
        assert batched.tolist() == scalar_ranks(tiny_actor, queries)

    def test_exact_parity_unseen_hotspots(self):
        """Queries snapping to node-less hotspots fall back to zero vectors
        identically on both paths (the ``index_map == -1`` branch)."""
        actor = _actor_with_phantom_hotspots()
        records = [
            Record(
                record_id=1000 + i,
                user="q",
                # Half the queries snap to the phantom night hotspot.
                timestamp=3.0 if i % 2 else 12.0,
                location=(9.0, 9.0) if i % 2 else (1.0, 1.0),
                words=("alpha", "beta"),
            )
            for i in range(12)
        ]
        corpus = Corpus.from_records(records)
        for target in TARGETS:
            queries = make_queries(corpus, target, n_noise=5, seed=0)
            batched = actor.query_engine().rank_batch(queries)
            assert batched.tolist() == scalar_ranks(actor, queries), target


def _actor_with_phantom_hotspots():
    """A fitted Actor whose detector knows hotspots the graph has no nodes
    for (simulating a detector refresh after hotspot drift)."""
    records = [
        Record(
            record_id=i,
            user=f"u{i % 3}",
            timestamp=12.0 + 24.0 * i + 0.1 * (i % 5),
            location=(1.0 + 0.05 * (i % 4), 1.0),
            words=("alpha", "beta", "gamma"),
        )
        for i in range(30)
    ]
    config = ActorConfig(
        dim=8,
        epochs=1,
        batches_per_epoch=2,
        line_samples=2_000,
        vocab_min_count=1,
        seed=3,
    )
    actor = Actor(config).fit(
        Corpus.from_records(records),
        detector=HotspotDetector.from_arrays(
            np.array([[1.0, 1.0]]), np.array([12.0])
        ),
    )
    actor.built.detector = HotspotDetector.from_arrays(
        np.array([[1.0, 1.0], [9.0, 9.0]]), np.array([12.0, 3.0])
    )
    return actor


class TestEvalIntegration:
    def test_query_ranks_batch_matches_scalar(self, tiny_actor, query_sets):
        queries = query_sets["text"]
        batched = query_ranks(tiny_actor, queries, batch=True)
        forced_scalar = query_ranks(tiny_actor, queries, batch=False)
        np.testing.assert_array_equal(batched, forced_scalar)

    def test_mrr_and_hits_identical_across_paths(
        self, tiny_actor, query_sets
    ):
        for queries in query_sets.values():
            assert mean_reciprocal_rank(
                tiny_actor, queries
            ) == mean_reciprocal_rank(tiny_actor, queries, batch=False)
            assert hits_at_k(tiny_actor, queries, 3) == hits_at_k(
                tiny_actor, queries, 3, batch=False
            )

    def test_engine_metric_helpers(self, tiny_actor, query_sets):
        engine = tiny_actor.query_engine()
        queries = query_sets["time"]
        assert engine.mean_reciprocal_rank(
            queries
        ) == mean_reciprocal_rank(tiny_actor, queries)
        with pytest.raises(ValueError, match="non-empty"):
            engine.mean_reciprocal_rank([])

    def test_scalar_fallback_for_engineless_models(self, query_sets):
        """Models without a query_engine accessor take the scalar path."""

        class FlatScorer:
            def score_candidates(self, *, target, candidates, **_):
                return np.zeros(len(candidates))

        queries = query_sets["text"][:5]
        ranks = query_ranks(FlatScorer(), queries, batch=True)
        # All-zero scores: the truth's rank is its (1-based) position.
        assert ranks.tolist() == [q.truth_index + 1 for q in queries]


class TestBatchEmbedding:
    def test_embed_word_bags_matches_words_vector(self, tiny_actor, dataset):
        engine = tiny_actor.query_engine()
        bags = [r.words for r in dataset.test.records[:30]]
        bags += [(), ("never_in_vocab",)]
        batch = engine.embed_word_bags(bags)
        for row, bag in zip(batch, bags):
            np.testing.assert_array_equal(row, tiny_actor.words_vector(bag))

    def test_query_matrix_matches_query_vector(self, tiny_actor, query_sets):
        engine = tiny_actor.query_engine()
        for queries in query_sets.values():
            batch = engine.query_matrix(
                times=[q.time for q in queries],
                locations=[q.location for q in queries],
                words=[q.words for q in queries],
            )
            for row, q in zip(batch, queries):
                np.testing.assert_array_equal(
                    row,
                    tiny_actor.query_vector(
                        time=q.time, location=q.location, words=q.words
                    ),
                )

    def test_query_matrix_rejects_ragged_batches(self, tiny_actor):
        engine = tiny_actor.query_engine()
        with pytest.raises(ValueError, match="agree on length"):
            engine.query_matrix(times=[1.0, 2.0], words=[("a",)])
        with pytest.raises(ValueError, match="agree on length"):
            engine.query_matrix(times=[1.0], n_queries=3)

    def test_candidate_matrix_rejects_bad_target(self, tiny_actor):
        with pytest.raises(ValueError, match="target"):
            tiny_actor.query_engine().candidate_matrix("user", ["bob"])


class TestMetricsWiring:
    def test_engine_records_timers_and_counter(self, tiny_actor, query_sets):
        registry = MetricsRegistry()
        engine = QueryEngine(tiny_actor, metrics=registry)
        queries = query_sets["location"][:10]
        engine.rank_batch(queries)
        assert registry.counter("query.queries").value == len(queries)
        assert registry.histogram("query.embed_seconds").count == 1
        assert registry.histogram("query.score_seconds").count == 1

    def test_engine_accessor_is_cached(self, tiny_actor):
        assert tiny_actor.query_engine() is tiny_actor.query_engine()

    def test_engine_pickles_after_stage_collection(self, tiny_actor, query_sets):
        # Models cache their engine, so ``Actor.save`` pickles it along;
        # the thread-local stage sink must not break that, even after
        # it has been exercised on this thread.
        import pickle

        engine = tiny_actor.query_engine()
        with collect_stages() as stages:
            engine.rank_batch(query_sets["location"][:4])
        assert "score" in stages
        loaded = pickle.loads(pickle.dumps(engine))
        with collect_stages() as reloaded_stages:
            loaded.rank_batch(query_sets["location"][:4])
        assert "score" in reloaded_stages


class TestCacheInvalidation:
    def test_cache_reused_while_version_stands_still(self, tiny_actor):
        assert tiny_actor.modality_cache("word") is tiny_actor.modality_cache(
            "word"
        )

    def test_invalidate_bumps_version_and_rebuilds(self):
        actor = _actor_with_phantom_hotspots()
        before = actor.modality_cache("word")
        version = actor.query_version
        actor.invalidate_query_cache()
        assert actor.query_version == version + 1
        after = actor.modality_cache("word")
        assert after is not before
        np.testing.assert_array_equal(after.matrix, before.matrix)

    def test_center_replacement_invalidates(self):
        actor = _actor_with_phantom_hotspots()
        before = actor.modality_cache("time")
        actor.center = actor.center.copy()
        assert actor.modality_cache("time") is not before

    def test_partial_fit_invalidates_online_cache(self, tiny_actor, dataset):
        online = OnlineActor(tiny_actor, seed=0)
        engine = online.query_engine()
        queries = make_queries(
            dataset.test, "location", n_noise=10, max_queries=25, seed=4
        )
        engine.rank_batch(queries)
        stale = online.modality_cache("word")
        version = online.query_version
        online.partial_fit(dataset.test.records[:40])
        assert online.query_version > version
        assert online.modality_cache("word") is not stale
        # Post-update ranks still agree exactly with the scalar path.
        batched = engine.rank_batch(queries)
        assert batched.tolist() == scalar_ranks(online, queries)


class TestNeighborsCachePath:
    def test_neighbors_matches_full_sort(self, tiny_actor):
        keys, matrix = tiny_actor.modality_vectors("word")
        query = matrix[3]
        got = tiny_actor.neighbors(query, "word", k=5)
        norms = np.linalg.norm(matrix, axis=1)
        scores = (matrix @ (query / np.linalg.norm(query)))
        scores = np.divide(
            scores, norms, out=np.zeros_like(scores), where=norms > 0
        )
        expected = np.argsort(-scores, kind="stable")[:5]
        assert [k for k, _ in got] == [keys[i] for i in expected]
        assert got[0][0] == keys[3]

    def test_neighbors_zero_query_returns_zero_scores(self, tiny_actor):
        got = tiny_actor.neighbors(np.zeros(tiny_actor.dim), "word", k=3)
        assert len(got) == 3
        assert all(score == 0.0 for _, score in got)


class TestScoreRaggedBatch:
    """Parity contract of the serving path's per-request candidate lists."""

    def _requests(self, dataset, n=12):
        records = list(dataset.test)[: n + 1]
        requests = []
        for i, record in enumerate(records[:-1]):
            noise = records[i + 1]
            target = TARGETS[i % 3]
            if target == "text":
                candidates = [record.words, noise.words]
            elif target == "location":
                candidates = [record.location, noise.location, (0.0, 0.0)]
            else:
                candidates = [record.timestamp, noise.timestamp]
            requests.append(
                {
                    "target": target,
                    "candidates": candidates,
                    "time": None if target == "time" else record.timestamp,
                    "location": (
                        None if target == "location" else record.location
                    ),
                    "words": None if target == "text" else record.words,
                }
            )
        return requests

    @pytest.mark.parametrize("target", TARGETS)
    def test_batch_bit_identical_to_singles(self, tiny_actor, dataset, target):
        engine = tiny_actor.query_engine()
        group = [r for r in self._requests(dataset) if r["target"] == target]
        batched = engine.score_ragged_batch(
            target=target,
            candidates=[r["candidates"] for r in group],
            times=[r["time"] for r in group],
            locations=[r["location"] for r in group],
            words=[r["words"] for r in group],
        )
        for request, row in zip(group, batched):
            single = engine.score_ragged_batch(
                target=target,
                candidates=[request["candidates"]],
                times=[request["time"]],
                locations=[request["location"]],
                words=[request["words"]],
            )[0]
            assert row.tolist() == single.tolist()

    def test_ragged_lengths_split_correctly(self, tiny_actor):
        engine = tiny_actor.query_engine()
        candidates = [[1.0], [2.0, 3.0, 4.0], [5.0, 6.0]]
        rows = engine.score_ragged_batch(
            target="time",
            candidates=candidates,
            words=[("common_000",), ("common_001",), None],
            times=[None, None, 9.0],
        )
        assert [len(row) for row in rows] == [1, 3, 2]

    def test_oov_and_unseen_values_keep_parity(self, tiny_actor):
        engine = tiny_actor.query_engine()
        batched = engine.score_ragged_batch(
            target="time",
            candidates=[[1.0, 23.0], [12.0]],
            words=[("never_in_vocab_a",), ("never_in_vocab_b",)],
            locations=[(-500.0, 800.0), None],
        )
        for i in range(2):
            single = engine.score_ragged_batch(
                target="time",
                candidates=[[[1.0, 23.0], [12.0]][i]],
                words=[[("never_in_vocab_a",), ("never_in_vocab_b",)][i]],
                locations=[[(-500.0, 800.0), None][i]],
            )[0]
            assert batched[i].tolist() == single.tolist()

    def test_empty_candidate_list_rejected(self, tiny_actor):
        engine = tiny_actor.query_engine()
        with pytest.raises(ValueError, match="at least one candidate"):
            engine.score_ragged_batch(
                target="time", candidates=[[1.0], []], times=[2.0, 3.0]
            )

    def test_matches_shared_candidate_batch_path(self, tiny_actor):
        """Same candidates for every query ~= the scalar score_candidates.

        The scalar path divides each raw dot product by both norms while
        the ragged path dots pre-normalized rows, so agreement is
        last-ulp, not bit-exact — bit-exactness is the ragged path's
        *self*-parity contract (the tests above), never a cross-path one.
        """
        engine = tiny_actor.query_engine()
        shared = [1.0, 9.0, 14.5, 22.0]
        words = [("common_000",), ("common_001",)]
        ragged = engine.score_ragged_batch(
            target="time", candidates=[shared, shared], words=words
        )
        for i in range(2):
            scalar = tiny_actor.score_candidates(
                target="time", candidates=shared, words=words[i]
            )
            np.testing.assert_allclose(
                ragged[i], scalar, rtol=1e-12, atol=1e-15
            )


class TestDedupCandidates:
    """The ragged-path candidate dedup: a pure gather optimization.

    Zipf-shaped serving traffic repeats hot candidates across coalesced
    requests; embedding each distinct value once and gathering rows back
    must be invisible — bit-identical scores, exact per-single parity.
    """

    def test_first_seen_order_and_inverse_reconstructs(self):
        flat = [3.0, 1.0, 3.0, (2.0, 4.0), 1.0, (2.0, 4.0)]
        unique, inverse = dedup_candidates(flat)
        assert unique == [3.0, 1.0, (2.0, 4.0)]
        assert [unique[i] for i in inverse] == flat

    def test_all_distinct_is_identity(self):
        flat = [1.0, 2.0, 3.0]
        unique, inverse = dedup_candidates(flat)
        assert unique == flat
        assert inverse.tolist() == [0, 1, 2]

    def test_unhashable_candidates_fall_back_to_content_key(self):
        flat = [np.array([1.0, 2.0]), [1.0, 2.0], np.array([3.0, 4.0])]
        unique, inverse = dedup_candidates(flat)
        # array and list with equal content share one embedding row
        assert len(unique) == 2
        assert inverse.tolist() == [0, 0, 1]

    def test_dedup_gather_bit_identical_to_undeduped_embed(self, tiny_actor):
        """Embed-unique-then-gather == embed-everything, bitwise."""
        engine = tiny_actor.query_engine()
        flat = [1.0, 9.0, 1.0, 14.5, 9.0, 9.0, 1.0]
        reference = normalize_rows(engine.candidate_matrix("time", flat))
        unique, inverse = dedup_candidates(flat)
        deduped = normalize_rows(
            engine.candidate_matrix("time", unique)
        )[inverse]
        np.testing.assert_array_equal(deduped, reference)

    @pytest.mark.parametrize(
        "target,candidates",
        [
            ("time", [[1.0, 1.0, 9.0], [9.0, 1.0], [1.0, 1.0]]),
            (
                "location",
                [
                    [(0.5, 0.5), (3.3, 7.7), (0.5, 0.5)],
                    [(0.5, 0.5)],
                    [(3.3, 7.7), (3.3, 7.7)],
                ],
            ),
            (
                "text",
                [
                    [("common_000",), ("common_001",), ("common_000",)],
                    [("common_001",), ("common_000",)],
                ],
            ),
        ],
    )
    def test_duplicate_heavy_batches_keep_per_single_parity(
        self, tiny_actor, target, candidates
    ):
        """Repeats within and across requests: still bit-exact singles."""
        engine = tiny_actor.query_engine()
        words = [("common_002",)] * len(candidates)
        batched = engine.score_ragged_batch(
            target=target, candidates=candidates, words=words
        )
        for i, group in enumerate(candidates):
            single = engine.score_ragged_batch(
                target=target, candidates=[group], words=[words[i]]
            )[0]
            assert batched[i].tolist() == single.tolist()

    def test_dedup_counter_records_savings(self, tiny_actor):
        engine = tiny_actor.query_engine()
        counter = engine.metrics.counter("query.candidates_deduped")
        before = counter.value
        engine.score_ragged_batch(
            target="time",
            candidates=[[1.0, 1.0, 1.0, 2.0]],
            words=[("common_000",)],
        )
        assert counter.value == before + 2  # 4 flat, 2 unique
