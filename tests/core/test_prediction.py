"""Tests for cosine scoring and the GraphEmbeddingModel query surface."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import cosine_similarities, rank_descending, top_k


class TestCosineSimilarities:
    def test_identical_vector_scores_one(self):
        query = np.asarray([1.0, 2.0])
        scores = cosine_similarities(query, np.asarray([[2.0, 4.0]]))
        assert scores[0] == pytest.approx(1.0)

    def test_orthogonal_scores_zero(self):
        scores = cosine_similarities(
            np.asarray([1.0, 0.0]), np.asarray([[0.0, 1.0]])
        )
        assert scores[0] == pytest.approx(0.0)

    def test_opposite_scores_minus_one(self):
        scores = cosine_similarities(
            np.asarray([1.0, 0.0]), np.asarray([[-3.0, 0.0]])
        )
        assert scores[0] == pytest.approx(-1.0)

    def test_zero_query_gives_zeros(self):
        scores = cosine_similarities(np.zeros(2), np.ones((3, 2)))
        np.testing.assert_array_equal(scores, 0.0)

    def test_zero_rows_give_zero(self):
        scores = cosine_similarities(
            np.asarray([1.0, 0.0]),
            np.asarray([[0.0, 0.0], [1.0, 0.0]]),
        )
        assert scores[0] == 0.0
        assert scores[1] == pytest.approx(1.0)

    def test_tiny_query_stays_bounded(self):
        # the query's squares (~3.5e-323) are subnormals with a few bits
        scores = cosine_similarities(
            np.asarray([5.9e-162, 5.9e-162, 0.0, 0.0]),
            np.asarray([[1.0, 1.0, 0.0, 0.0]]),
        )
        assert scores[0] == pytest.approx(1.0, abs=1e-15)

    def test_tiny_and_huge_rows_score_like_unit_rows(self):
        query = np.asarray([1.0, 2.0, 3.0, 4.0])
        extreme = np.asarray([
            [5.9e-162, 5.9e-162, 0.0, 0.0],
            [3e-170, 0.0, 4e-170, 0.0],  # every square underflows to 0
            [1e200, 0.0, -1e200, 0.0],  # the squares overflow
        ])
        unit = np.asarray([
            [1.0, 1.0, 0.0, 0.0], [3.0, 0.0, 4.0, 0.0], [1.0, 0.0, -1.0, 0.0],
        ])
        with np.errstate(over="ignore"):
            scores = cosine_similarities(query, extreme)
        np.testing.assert_allclose(
            scores, cosine_similarities(query, unit), rtol=1e-15
        )

    def test_other_rows_are_bit_identical(self):
        rng = np.random.default_rng(9)
        query = rng.normal(size=5)
        normal = rng.normal(size=(6, 5))
        mixed = np.vstack([normal[:2], 1e-170 * normal[2:3], normal[2:]])
        scores = cosine_similarities(query, mixed)
        reference = cosine_similarities(query, normal)
        np.testing.assert_array_equal(scores[[0, 1, 3, 4, 5, 6]], reference)
        assert scores[2] == pytest.approx(reference[2], abs=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(
        query=arrays(np.float64, 4, elements=st.floats(-5, 5)),
        matrix=arrays(np.float64, (6, 4), elements=st.floats(-5, 5)),
    )
    def test_property_bounded(self, query, matrix):
        scores = cosine_similarities(query, matrix)
        assert (scores >= -1.0 - 1e-9).all()
        assert (scores <= 1.0 + 1e-9).all()


class TestRankDescending:
    def test_simple_order(self):
        ranks = rank_descending(np.asarray([0.1, 0.9, 0.5]))
        np.testing.assert_array_equal(ranks, [3, 1, 2])

    def test_ties_stable(self):
        ranks = rank_descending(np.asarray([0.5, 0.5, 0.1]))
        np.testing.assert_array_equal(ranks, [1, 2, 3])

    def test_single_element(self):
        np.testing.assert_array_equal(rank_descending(np.asarray([7.0])), [1])

    @settings(max_examples=30, deadline=None)
    @given(scores=arrays(np.float64, 8, elements=st.floats(-10, 10)))
    def test_property_ranks_are_a_permutation(self, scores):
        ranks = rank_descending(scores)
        assert sorted(ranks.tolist()) == list(range(1, 9))

    @settings(max_examples=30, deadline=None)
    @given(
        scores=arrays(
            np.float64, 6, elements=st.floats(-10, 10), unique=True
        )
    )
    def test_property_higher_score_better_rank(self, scores):
        ranks = rank_descending(scores)
        best = int(np.argmax(scores))
        assert ranks[best] == 1


class TestTopK:
    def test_matches_reference_on_clean_scores(self):
        scores = np.asarray([0.1, 0.9, 0.5, 0.9, 0.3])
        np.testing.assert_array_equal(
            top_k(scores, 3), np.argsort(-scores, kind="stable")[:3]
        )

    def test_nan_regression_issue_example(self):
        # Before the fix a NaN in the argpartition prefix made `threshold`
        # NaN, every filter went False, and this returned [] instead of k
        # indices.
        scores = np.asarray([np.nan, np.nan, 0.9, 0.1, 0.2, 0.3])
        result = top_k(scores, 5)
        assert len(result) == 5
        np.testing.assert_array_equal(result, [2, 5, 4, 3, 0])
        np.testing.assert_array_equal(
            result, np.argsort(-scores, kind="stable")[:5]
        )

    def test_nan_ranks_after_every_finite_score(self):
        scores = np.asarray([np.nan, -0.5, 0.7, np.nan, -np.inf])
        np.testing.assert_array_equal(top_k(scores, 4), [2, 1, 4, 0])

    def test_all_nan_still_returns_k_indices(self):
        scores = np.asarray([np.nan, np.nan, np.nan])
        np.testing.assert_array_equal(top_k(scores, 2), [0, 1])

    def test_k_zero_and_k_beyond_n(self):
        scores = np.asarray([0.2, np.nan, 0.4])
        assert top_k(scores, 0).shape == (0,)
        np.testing.assert_array_equal(top_k(scores, 10), [2, 0, 1])

    @settings(max_examples=60, deadline=None)
    @given(
        scores=arrays(
            np.float64,
            st.integers(1, 20),
            elements=st.floats(
                allow_nan=True, allow_infinity=True, width=64
            ),
        ),
        k=st.integers(1, 25),
    )
    def test_property_equals_stable_sort_prefix(self, scores, k):
        np.testing.assert_array_equal(
            top_k(scores, k), np.argsort(-scores, kind="stable")[:k]
        )


class TestQuerySurface:
    """Exercises the trained tiny ACTOR's GraphEmbeddingModel methods."""

    def test_unit_vector_time(self, tiny_actor):
        vec = tiny_actor.unit_vector("time", 21.0)
        assert vec is not None
        assert vec.shape == (tiny_actor.dim,)

    def test_unit_vector_location(self, tiny_actor, dataset):
        loc = dataset.test[0].location
        vec = tiny_actor.unit_vector("location", loc)
        assert vec is not None

    def test_unit_vector_unknown_word_is_none(self, tiny_actor):
        assert tiny_actor.unit_vector("word", "zzz_never_seen") is None

    def test_unit_vector_known_word(self, tiny_actor):
        word = tiny_actor.built.vocab.words[0]
        assert tiny_actor.unit_vector("word", word) is not None

    def test_unit_vector_user(self, tiny_actor, dataset):
        user = dataset.train[0].user
        assert tiny_actor.unit_vector("user", user) is not None

    def test_unit_vector_bad_modality(self, tiny_actor):
        with pytest.raises(ValueError, match="modality"):
            tiny_actor.unit_vector("altitude", 3)

    def test_words_vector_empty_is_zero(self, tiny_actor):
        vec = tiny_actor.words_vector(["zzz_never_seen"])
        np.testing.assert_array_equal(vec, 0.0)

    def test_words_vector_averages(self, tiny_actor):
        w1, w2 = tiny_actor.built.vocab.words[:2]
        mean = tiny_actor.words_vector([w1, w2])
        expected = (
            tiny_actor.unit_vector("word", w1)
            + tiny_actor.unit_vector("word", w2)
        ) / 2
        np.testing.assert_allclose(mean, expected)

    def test_query_vector_combines_modalities(self, tiny_actor, dataset):
        record = dataset.test[0]
        query = tiny_actor.query_vector(
            time=record.timestamp, words=record.words
        )
        assert query.shape == (tiny_actor.dim,)
        assert np.linalg.norm(query) > 0

    def test_query_vector_empty_is_zero(self, tiny_actor):
        np.testing.assert_array_equal(
            tiny_actor.query_vector(), np.zeros(tiny_actor.dim)
        )

    def test_candidate_vector_targets(self, tiny_actor, dataset):
        record = dataset.test[0]
        assert tiny_actor.candidate_vector("text", record.words).shape == (
            tiny_actor.dim,
        )
        assert tiny_actor.candidate_vector(
            "location", record.location
        ).shape == (tiny_actor.dim,)
        assert tiny_actor.candidate_vector(
            "time", record.timestamp
        ).shape == (tiny_actor.dim,)

    def test_candidate_vector_bad_target(self, tiny_actor):
        with pytest.raises(ValueError, match="target"):
            tiny_actor.candidate_vector("weather", None)

    def test_score_candidates_shape(self, tiny_actor, dataset):
        records = dataset.test.records[:5]
        scores = tiny_actor.score_candidates(
            target="location",
            candidates=[r.location for r in records],
            time=records[0].timestamp,
            words=records[0].words,
        )
        assert scores.shape == (5,)
        assert np.isfinite(scores).all()

    def test_modality_vectors(self, tiny_actor):
        keys, matrix = tiny_actor.modality_vectors("word")
        assert len(keys) == matrix.shape[0]
        assert matrix.shape[1] == tiny_actor.dim

    def test_neighbors_returns_sorted_topk(self, tiny_actor):
        word = tiny_actor.built.vocab.words[0]
        query = tiny_actor.unit_vector("word", word)
        result = tiny_actor.neighbors(query, "word", k=5)
        assert len(result) == 5
        sims = [s for _k, s in result]
        assert sims == sorted(sims, reverse=True)
        assert result[0][0] == word  # the word itself is its own neighbor
