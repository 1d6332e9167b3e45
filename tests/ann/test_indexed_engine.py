"""Tests for IndexedQueryEngine: the ANN layer behind the engine seam.

Three contracts: (1) full-vocabulary retrieval through the index agrees
with the model's exact dense scan; (2) explicit-candidate ranking — the
Table-2 evaluation path and ``/v1/predict`` under ``serve --ann`` —
inherits the exact engine *unchanged*, so it is exact by construction;
(3) the index is stamped with the store's version counter and can never
serve rows from before a mutation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann import ANN_MODALITIES, IndexedQueryEngine
from repro.core import Actor, ActorConfig, QueryEngine

from repro.eval.mrr import make_queries
from repro.utils.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def engine(tiny_actor):
    """Full-coverage engine (nprobe == nlist): ANN == exact territory."""
    return IndexedQueryEngine(
        tiny_actor, nlist=8, nprobe=8, metrics=MetricsRegistry()
    )


@pytest.fixture(scope="module")
def mutable_actor(dataset):
    """A cheap privately-owned actor (invalidation tests mutate it)."""
    config = ActorConfig(
        dim=8,
        epochs=1,
        line_samples=1_000,
        batches_per_epoch=2,
        seed=13,
    )
    return Actor(config).fit(dataset.train)


class TestNeighborParity:
    @pytest.mark.parametrize("modality", ANN_MODALITIES)
    def test_full_probe_matches_exact_dense_scan(
        self, tiny_actor, engine, modality
    ):
        cache = tiny_actor.modality_cache(modality)
        rng = np.random.default_rng(3)
        for row in rng.integers(0, len(cache.keys), size=5):
            probe = np.asarray(cache.matrix[row], dtype=float)
            ann = engine.neighbors(probe, modality, 5)
            exact = tiny_actor.neighbors(probe, modality, 5)
            assert [k for k, _ in ann] == [k for k, _ in exact]
            np.testing.assert_allclose(
                [s for _, s in ann], [s for _, s in exact], rtol=1e-12
            )

    def test_search_batch_equals_singles(self, tiny_actor, engine):
        cache = tiny_actor.modality_cache("word")
        queries = np.asarray(cache.matrix[:6], dtype=float)
        batched = engine.search("word", queries, 4)
        for i in range(6):
            assert engine.search("word", queries[i : i + 1], 4)[0] == (
                batched[i]
            )

    def test_unindexed_modality_falls_back_exact(self, tiny_actor):
        """``user`` has no index: its neighbors come from the dense scan
        and no index is ever built for it."""
        fresh = IndexedQueryEngine(
            tiny_actor, nlist=4, metrics=MetricsRegistry()
        )
        cache = tiny_actor.modality_cache("user")
        probe = np.asarray(cache.matrix[0], dtype=float)
        assert fresh.neighbors(probe, "user", 3) == tiny_actor.neighbors(
            probe, "user", 3
        )
        assert fresh.ann_status()["indexes"] == {}
        assert fresh.metrics.counter("ann.index_builds").value == 0

    def test_user_modality_always_exact(self, tiny_actor, engine):
        cache = tiny_actor.modality_cache("user")
        probe = np.asarray(cache.matrix[0], dtype=float)
        assert engine.neighbors(probe, "user", 3) == tiny_actor.neighbors(
            probe, "user", 3
        )

    def test_rejects_unknown_ann_modality(self, tiny_actor, engine):
        assert "user" not in ANN_MODALITIES
        with pytest.raises(ValueError, match="not ANN-indexed"):
            engine.index_for("user")
        with pytest.raises(ValueError, match="nlist"):
            IndexedQueryEngine(tiny_actor, nlist=0)


class TestExactFallbackMatrix:
    """Explicit-candidate ranking is the exact engine, bit for bit."""

    @pytest.mark.parametrize("target", ("text", "location", "time"))
    def test_rank_batch_bit_identical_to_exact_engine(
        self, tiny_actor, engine, dataset, target
    ):
        queries = make_queries(
            dataset.test, target, n_noise=8, max_queries=40, seed=1
        )
        exact = QueryEngine(tiny_actor, metrics=MetricsRegistry())
        assert engine.rank_batch(queries).tolist() == (
            exact.rank_batch(queries).tolist()
        )

    def test_table2_mrr_identical_under_ann(
        self, tiny_actor, engine, dataset
    ):
        """Table-2 MRR through the indexed engine equals the exact MRR."""
        for target in ("text", "location", "time"):
            queries = make_queries(
                dataset.test, target, n_noise=8, max_queries=30, seed=2
            )
            exact = QueryEngine(tiny_actor, metrics=MetricsRegistry())
            assert engine.mean_reciprocal_rank(queries) == (
                exact.mean_reciprocal_rank(queries)
            )


class TestInvalidation:
    def test_index_cached_while_version_stands_still(self, engine):
        first = engine.index_for("word")
        assert engine.index_for("word") is first

    def test_bump_marks_stale_and_rebuilds(self, mutable_actor):
        engine = IndexedQueryEngine(
            mutable_actor, nlist=4, metrics=MetricsRegistry()
        )
        first = engine.index_for("word")
        assert engine.ann_status()["indexes"]["word"]["stale"] is False
        mutable_actor.store.bump()
        assert engine.ann_status()["indexes"]["word"]["stale"] is True
        rebuilt = engine.index_for("word")
        assert rebuilt is not first
        assert engine.ann_status()["indexes"]["word"]["stale"] is False

    def test_inplace_burst_is_served_fresh(self, mutable_actor):
        """A post-burst query sees the moved rows, not the old index."""
        engine = IndexedQueryEngine(
            mutable_actor, nlist=4, nprobe=4, metrics=MetricsRegistry()
        )
        cache = mutable_actor.modality_cache("word")
        target_key = cache.keys[7]
        engine.index_for("word")  # build against the pre-burst rows
        # SGD-style in-place scatter: move row 7 to a known direction.
        direction = np.zeros(mutable_actor.center.shape[1])
        direction[0] = 1.0
        _keys, rows = mutable_actor.modality_rows("word")
        mutable_actor.center[rows[7]] = 100.0 * direction
        mutable_actor.invalidate_query_cache()
        got = engine.neighbors(direction, "word", 1)
        assert got[0][0] == target_key
        assert engine.metrics.counter("ann.index_builds").value >= 2

    def test_ann_status_shape(self, engine):
        status = engine.ann_status()
        assert status["nlist"] == 8
        assert status["nprobe"] == 8
        assert status["modalities"] == list(ANN_MODALITIES)
        for entry in status["indexes"].values():
            assert set(entry) == {"rows", "nlist", "build_seconds", "stale"}
