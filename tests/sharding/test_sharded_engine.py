"""Scatter-gather engines: bit-exact merge parity and stage accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import QueryEngine, load_bundle, save_bundle
from repro.sharding.engine import (
    ShardedIndexedQueryEngine,
    ShardedQueryEngine,
    merge_topk,
)
from repro.utils.tracing import collect_stages

MODALITIES = ("word", "time", "location", "user")


class TestMergeTopk:
    def test_orders_like_the_exact_scan(self):
        positions = np.array([4, 0, 9, 2, 7])
        scores = np.array([0.5, 0.9, 0.5, 0.1, 0.9])
        # Descending score, ties by ascending position.
        assert merge_topk(positions, scores, 4).tolist() == [1, 4, 0, 2]

    def test_nans_sort_last(self):
        positions = np.array([0, 1, 2])
        scores = np.array([np.nan, 0.2, 0.8])
        assert merge_topk(positions, scores, 3).tolist() == [2, 1, 0]

    def test_k_clamped_to_candidates(self):
        sel = merge_topk(np.array([1, 0]), np.array([0.1, 0.2]), 10)
        assert sel.tolist() == [1, 0]


class TestExactParity:
    @pytest.mark.parametrize("n_shards", [2, 3, 4])
    def test_bit_exact_across_modalities(self, tiny_actor, n_shards):
        exact = QueryEngine(tiny_actor)
        sharded = ShardedQueryEngine(tiny_actor, n_shards=n_shards)
        rng = np.random.default_rng(99)
        for modality in MODALITIES:
            for _ in range(5):
                query = rng.standard_normal(tiny_actor.dim)
                assert sharded.neighbors(query, modality, 10) == (
                    exact.neighbors(query, modality, 10)
                )

    def test_zero_query_matches(self, tiny_actor):
        exact = QueryEngine(tiny_actor)
        sharded = ShardedQueryEngine(tiny_actor, n_shards=4)
        zero = np.zeros(tiny_actor.dim)
        for modality in MODALITIES:
            assert sharded.neighbors(zero, modality, 7) == (
                exact.neighbors(zero, modality, 7)
            )

    def test_auto_detects_store_sharding(self, tiny_actor, tmp_path):
        assert ShardedQueryEngine(tiny_actor).n_shards == 1
        save_bundle(tiny_actor, tmp_path / "v3", shards=3)
        engine = ShardedQueryEngine(load_bundle(tmp_path / "v3"))
        assert engine.n_shards == 3


class TestStages:
    def test_scatter_and_merge_are_timed(self, tiny_actor):
        engine = ShardedQueryEngine(tiny_actor, n_shards=4)
        with collect_stages() as stages:
            engine.neighbors(np.ones(tiny_actor.dim), "word", 5)
        assert stages["scatter"] > 0
        assert stages["merge"] > 0
        assert stages["values"]["shards.fanout"] == 4

    def test_shard_status_reports_replicas(self, tiny_actor):
        engine = ShardedQueryEngine(tiny_actor, n_shards=3)
        engine.neighbors(np.ones(tiny_actor.dim), "word", 5)
        status = engine.shard_status()
        assert status["n_shards"] == 3
        assert status["partitioner"] == "splitmix64"
        word = status["modalities"]["word"]
        assert sum(word["rows_per_shard"]) == len(
            tiny_actor.modality_cache("word").keys
        )
        assert word["stale"] is False


class TestIndexedParity:
    def test_full_coverage_probe_matches_exact(self, tiny_actor):
        # nprobe == nlist scores every row on every shard, so the merged
        # ranking carries the same keys as the exact engines (tie order
        # inside the IVF gather may differ, so scores are compared
        # numerically rather than by rank).
        exact = QueryEngine(tiny_actor)
        sharded = ShardedIndexedQueryEngine(
            tiny_actor, n_shards=3, nlist=8, nprobe=8
        )
        rng = np.random.default_rng(5)
        for modality in ("word", "time", "location"):
            query = rng.standard_normal(tiny_actor.dim)
            got = sharded.neighbors(query, modality, 8)
            want = exact.neighbors(query, modality, 8)
            assert {k for k, _ in got} == {k for k, _ in want}
            np.testing.assert_allclose(
                sorted(s for _, s in got),
                sorted(s for _, s in want),
                rtol=1e-12,
            )

    def test_non_indexed_modality_uses_exact_scatter_gather(
        self, tiny_actor
    ):
        exact = QueryEngine(tiny_actor)
        sharded = ShardedIndexedQueryEngine(
            tiny_actor, n_shards=4, nlist=8, nprobe=2
        )
        query = np.full(tiny_actor.dim, 0.25)
        assert sharded.neighbors(query, "user", 6) == exact.neighbors(
            query, "user", 6
        )

    def test_empty_shards_get_no_index(self, tiny_actor):
        # "time" has ~13 keys over 8 shards: some shards own no rows and
        # must contribute nothing (None index) instead of crashing.
        sharded = ShardedIndexedQueryEngine(
            tiny_actor, n_shards=8, nlist=4, nprobe=4
        )
        indexes = sharded.indexes_for("time")
        assert len(indexes) == 8
        status = sharded.ann_status()
        rows = [s["rows"] for s in status["indexes"]["time"]["shards"]]
        assert sum(rows) == len(tiny_actor.modality_cache("time").keys)
        exact = QueryEngine(tiny_actor)
        query = np.ones(tiny_actor.dim)
        got = sharded.neighbors(query, "time", 5)
        want = exact.neighbors(query, "time", 5)
        assert {k for k, _ in got} == {k for k, _ in want}

    def test_rejects_unknown_ann_modality(self, tiny_actor):
        engine = ShardedIndexedQueryEngine(tiny_actor, n_shards=2)
        with pytest.raises(ValueError, match="not ANN-indexed"):
            engine.indexes_for("user")
