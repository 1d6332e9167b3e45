"""Tests for the metapath2vec baseline."""

import numpy as np
import pytest

from repro.baselines import MetaPath2Vec
from repro.graphs import NodeType


class TestConstruction:
    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError, match="meta_path"):
            MetaPath2Vec(meta_path="LXW")

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError, match="meta_path"):
            MetaPath2Vec(meta_path="")

    def test_rejects_unwalkable_pattern(self):
        # TIME-TIME edges exist as a type (TT), but T-L-T-L is fine; an
        # unwalkable cyclic pattern would be impossible to build here since
        # all type pairs have an edge type. Pattern validation still runs.
        MetaPath2Vec(meta_path="LWTW")  # the paper's default must validate


class TestFit:
    @pytest.fixture(scope="class")
    def fitted(self, dataset):
        return MetaPath2Vec(
            dim=16,
            walks_per_node=2,
            walk_length=12,
            epochs=1,
            seed=0,
        ).fit(dataset.train)

    def test_embeddings_finite(self, fitted):
        assert np.isfinite(fitted.center).all()

    def test_walks_follow_meta_path(self, fitted, dataset):
        """Regenerated walks must follow a rotation of L-W-T-W.

        Walks start from every node whose type appears in the pattern, so
        each walk's type sequence matches the pattern rotated to begin at
        its start node's type.
        """
        rng = np.random.default_rng(1)
        walks = fitted._generate_walks(fitted.built.activity, rng)
        assert walks
        pattern = [NodeType.LOCATION, NodeType.WORD, NodeType.TIME, NodeType.WORD]
        rotations = [pattern[i:] + pattern[:i] for i in range(4)]
        for walk in walks[:40]:
            types = [fitted.built.activity.type_of(n) for n in walk]
            assert any(
                all(
                    t is rot[i % 4] for i, t in enumerate(types)
                )
                for rot in rotations
                if rot[0] is types[0]
            ), types

    def test_walks_start_from_every_pattern_type(self, fitted):
        """Coverage fix: walks must start at W and T nodes too, not only L."""
        rng = np.random.default_rng(2)
        walks = fitted._generate_walks(fitted.built.activity, rng)
        start_types = {fitted.built.activity.type_of(w[0]) for w in walks}
        assert {NodeType.LOCATION, NodeType.WORD, NodeType.TIME} <= start_types

    def test_no_user_vertices_for_default_path(self, fitted):
        assert fitted.built.activity.counts_by_type()[NodeType.USER] == 0

    def test_score_candidates(self, fitted, dataset):
        records = dataset.test.records[:3]
        scores = fitted.score_candidates(
            target="time",
            candidates=[r.timestamp for r in records],
            location=records[0].location,
            words=records[0].words,
        )
        assert scores.shape == (3,)

    def test_window_pairs_within_bounds(self, fitted):
        pairs = fitted._walk_pairs([[1, 2, 3, 4, 5]])
        # window=3: every ordered pair within distance 3
        expected_count = sum(
            1
            for i in range(5)
            for j in range(max(0, i - 3), min(5, i + 4))
            if i != j
        )
        assert pairs.shape == (expected_count, 2)
