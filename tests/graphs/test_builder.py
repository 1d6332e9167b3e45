"""Tests for graph construction from a corpus (Algorithm 1, lines 1-2)."""

import numpy as np
import pytest

from repro.data import Corpus, Record
from repro.graphs import EdgeType, GraphBuilder, NodeType
from repro.hotspots import HotspotDetector


def two_record_corpus():
    """The Fig. 1 situation: B mentions A; records at two venues/hours."""
    return Corpus(
        records=[
            Record(
                record_id=0,
                user="userA",
                timestamp=15.25,
                location=(2.0, 2.0),
                words=("movie", "planet", "apes"),
            ),
            Record(
                record_id=1,
                user="userB",
                timestamp=20.5,
                location=(10.0, 10.0),
                words=("movie", "theatre", "discount"),
                mentions=("userA",),
            ),
        ]
        * 5  # replicate so hotspot min_support is met
    )


@pytest.fixture
def built_small():
    builder = GraphBuilder(
        detector=HotspotDetector(
            spatial_bandwidth=1.0, temporal_bandwidth=1.0, min_support=1
        ),
    )
    return builder.build(two_record_corpus())


class TestBuild:
    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError, match="empty corpus"):
            GraphBuilder().build(Corpus())

    def test_node_types_present(self, built_small):
        counts = built_small.activity.counts_by_type()
        assert counts[NodeType.TIME] == 2
        assert counts[NodeType.LOCATION] == 2
        assert counts[NodeType.WORD] == 5
        assert counts[NodeType.USER] == 2

    def test_intra_edge_types_present(self, built_small):
        for edge_type in (EdgeType.TL, EdgeType.LW, EdgeType.WT, EdgeType.WW):
            assert len(built_small.activity.edge_set(edge_type)) > 0

    def test_user_edges_present(self, built_small):
        for edge_type in (EdgeType.UT, EdgeType.UL, EdgeType.UW):
            assert len(built_small.activity.edge_set(edge_type)) > 0

    def test_cooccurrence_weights_count_records(self, built_small):
        """The shared word 'movie' links to both locations 5x each."""
        activity = built_small.activity
        movie = activity.index_of(NodeType.WORD, "movie")
        lw = activity.edge_set(EdgeType.LW)
        weights = [
            w
            for s, d, w in zip(lw.src, lw.dst, lw.weight)
            if int(d) == movie
        ]
        assert sorted(weights) == [5.0, 5.0]

    def test_interaction_graph_from_mentions(self, built_small):
        interaction = built_small.interaction
        assert interaction.mention_weight("userB", "userA") == pytest.approx(5.0)

    def test_record_units_align_with_corpus(self, built_small):
        assert len(built_small.record_units) == 10
        activity = built_small.activity
        for units in built_small.record_units:
            assert activity.type_of(units.time_node) is NodeType.TIME
            assert activity.type_of(units.location_node) is NodeType.LOCATION
            for w in units.word_nodes:
                assert activity.type_of(w) is NodeType.WORD


class TestMentionLinking:
    def test_mentioned_user_linked_to_units(self):
        """link_mentions=True attaches the mentioned user to the record's
        units — the cross-record leg of the inter-record meta-graphs."""
        builder = GraphBuilder(
            detector=HotspotDetector(
                spatial_bandwidth=1.0, temporal_bandwidth=1.0, min_support=1
            ),
            link_mentions=True,
        )
        built = builder.build(two_record_corpus())
        activity = built.activity
        user_a = activity.index_of(NodeType.USER, "userA")
        theatre = activity.index_of(NodeType.WORD, "theatre")
        # userA never wrote 'theatre' but is mentioned in the record with it.
        assert activity.edge_weight(user_a, theatre) > 0

    def test_link_mentions_off(self):
        builder = GraphBuilder(
            detector=HotspotDetector(
                spatial_bandwidth=1.0, temporal_bandwidth=1.0, min_support=1
            ),
            link_mentions=False,
        )
        built = builder.build(two_record_corpus())
        activity = built.activity
        user_a = activity.index_of(NodeType.USER, "userA")
        theatre = activity.index_of(NodeType.WORD, "theatre")
        assert activity.edge_weight(user_a, theatre) == 0.0

    def test_include_users_false_builds_unit_only_graph(self):
        builder = GraphBuilder(
            detector=HotspotDetector(
                spatial_bandwidth=1.0, temporal_bandwidth=1.0, min_support=1
            ),
            include_users=False,
        )
        built = builder.build(two_record_corpus())
        assert built.activity.counts_by_type()[NodeType.USER] == 0
        assert len(built.activity.edge_set(EdgeType.UW)) == 0


class TestSmoothing:
    def test_neighbor_smoothing_adds_ll_tt(self):
        builder = GraphBuilder(
            detector=HotspotDetector(
                spatial_bandwidth=1.0, temporal_bandwidth=1.0, min_support=1
            ),
            neighbor_smoothing=True,
        )
        built = builder.build(two_record_corpus())
        assert len(built.activity.edge_set(EdgeType.LL)) > 0
        assert len(built.activity.edge_set(EdgeType.TT)) > 0

    def test_no_smoothing_by_default(self, built_small):
        assert len(built_small.activity.edge_set(EdgeType.LL)) == 0
        assert len(built_small.activity.edge_set(EdgeType.TT)) == 0


class TestVocabularyInteraction:
    def test_pruned_words_excluded_from_graph(self):
        from repro.data import Vocabulary

        builder = GraphBuilder(
            detector=HotspotDetector(
                spatial_bandwidth=1.0, temporal_bandwidth=1.0, min_support=1
            ),
            vocab=Vocabulary(min_count=6),  # only 'movie' (10x) survives
        )
        built = builder.build(two_record_corpus())
        words = built.activity.nodes_of_type(NodeType.WORD)
        assert len(words) == 1
        assert built.activity.key_of(int(words[0])) == "movie"

    def test_ww_pairs_respect_max_words(self):
        corpus = Corpus(
            records=[
                Record(
                    record_id=0,
                    user="u",
                    timestamp=1.0,
                    location=(0.0, 0.0),
                    words=tuple(f"w{i}" for i in range(10)),
                )
            ]
            * 3
        )
        builder = GraphBuilder(
            detector=HotspotDetector(
                spatial_bandwidth=1.0, temporal_bandwidth=1.0, min_support=1
            ),
            vocab=__import__("repro.data", fromlist=["Vocabulary"]).Vocabulary(
                min_count=1
            ),
            max_words_for_pairs=5,
        )
        built = builder.build(corpus)
        assert len(built.activity.edge_set(EdgeType.WW)) == 0


class TestOnRealisticCorpus:
    def test_build_on_synthetic_corpus(self, built):
        summary = built.activity.summary()
        assert summary["n_spatial"] > 1
        assert summary["n_temporal"] > 1
        assert summary["n_words"] > 10
        assert summary["n_users"] > 10
        assert summary["n_edges"] > summary["n_nodes"]

    def test_degrees_positive_where_edges_exist(self, built):
        activity = built.activity
        for edge_type, edge_set in activity.edge_sets.items():
            degrees = activity.degrees(edge_type)
            assert (degrees[edge_set.src] > 0).all()
            assert (degrees[edge_set.dst] > 0).all()


class TestBatchedHotspotAssignment:
    """``build`` snaps all records in one call per modality; the graph must
    be exactly the one a record-at-a-time assignment gives."""

    @staticmethod
    def one_record_at_a_time(detector):
        """Make ``detector`` answer each batched call one record per call."""
        spatial, temporal = detector.assign_spatial, detector.assign_temporal
        detector.assign_spatial = lambda locations: np.concatenate(
            [spatial(np.asarray([loc], dtype=float)) for loc in locations]
        )
        detector.assign_temporal = lambda timestamps: np.concatenate(
            [temporal(np.asarray([ts], dtype=float)) for ts in timestamps]
        )
        return detector

    @pytest.mark.parametrize("kind", ["meanshift", "grid"])
    def test_per_record_and_batched_assignment_build_the_same_graph(
        self, corpus, kind
    ):
        from repro.hotspots.grid import GridDetector

        def fitted():
            if kind == "grid":
                return GridDetector(cell_km=1.0, min_support=1).fit(corpus)
            return HotspotDetector().fit(corpus)

        calls = []
        batched_detector = fitted()
        for name in ("assign_spatial", "assign_temporal"):
            method = getattr(batched_detector, name)

            def counted(values, method=method):
                calls.append(method.__name__)
                return method(values)

            setattr(batched_detector, name, counted)
        batched = GraphBuilder(detector=batched_detector).build(corpus)
        per_record = GraphBuilder(
            detector=self.one_record_at_a_time(fitted())
        ).build(corpus)

        assert sorted(calls) == ["assign_spatial", "assign_temporal"]
        # Each record's units are the hotspots its own coordinates snap to.
        detector = fitted()
        activity = batched.activity
        for record, units in zip(corpus, batched.record_units):
            spatial = detector.assign_spatial([record.location])[0]
            temporal = detector.assign_temporal([record.timestamp])[0]
            assert units.location_node == activity.index_of(
                NodeType.LOCATION, spatial
            )
            assert units.time_node == activity.index_of(NodeType.TIME, temporal)
        assert batched.record_units == per_record.record_units
        assert batched.activity.n_nodes == per_record.activity.n_nodes
        for edge_type in EdgeType:
            if edge_type not in batched.activity.edge_sets:
                assert edge_type not in per_record.activity.edge_sets
                continue
            got = batched.activity.edge_set(edge_type)
            want = per_record.activity.edge_set(edge_type)
            for field in ("src", "dst", "weight"):
                assert np.array_equal(getattr(got, field), getattr(want, field))
