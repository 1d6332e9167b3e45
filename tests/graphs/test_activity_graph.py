"""Tests for the heterogeneous activity graph."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import ActivityGraph, EdgeType, NodeType


@pytest.fixture
def tiny_graph():
    """T0-L0-{w1,w2} plus a user, mirroring Fig. 3a's left record."""
    g = ActivityGraph()
    t = g.add_node(NodeType.TIME, 0)
    l = g.add_node(NodeType.LOCATION, 0)
    w1 = g.add_node(NodeType.WORD, "harbor")
    w2 = g.add_node(NodeType.WORD, "dock")
    u = g.add_node(NodeType.USER, "alice")
    g.add_edge(t, l)
    g.add_edge(l, w1)
    g.add_edge(l, w2)
    g.add_edge(w1, t)
    g.add_edge(w1, w2)
    g.add_edge(u, t)
    g.add_edge(u, l)
    g.add_edge(u, w1)
    return g, dict(t=t, l=l, w1=w1, w2=w2, u=u)


class TestNodes:
    def test_add_node_is_idempotent(self):
        g = ActivityGraph()
        a = g.add_node(NodeType.WORD, "harbor")
        b = g.add_node(NodeType.WORD, "harbor")
        assert a == b
        assert len(g) == 1

    def test_same_key_different_type_distinct(self):
        g = ActivityGraph()
        a = g.add_node(NodeType.TIME, 0)
        b = g.add_node(NodeType.LOCATION, 0)
        assert a != b

    def test_index_of_missing_raises(self):
        g = ActivityGraph()
        with pytest.raises(KeyError):
            g.index_of(NodeType.WORD, "missing")

    def test_node_handle_roundtrip(self, tiny_graph):
        g, nodes = tiny_graph
        assert g.node_of(nodes["w1"]) == (NodeType.WORD, "harbor")
        assert g.type_of(nodes["t"]) is NodeType.TIME
        assert g.key_of(nodes["u"]) == "alice"

    def test_nodes_of_type(self, tiny_graph):
        g, nodes = tiny_graph
        words = g.nodes_of_type(NodeType.WORD)
        assert set(words.tolist()) == {nodes["w1"], nodes["w2"]}

    def test_counts_by_type(self, tiny_graph):
        g, _ = tiny_graph
        counts = g.counts_by_type()
        assert counts[NodeType.WORD] == 2
        assert counts[NodeType.USER] == 1


class TestEdges:
    def test_weight_accumulates(self):
        g = ActivityGraph()
        t = g.add_node(NodeType.TIME, 0)
        l = g.add_node(NodeType.LOCATION, 0)
        g.add_edge(t, l)
        g.add_edge(l, t)  # reversed order hits the same undirected edge
        assert g.edge_weight(t, l) == pytest.approx(2.0)

    def test_symmetric_type_orientation_collapses(self):
        g = ActivityGraph()
        w1 = g.add_node(NodeType.WORD, "a")
        w2 = g.add_node(NodeType.WORD, "b")
        g.add_edge(w1, w2)
        g.add_edge(w2, w1)
        assert g.edge_weight(w1, w2) == pytest.approx(2.0)
        g.finalize()
        assert len(g.edge_set(EdgeType.WW)) == 1

    def test_rejects_self_loop(self):
        g = ActivityGraph()
        w = g.add_node(NodeType.WORD, "a")
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edge(w, w)

    def test_rejects_nonpositive_weight(self):
        g = ActivityGraph()
        t = g.add_node(NodeType.TIME, 0)
        l = g.add_node(NodeType.LOCATION, 0)
        with pytest.raises(ValueError, match="positive"):
            g.add_edge(t, l, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_rejects_weights_that_are_not_finite_and_positive(self, bad):
        g = ActivityGraph()
        t = g.add_node(NodeType.TIME, 0)
        loc = g.add_node(NodeType.LOCATION, 0)
        with pytest.raises(ValueError, match="finite and positive"):
            g.add_edge(t, loc, bad)
        with pytest.raises(ValueError, match="finite and positive"):
            g.add_edges([t, loc], [loc, t], [1.0, bad])
        g.finalize()
        assert g.n_edges == 0  # a rejected batch keeps none of its edges

    def test_bulk_batch_is_checked_before_any_edge_is_kept(self):
        g = ActivityGraph()
        t = g.add_node(NodeType.TIME, 0)
        loc = g.add_node(NodeType.LOCATION, 0)
        w = g.add_node(NodeType.WORD, "a")
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edges([t, w], [loc, w])
        with pytest.raises(IndexError):
            g.add_edges([t, loc], [loc, 3])
        with pytest.raises(IndexError):
            g.add_edges([t, -1], [loc, t])
        assert g.n_edges == 0
        g.add_edges([w, t, loc], [loc, loc, w], [1.0, 2.0, 0.5])
        assert g.edge_weight(loc, w) == 1.5
        assert g.edge_weight(t, loc) == 2.0
        g.finalize()
        assert list(g.edge_sets) == [EdgeType.LW, EdgeType.TL]

    def test_edge_weight_of_unconnectable_pair_is_zero(self, tiny_graph):
        g, nodes = tiny_graph
        assert g.edge_weight(nodes["w2"], nodes["t"]) == 0.0


class TestFinalize:
    def test_mutation_after_finalize_raises(self, tiny_graph):
        g, nodes = tiny_graph
        g.finalize()
        with pytest.raises(RuntimeError, match="finalized"):
            g.add_node(NodeType.WORD, "new")
        with pytest.raises(RuntimeError, match="finalized"):
            g.add_edge(nodes["t"], nodes["l"])

    def test_finalize_is_idempotent(self, tiny_graph):
        g, _ = tiny_graph
        g.finalize()
        sets_before = g.edge_sets
        g.finalize()
        assert g.edge_sets is sets_before

    def test_edge_sets_before_finalize_raise(self, tiny_graph):
        g, _ = tiny_graph
        with pytest.raises(RuntimeError, match="not finalized"):
            _ = g.edge_sets

    def test_canonical_src_side(self, tiny_graph):
        """In every typed edge set, src nodes have the first endpoint type."""
        g, _ = tiny_graph
        g.finalize()
        for edge_type, edge_set in g.edge_sets.items():
            first, second = edge_type.endpoints
            for s, d in zip(edge_set.src, edge_set.dst):
                assert g.type_of(int(s)) is first
                assert g.type_of(int(d)) is second

    def test_n_edges_counts_distinct_edges(self, tiny_graph):
        g, _ = tiny_graph
        assert g.n_edges == 8
        g.finalize()
        assert g.n_edges == 8

    def test_finalized_graph_pickles_arrays_only(self, tiny_graph):
        g, nodes = tiny_graph
        g.finalize()
        loaded = pickle.loads(pickle.dumps(g))
        assert loaded._pending is None
        assert "_edges" not in vars(loaded)
        assert list(loaded.edge_sets) == list(g.edge_sets)
        assert loaded.edge_weight(nodes["l"], nodes["t"]) == 1.0
        assert loaded.edge_weight(nodes["w2"], nodes["t"]) == 0.0

    def test_empty_type_returns_empty_edge_set(self, tiny_graph):
        g, _ = tiny_graph
        g.finalize()
        assert len(g.edge_set(EdgeType.UU)) == 0


class TestDegrees:
    def test_degree_counts_both_sides(self, tiny_graph):
        g, nodes = tiny_graph
        g.finalize()
        lw_deg = g.degrees(EdgeType.LW)
        assert lw_deg[nodes["l"]] == pytest.approx(2.0)  # two word neighbors
        assert lw_deg[nodes["w1"]] == pytest.approx(1.0)

    def test_degree_zero_for_uninvolved_nodes(self, tiny_graph):
        g, nodes = tiny_graph
        g.finalize()
        assert g.degrees(EdgeType.LW)[nodes["u"]] == 0.0

    def test_total_degree_sums_types(self, tiny_graph):
        g, nodes = tiny_graph
        g.finalize()
        total = g.total_degree()
        # w1 participates in LW(1) + WT(1) + WW(1) + UW(1) = 4
        assert total[nodes["w1"]] == pytest.approx(4.0)

    def test_degrees_of_absent_type_are_zeros(self, tiny_graph):
        g, _ = tiny_graph
        g.finalize()
        np.testing.assert_array_equal(g.degrees(EdgeType.UU), 0.0)


class TestNeighborsAndSummary:
    def test_neighbors(self, tiny_graph):
        g, nodes = tiny_graph
        g.finalize()
        neigh = g.neighbors(nodes["l"])
        assert set(neigh) == {nodes["t"], nodes["w1"], nodes["w2"], nodes["u"]}

    def test_summary_matches_counts(self, tiny_graph):
        g, _ = tiny_graph
        summary = g.summary()
        assert summary["n_nodes"] == 5
        assert summary["n_words"] == 2
        assert summary["n_users"] == 1

    @settings(max_examples=20, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            min_size=1,
            max_size=30,
        )
    )
    def test_property_degree_equals_twice_total_weight(self, edges):
        g = ActivityGraph()
        words = [g.add_node(NodeType.WORD, f"w{i}") for i in range(6)]
        added = 0.0
        for a, b in edges:
            if a != b:
                g.add_edge(words[a], words[b])
                added += 1.0
        if added == 0:
            return
        g.finalize()
        degree_sum = g.degrees(EdgeType.WW).sum()
        assert degree_sum == pytest.approx(2.0 * added)
