"""Bitwise oracle for the array-built activity graph.

The reference below is the record-at-a-time build: ``_add_record`` adds
every edge with ``add_edge``, which sums weights into one
``{(src, dst): weight}`` dict per edge type, and ``finalize`` turns each
dict into arrays.  The shipped builder resolves ids in one pass over the
records and hands each edge type's arrays to the graph at once.  Both
must give the same nodes, the same edge-type order, the same edge arrays
and degrees bit for bit, the same record units and the same interaction
graph: edge order feeds the alias tables and with them the RNG stream.
"""

import pickle
from collections import defaultdict
from collections.abc import Hashable
from itertools import combinations

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.data import Corpus, Record
from repro.data.datasets import generate_dataset
from repro.data.text import Vocabulary
from repro.graphs import ActivityGraph, EdgeType, GraphBuilder, NodeType
from repro.graphs.builder import BuiltGraphs, RecordUnits
from repro.graphs.interaction_graph import UserInteractionGraph
from repro.graphs.types import EdgeSet, edge_type_between
from repro.hotspots import HotspotDetector
from repro.hotspots.grid import GridDetector

# --------------------------------------------------------------- reference
# The dict-accumulating graph and the record-at-a-time build, code
# verbatim (the graph class renamed).


class ReferenceGraph:
    def __init__(self) -> None:
        self._index: dict[tuple[NodeType, Hashable], int] = {}
        self._nodes: list[tuple[NodeType, Hashable]] = []
        self._edges: dict[EdgeType, dict[tuple[int, int], float]] = defaultdict(dict)
        self._finalized: dict[EdgeType, EdgeSet] | None = None
        self._degrees: dict[EdgeType, np.ndarray] | None = None

    def add_node(self, node_type: NodeType, key: Hashable) -> int:
        """Register ``(node_type, key)`` if new; return its dense index."""
        handle = (node_type, key)
        existing = self._index.get(handle)
        if existing is not None:
            return existing
        if self._finalized is not None:
            raise RuntimeError("graph is finalized; no further mutation allowed")
        idx = len(self._nodes)
        self._index[handle] = idx
        self._nodes.append(handle)
        return idx

    def index_of(self, node_type: NodeType, key: Hashable) -> int:
        """Dense index of an existing node; raises ``KeyError`` if absent."""
        return self._index[(node_type, key)]

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Accumulate ``weight`` onto the (typed, undirected) edge ``{u, v}``.

        The edge type is inferred from the endpoint node types; self-loops
        are rejected (a unit never co-occurs with itself).
        """
        if self._finalized is not None:
            raise RuntimeError("graph is finalized; no further mutation allowed")
        if u == v:
            raise ValueError(f"self-loop on node {u} is not allowed")
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        type_u, type_v = self._nodes[u][0], self._nodes[v][0]
        edge_type = edge_type_between(type_u, type_v)
        # Canonical orientation: src side matches endpoints[0]; symmetric
        # types (WW/UU) order by index so {u,v} and {v,u} collide correctly.
        first, _second = edge_type.endpoints
        if type_u is type_v:
            key = (u, v) if u < v else (v, u)
        elif type_u is first:
            key = (u, v)
        else:
            key = (v, u)
        bucket = self._edges[edge_type]
        bucket[key] = bucket.get(key, 0.0) + float(weight)

    def edge_weight(self, u: int, v: int) -> float:
        """Current co-occurrence weight of ``{u, v}`` (0 if absent)."""
        type_u, type_v = self._nodes[u][0], self._nodes[v][0]
        try:
            edge_type = edge_type_between(type_u, type_v)
        except KeyError:
            return 0.0
        first, _ = edge_type.endpoints
        if type_u is type_v:
            key = (u, v) if u < v else (v, u)
        elif type_u is first:
            key = (u, v)
        else:
            key = (v, u)
        return self._edges.get(edge_type, {}).get(key, 0.0)

    def finalize(self) -> None:
        """Freeze the graph into array-backed edge sets and degree vectors.

        Idempotent; after finalization mutation raises.
        """
        if self._finalized is not None:
            return
        finalized: dict[EdgeType, EdgeSet] = {}
        degrees: dict[EdgeType, np.ndarray] = {}
        n = len(self._nodes)
        for edge_type, bucket in self._edges.items():
            if not bucket:
                continue
            pairs = np.asarray(list(bucket.keys()), dtype=np.int64)
            weights = np.asarray(list(bucket.values()), dtype=np.float64)
            edge_set = EdgeSet(
                edge_type=edge_type,
                src=pairs[:, 0],
                dst=pairs[:, 1],
                weight=weights,
            )
            finalized[edge_type] = edge_set
            degree = np.zeros(n, dtype=np.float64)
            np.add.at(degree, edge_set.src, edge_set.weight)
            np.add.at(degree, edge_set.dst, edge_set.weight)
            degrees[edge_type] = degree
        self._finalized = finalized
        self._degrees = degrees


class ReferenceBuilder(GraphBuilder):
    def build(self, corpus: Corpus) -> BuiltGraphs:
        """Run hotspot detection, vocabulary fitting and graph assembly."""
        if len(corpus) == 0:
            raise ValueError("cannot build graphs from an empty corpus")
        self._ensure_fitted(corpus)

        activity = ReferenceGraph()
        interaction = UserInteractionGraph()
        # Pre-register hotspot units so node indices are contiguous by type:
        # temporal first, then spatial, then words, then users.
        for t in range(self.detector.n_temporal):
            activity.add_node(NodeType.TIME, t)
        for s in range(self.detector.n_spatial):
            activity.add_node(NodeType.LOCATION, s)
        for word in self.vocab.words:
            activity.add_node(NodeType.WORD, word)

        # Snap every record to its hotspots: one vectorized call per modality.
        spatial = self.detector.assign_spatial(corpus.locations())
        temporal = self.detector.assign_temporal(corpus.timestamps())
        record_units = [
            self._add_record(record, int(s), int(t), activity, interaction)
            for record, s, t in zip(corpus, spatial, temporal)
        ]

        if self.neighbor_smoothing:
            self._add_smoothing_edges(activity)
        activity.finalize()
        interaction.finalize()
        return BuiltGraphs(
            activity=activity,
            interaction=interaction,
            detector=self.detector,
            vocab=self.vocab,
            record_units=record_units,
        )

    def _add_smoothing_edges(self, activity) -> None:
        spatial = self.detector.spatial_hotspots
        if spatial.shape[0] > 1:
            k = min(self.spatial_neighbors + 1, spatial.shape[0])
            _, idx = cKDTree(spatial).query(spatial, k=k)
            for i, row in enumerate(idx):
                node_i = activity.index_of(NodeType.LOCATION, i)
                for j in row[1:]:
                    node_j = activity.index_of(NodeType.LOCATION, int(j))
                    if node_i < node_j:  # add each pair once
                        activity.add_edge(node_i, node_j, self.smoothing_weight)

        temporal = self.detector.temporal_hotspots
        n_t = temporal.shape[0]
        if n_t > 1:
            period = self.detector.period
            diff = np.abs(temporal[:, None] - temporal[None, :])
            circ = np.minimum(diff, period - diff)
            np.fill_diagonal(circ, np.inf)
            k = min(self.temporal_neighbors, n_t - 1)
            for i in range(n_t):
                node_i = activity.index_of(NodeType.TIME, i)
                for j in np.argsort(circ[i])[:k]:
                    node_j = activity.index_of(NodeType.TIME, int(j))
                    if node_i < node_j:
                        activity.add_edge(node_i, node_j, self.smoothing_weight)

    def _add_record(
        self,
        record: Record,
        spatial_idx: int,
        temporal_idx: int,
        activity,
        interaction: UserInteractionGraph,
    ) -> RecordUnits:
        t_node = activity.index_of(NodeType.TIME, temporal_idx)
        l_node = activity.index_of(NodeType.LOCATION, spatial_idx)
        word_nodes = tuple(
            activity.index_of(NodeType.WORD, w)
            for w in record.words
            if w in self.vocab
        )

        # Intra-record co-occurrence edges (meta-graph M0).
        activity.add_edge(t_node, l_node)
        for w_node in word_nodes:
            activity.add_edge(l_node, w_node)
            activity.add_edge(w_node, t_node)
        distinct_words = tuple(dict.fromkeys(word_nodes))
        if len(distinct_words) <= self.max_words_for_pairs:
            for w1, w2 in combinations(distinct_words, 2):
                activity.add_edge(w1, w2)

        user_nodes: tuple[int, ...] = ()
        if self.include_users:
            linked_users = [record.user]
            if self.link_mentions:
                linked_users.extend(record.mentions)
            nodes = []
            for i, name in enumerate(dict.fromkeys(linked_users)):
                u_node = activity.add_node(NodeType.USER, name)
                weight = 1.0 if i == 0 else self.mention_link_weight
                activity.add_edge(u_node, t_node, weight)
                activity.add_edge(u_node, l_node, weight)
                for w_node in distinct_words:
                    activity.add_edge(u_node, w_node, weight)
                nodes.append(u_node)
            user_nodes = tuple(nodes)

        # User interaction graph: author <-> every mentioned user.
        interaction.add_user(record.user)
        for mention in record.mentions:
            interaction.add_mention(record.user, mention)

        return RecordUnits(
            record_id=record.record_id,
            time_node=t_node,
            location_node=l_node,
            word_nodes=word_nodes,
            user_nodes=user_nodes,
        )


# ---------------------------------------------------------------- helpers


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_graph(ref: ReferenceGraph, new: ActivityGraph) -> None:
    assert [new.node_of(i) for i in range(new.n_nodes)] == ref._nodes
    assert list(new.edge_sets) == list(ref._finalized)
    for edge_type, want in ref._finalized.items():
        got = new.edge_sets[edge_type]
        assert got.edge_type is edge_type
        for field in ("src", "dst", "weight"):
            assert same_bytes(getattr(got, field), getattr(want, field)), (
                edge_type, field,
            )
        assert same_bytes(new.degrees(edge_type), ref._degrees[edge_type])
    assert new.n_edges == sum(len(es) for es in ref._finalized.values())


def assert_same_build(ref: BuiltGraphs, new: BuiltGraphs) -> None:
    assert_same_graph(ref.activity, new.activity)
    assert new.record_units == ref.record_units
    for units in new.record_units:
        assert all(
            type(node) is int
            for node in (units.time_node, units.location_node,
                         *units.word_nodes, *units.user_nodes)
        )
    old, cur = ref.interaction, new.interaction
    assert cur.users == old.users
    for field in ("src", "dst", "weight"):
        assert same_bytes(
            getattr(cur.edge_set, field), getattr(old.edge_set, field)
        )
    assert same_bytes(cur.degree, old.degree)


def fitted_detector(kind: str, corpus: Corpus):
    if kind == "grid":
        return GridDetector(cell_km=1.0, min_support=1).fit(corpus)
    return HotspotDetector(min_support=1).fit(corpus)


def build_both(corpus: Corpus, *, detector="meanshift", min_count=2, **options):
    """The reference's and the shipped builder's graphs over ``corpus``,
    sharing one fitted detector and vocabulary."""
    det = fitted_detector(detector, corpus)
    vocab = Vocabulary(min_count=min_count).fit(r.words for r in corpus)
    ref = ReferenceBuilder(detector=det, vocab=vocab, **options).build(corpus)
    new = GraphBuilder(detector=det, vocab=vocab, **options).build(corpus)
    return ref, new


def record(i, user, words, mentions=(), hour=9.0, at=(1.0, 1.0)):
    return Record(record_id=i, user=user, timestamp=hour, location=at,
                  words=tuple(words), mentions=tuple(mentions))


def edge_case_corpus() -> Corpus:
    """Records that exercise every branch of the per-record loop.

    The first record has no in-vocabulary word and no mention, so the
    word and mention edge types first appear later; "zz*" words occur
    in one record only (twice in all) and fall below ``min_count=3``.
    """
    rows = [
        record(0, "ann", ["zz0", "zz1"]),
        record(1, "bob", ["cafe", "zz2"], hour=13.0, at=(5.0, 5.0)),
        record(2, "ann", ["cafe", "cafe", "park", "cafe"], ["bob"]),
        record(3, "cat", ["park", "cafe"], ["cat", "cat", "ann", "cat"]),
        record(4, "bob", ["a", "b", "c", "d", "e", "cafe"], ["dan"], hour=20.0),
        record(5, "dan", ["a", "b", "c", "d"], ["dan"], at=(5.0, 5.0)),
        record(6, "eve", ["b", "a", "b", "e"], ["ann", "bob", "ann"], hour=13.0),
        record(7, "eve", [], ["fay"], hour=20.0, at=(9.0, 1.0)),
        record(8, "fay", ["e", "d", "c", "b", "a", "park", "zz3"], ["eve"]),
        record(9, "ann", ["park", "a", "e", "e"], hour=13.0, at=(9.0, 1.0)),
    ]
    return Corpus(records=rows * 2)


def random_corpus(seed: int, n: int = 120) -> Corpus:
    """Small corpora with heavy repetition: few words, users and places."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(14)]
    users = [f"u{i}" for i in range(9)]
    rows = []
    for i in range(n):
        rows.append(record(
            i,
            str(rng.choice(users)),
            rng.choice(words, size=rng.integers(0, 9)).tolist(),
            rng.choice(users, size=rng.integers(0, 4)).tolist(),
            hour=float(rng.uniform(0, 24)),
            at=tuple(rng.uniform(0, 6, size=2).tolist()),
        ))
    return Corpus(records=rows)


# ------------------------------------------------------------------- tests


class TestPresets:
    @pytest.mark.parametrize("preset", ["utgeo2011", "tweet", "4sq"])
    def test_preset_corpus(self, preset):
        corpus = generate_dataset(preset, n_records=500, seed=11).train
        assert_same_build(*build_both(corpus))

    def test_grid_detector(self):
        corpus = generate_dataset("utgeo2011", n_records=500, seed=12).train
        assert_same_build(*build_both(corpus, detector="grid"))

    def test_fractional_mention_link_weight(self):
        corpus = generate_dataset("utgeo2011", n_records=500, seed=13).train
        ref, new = build_both(corpus, mention_link_weight=0.3)
        assert_same_build(ref, new)
        # Fractional weights make the summation order visible.
        assert any(
            not np.array_equal(es.weight, np.round(es.weight))
            for es in new.activity.edge_sets.values()
        )

    @pytest.mark.parametrize(
        "options",
        [{"link_mentions": False}, {"include_users": False}],
        ids=["authors-only", "no-users"],
    )
    def test_user_linking_off(self, options):
        corpus = generate_dataset("tweet", n_records=500, seed=14).train
        assert_same_build(*build_both(corpus, **options))

    @pytest.mark.parametrize(
        "options",
        [{}, {"spatial_neighbors": 1, "temporal_neighbors": 5,
              "smoothing_weight": 0.7}],
        ids=["defaults", "custom"],
    )
    def test_neighbor_smoothing(self, options):
        corpus = generate_dataset("4sq", n_records=500, seed=15).train
        ref, new = build_both(corpus, neighbor_smoothing=True, **options)
        assert EdgeType.LL in new.activity.edge_sets
        assert EdgeType.TT in new.activity.edge_sets
        assert_same_build(ref, new)


class TestEdgeCases:
    @pytest.mark.parametrize("max_words", [0, 3, 4, 30])
    @pytest.mark.parametrize("detector", ["meanshift", "grid"])
    def test_hand_built_corpus(self, detector, max_words):
        ref, new = build_both(
            edge_case_corpus(), detector=detector, min_count=3,
            max_words_for_pairs=max_words, mention_link_weight=0.3,
        )
        assert_same_build(ref, new)

    def test_first_record_without_words_reorders_edge_types(self):
        ref, new = build_both(edge_case_corpus(), min_count=3)
        assert_same_build(ref, new)
        assert list(new.activity.edge_sets) == [
            EdgeType.TL, EdgeType.UT, EdgeType.UL, EdgeType.LW, EdgeType.WT,
            EdgeType.UW, EdgeType.WW,
        ]

    @pytest.mark.parametrize(
        "options",
        [{}, {"include_users": False}, {"link_mentions": False},
         {"neighbor_smoothing": True, "mention_link_weight": 2.5}],
    )
    def test_no_record_has_an_in_vocabulary_word(self, options):
        corpus = Corpus(records=[
            record(i, f"u{i % 3}", [f"only{i}"], [f"u{(i + 1) % 4}"],
                   hour=float(i % 24), at=(float(i % 5), 0.0))
            for i in range(12)
        ])
        ref, new = build_both(corpus, **options)
        assert_same_build(ref, new)
        assert EdgeType.LW not in new.activity.edge_sets

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("detector", ["meanshift", "grid"])
    def test_random_corpus(self, seed, detector):
        ref, new = build_both(
            random_corpus(seed), detector=detector, min_count=3,
            max_words_for_pairs=4, mention_link_weight=0.1 * (seed + 1),
        )
        assert_same_build(ref, new)


class TestGraphAlone:
    def test_bulk_edges_match_one_at_a_time(self):
        """Mixed types, both orientations, repeats and fractional weights
        in one ``add_edges`` call."""
        rng = np.random.default_rng(3)
        ref, new = ReferenceGraph(), ActivityGraph()
        for graph in (ref, new):
            for node_type, count in zip(NodeType, (3, 4, 6, 5)):
                for key in range(count):
                    graph.add_node(node_type, key)
        u = rng.integers(0, 18, 2000)
        v = rng.integers(0, 18, 2000)
        keep = u != v
        u, v = u[keep], v[keep]
        weight = rng.choice([0.1, 0.3, 1.0, 2.7], size=u.size)
        for a, b, w in zip(u.tolist(), v.tolist(), weight.tolist()):
            ref.add_edge(a, b, w)
        new.add_edges(u[:700], v[:700], weight[:700])
        for a, b, w in zip(u[700:900].tolist(), v[700:900].tolist(),
                           weight[700:900].tolist()):
            new.add_edge(a, b, w)
        new.add_edges(u[900:], v[900:], weight[900:])
        assert new.edge_weight(3, 7) == ref.edge_weight(3, 7)
        ref.finalize()
        new.finalize()
        assert_same_graph(ref, new)

    @staticmethod
    def old_pickle(graph: ReferenceGraph) -> bytes:
        """What pickling the dict-based class wrote: the shipped class
        name and its instance dict, edge dicts included."""
        stored = ActivityGraph.__new__(ActivityGraph)
        stored.__dict__.update(vars(graph))
        return pickle.dumps(stored, protocol=pickle.HIGHEST_PROTOCOL)

    def test_loads_a_finalized_pickle_of_the_dict_based_class(self):
        corpus = generate_dataset("utgeo2011", n_records=300, seed=16).train
        ref, new = build_both(corpus, mention_link_weight=0.3)
        loaded = pickle.loads(self.old_pickle(ref.activity))
        assert isinstance(loaded, ActivityGraph)
        assert_same_graph(ref.activity, loaded)
        assert "_edges" not in vars(loaded)
        for edge_set in ref.activity._finalized.values():
            for s, d in list(zip(edge_set.src.tolist(), edge_set.dst.tolist()))[:50]:
                assert loaded.edge_weight(s, d) == ref.activity.edge_weight(s, d)
                assert loaded.edge_weight(d, s) == ref.activity.edge_weight(d, s)
        assert loaded.edge_weight(0, 1) == ref.activity.edge_weight(0, 1)
        with pytest.raises(RuntimeError, match="finalized"):
            loaded.add_edge(0, loaded.n_nodes - 1)
        # Pickled again, the graph carries arrays only.
        again = pickle.loads(pickle.dumps(loaded))
        assert again._pending is None
        assert_same_graph(ref.activity, again)

    def test_loads_an_unfinalized_pickle_of_the_dict_based_class(self):
        corpus = generate_dataset("tweet", n_records=300, seed=17).train
        det = fitted_detector("meanshift", corpus)
        vocab = Vocabulary(min_count=2).fit(r.words for r in corpus)
        ref = ReferenceGraph()
        builder = ReferenceBuilder(detector=det, vocab=vocab,
                                   mention_link_weight=0.3)
        for t in range(det.n_temporal):
            ref.add_node(NodeType.TIME, t)
        for s in range(det.n_spatial):
            ref.add_node(NodeType.LOCATION, s)
        for word in vocab.words:
            ref.add_node(NodeType.WORD, word)
        interaction = UserInteractionGraph()
        records = list(corpus)
        spatial = det.assign_spatial(corpus.locations())
        temporal = det.assign_temporal(corpus.timestamps())
        for r, s, t in zip(records[:150], spatial, temporal):
            builder._add_record(r, int(s), int(t), ref, interaction)
        loaded = pickle.loads(self.old_pickle(ref))
        assert loaded.n_edges == sum(len(b) for b in ref._edges.values())
        # Both go on accumulating: new users, repeated edges and all.
        for r, s, t in zip(records[150:], spatial[150:], temporal[150:]):
            builder._add_record(r, int(s), int(t), ref, interaction)
            builder._add_record(r, int(s), int(t), loaded, interaction)
        ref.finalize()
        loaded.finalize()
        assert_same_graph(ref, loaded)
