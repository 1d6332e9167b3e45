"""Build the activity graph and user interaction graph from a corpus.

This is Lines 1-2 of Algorithm 1: hotspot detection discretizes locations
and timestamps into spatial/temporal units, the vocabulary filters keywords,
and then every record contributes

* intra-record co-occurrence edges ``TL, LW, WT, WW`` between its units,
* user-to-unit edges ``UT, UL, UW`` linking the author (and, when enabled,
  each mentioned user — the cross-record leg of the inter-record
  meta-graphs) to the record's units,
* ``UU`` mention edges in the user interaction graph.

One pass over the records resolves ids; each edge type's ``(src, dst,
weight)`` arrays are then built at once, in the order a record-by-record
insertion would add them, and handed to the graph in bulk.

The builder also keeps a per-record unit table (:class:`RecordUnits`) that
the ACTOR trainer needs for the intra-record bag-of-words objective, where
the textual side of a record is the *sum of all its word embeddings*
(footnote 4 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from repro.data.records import Corpus
from repro.data.text import Vocabulary
from repro.graphs.activity_graph import ActivityGraph
from repro.graphs.interaction_graph import UserInteractionGraph
from repro.graphs.types import NodeType
from repro.hotspots.detector import HotspotDetector

__all__ = ["RecordUnits", "BuiltGraphs", "GraphBuilder"]


@dataclass(frozen=True)
class RecordUnits:
    """Dense activity-graph indices of one record's units.

    ``word_nodes`` may be empty when every keyword was pruned by the
    vocabulary; such records still contribute their TL edge.
    """

    record_id: int
    time_node: int
    location_node: int
    word_nodes: tuple[int, ...]
    user_nodes: tuple[int, ...]


@dataclass
class BuiltGraphs:
    """Everything the embedding stage needs, produced by one build pass."""

    activity: ActivityGraph
    interaction: UserInteractionGraph
    detector: HotspotDetector
    vocab: Vocabulary
    record_units: list[RecordUnits] = field(default_factory=list)


class GraphBuilder:
    """Construct :class:`BuiltGraphs` from a training corpus.

    Parameters
    ----------
    detector:
        A :class:`HotspotDetector`; fitted here if not already fitted.
    vocab:
        A :class:`Vocabulary`; fitted on the corpus if not already fitted.
    link_mentions:
        Whether mentioned users are also linked to the record's units with
        ``mention_link_weight``.  This realizes the inter-record meta-graph
        shortcut "units -- mentioned user" of Fig. 3; disable to restrict
        user links to authors only.
    include_users:
        Whether to add U vertices and U-edges at all.  The plain LINE /
        CrossMap baselines build the graph with ``include_users=False``.
    """

    def __init__(
        self,
        *,
        detector: HotspotDetector | None = None,
        vocab: Vocabulary | None = None,
        link_mentions: bool = True,
        mention_link_weight: float = 1.0,
        include_users: bool = True,
        max_words_for_pairs: int = 30,
        neighbor_smoothing: bool = False,
        spatial_neighbors: int = 3,
        temporal_neighbors: int = 2,
        smoothing_weight: float = 1.0,
    ) -> None:
        # Explicit None checks: an unfitted Vocabulary has len() == 0 and
        # would be discarded by a truthiness test.
        self.detector = detector if detector is not None else HotspotDetector()
        self.vocab = vocab if vocab is not None else Vocabulary(min_count=2)
        self.link_mentions = link_mentions
        self.mention_link_weight = float(mention_link_weight)
        self.include_users = include_users
        self.max_words_for_pairs = int(max_words_for_pairs)
        self.neighbor_smoothing = neighbor_smoothing
        self.spatial_neighbors = int(spatial_neighbors)
        self.temporal_neighbors = int(temporal_neighbors)
        self.smoothing_weight = float(smoothing_weight)

    def build(self, corpus: Corpus) -> BuiltGraphs:
        """Run hotspot detection, vocabulary fitting and graph assembly."""
        if len(corpus) == 0:
            raise ValueError("cannot build graphs from an empty corpus")
        self._ensure_fitted(corpus)

        activity = ActivityGraph()
        interaction = UserInteractionGraph()
        # Pre-register hotspot units so node indices are contiguous by type:
        # temporal first, then spatial, then words, then users.
        time_nodes = np.array([
            activity.add_node(NodeType.TIME, t)
            for t in range(self.detector.n_temporal)
        ], dtype=np.int64)
        location_nodes = np.array([
            activity.add_node(NodeType.LOCATION, s)
            for s in range(self.detector.n_spatial)
        ], dtype=np.int64)
        word_nodes = {
            word: activity.add_node(NodeType.WORD, word)
            for word in self.vocab.words
        }

        # Snap every record to its hotspots: one vectorized call per modality.
        spatial = self.detector.assign_spatial(corpus.locations())
        temporal = self.detector.assign_temporal(corpus.timestamps())
        record_units, edges = self._record_edges(
            corpus,
            time_nodes[np.asarray(temporal)],
            location_nodes[np.asarray(spatial)],
            word_nodes,
            activity,
            interaction,
        )
        for src, dst, weight in edges:
            activity.add_edges(src, dst, weight)

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

    # ----------------------------------------------------------------- helpers

    def _add_smoothing_edges(self, activity: ActivityGraph) -> None:
        """CrossMap-style neighborhood edges between adjacent hotspots.

        Links every spatial hotspot to its ``spatial_neighbors`` nearest
        peers (LL edges) and every temporal hotspot to its circularly
        nearest ``temporal_neighbors`` (TT edges) with ``smoothing_weight``
        — the spatial/temporal-continuity relationship CrossMap models.
        """
        spatial = self.detector.spatial_hotspots
        if spatial.shape[0] > 1:
            k = min(self.spatial_neighbors + 1, spatial.shape[0])
            _, idx = cKDTree(spatial).query(spatial, k=k)
            idx = np.asarray(idx).reshape(spatial.shape[0], -1)
            self._add_neighbor_edges(activity, NodeType.LOCATION, idx[:, 1:])

        temporal = self.detector.temporal_hotspots
        n_t = temporal.shape[0]
        if n_t > 1:
            period = self.detector.period
            diff = np.abs(temporal[:, None] - temporal[None, :])
            circ = np.minimum(diff, period - diff)
            np.fill_diagonal(circ, np.inf)
            k = min(self.temporal_neighbors, n_t - 1)
            self._add_neighbor_edges(
                activity, NodeType.TIME, np.argsort(circ, axis=1)[:, :k]
            )

    def _add_neighbor_edges(
        self, activity: ActivityGraph, node_type: NodeType, neighbors: np.ndarray
    ) -> None:
        """Edges from hotspot ``i`` to each ``neighbors[i]``, each pair once."""
        nodes = np.array([
            activity.index_of(node_type, i) for i in range(neighbors.shape[0])
        ], dtype=np.int64)
        rows = np.repeat(nodes, neighbors.shape[1])
        cols = nodes[neighbors.reshape(-1)]
        once = rows < cols
        activity.add_edges(rows[once], cols[once], self.smoothing_weight)

    def _ensure_fitted(self, corpus: Corpus) -> None:
        try:
            _ = self.detector.spatial_hotspots
        except RuntimeError:
            self.detector.fit(corpus)
        if not self.vocab.is_fitted:
            self.vocab.fit(record.words for record in corpus)

    def _record_edges(
        self,
        corpus: Corpus,
        time_nodes: np.ndarray,
        location_nodes: np.ndarray,
        word_nodes: dict[str, int],
        activity: ActivityGraph,
        interaction: UserInteractionGraph,
    ) -> tuple[list[RecordUnits], list[tuple[np.ndarray, ...]]]:
        """Every record's units and the ``(src, dst, weight)`` of its edges.

        One pass over the records resolves ids only: each record's word
        nodes, its distinct words, its linked users (registered as user
        nodes in first-seen order) and its mentions.  Every edge type's
        arrays are then built at once, in the order a record-by-record
        insertion adds them:

        * intra-record co-occurrence edges (meta-graph M0): ``TL`` per
          record, ``LW`` and ``WT`` per word occurrence, ``WW`` per pair
          of distinct words when there are at most ``max_words_for_pairs``;
        * ``UT``, ``UL`` and ``UW`` (distinct words) per linked user:
          the author with weight 1, each mentioned user (when
          ``link_mentions``) with ``mention_link_weight``.

        The edge types come back in the order they first occur.
        """
        units: list[RecordUnits] = []
        words: list[int] = []
        distinct: list[int] = []
        users: list[int] = []
        n_words, n_distinct, n_users = [], [], []
        for record, t_node, l_node in zip(
            corpus, time_nodes.tolist(), location_nodes.tolist()
        ):
            record_words = tuple([
                word_nodes[w] for w in record.words if w in word_nodes
            ])
            record_distinct = tuple(dict.fromkeys(record_words))
            record_users: tuple[int, ...] = ()
            if self.include_users:
                linked = (record.user,)
                if self.link_mentions:
                    linked += record.mentions
                record_users = tuple([
                    activity.add_node(NodeType.USER, name)
                    for name in dict.fromkeys(linked)
                ])
            # User interaction graph: author <-> every mentioned user.
            interaction.add_user(record.user)
            for mention in record.mentions:
                interaction.add_mention(record.user, mention)
            units.append(RecordUnits(
                record_id=record.record_id,
                time_node=t_node,
                location_node=l_node,
                word_nodes=record_words,
                user_nodes=record_users,
            ))
            words.extend(record_words)
            distinct.extend(record_distinct)
            users.extend(record_users)
            n_words.append(len(record_words))
            n_distinct.append(len(record_distinct))
            n_users.append(len(record_users))

        words_a = np.array(words, dtype=np.int64)
        distinct_a = np.array(distinct, dtype=np.int64)
        users_a = np.array(users, dtype=np.int64)
        n_words_a = np.array(n_words, dtype=np.int64)
        n_distinct_a = np.array(n_distinct, dtype=np.int64)
        n_users_a = np.array(n_users, dtype=np.int64)
        records = np.arange(len(units))

        # (first record, rank within a record, src, dst, weight) per type.
        typed = [(0, 0, time_nodes, location_nodes, 1.0)]  # TL
        if words_a.size:
            owner = np.repeat(records, n_words_a)
            first = int(owner[0])
            typed.append((first, 1, location_nodes[owner], words_a, 1.0))  # LW
            typed.append((first, 2, words_a, time_nodes[owner], 1.0))  # WT

        distinct_start = np.cumsum(n_distinct_a) - n_distinct_a
        n_pairs = n_distinct_a * (n_distinct_a - 1) // 2
        n_pairs[n_distinct_a > self.max_words_for_pairs] = 0
        if n_pairs.any():
            pair_start = np.cumsum(n_pairs) - n_pairs
            first_word = np.empty(n_pairs.sum(), dtype=np.int64)
            second_word = np.empty_like(first_word)
            for k in np.unique(n_distinct_a[n_pairs > 0]):
                # combinations(words, 2) is triu_indices' row-major order.
                i, j = np.triu_indices(k, 1)
                with_k = np.flatnonzero(n_distinct_a == k)
                at = pair_start[with_k, None] + np.arange(i.size)
                base = distinct_start[with_k, None]
                first_word[at] = distinct_a[base + i]
                second_word[at] = distinct_a[base + j]
            first = int(np.flatnonzero(n_pairs)[0])
            typed.append((first, 3, first_word, second_word, 1.0))  # WW

        if users_a.size:
            user_owner = np.repeat(records, n_users_a)
            is_author = np.ones(users_a.size, dtype=bool)
            is_author[1:] = user_owner[1:] != user_owner[:-1]
            weight = np.where(is_author, 1.0, self.mention_link_weight)
            first = int(user_owner[0])
            typed.append((first, 4, users_a, time_nodes[user_owner], weight))
            typed.append((first, 5, users_a, location_nodes[user_owner], weight))
            # Each linked user joins every distinct word of its record.
            per_user = n_distinct_a[user_owner]
            if per_user.any():
                offset = np.arange(per_user.sum()) - np.repeat(
                    np.cumsum(per_user) - per_user, per_user
                )
                at = np.repeat(distinct_start[user_owner], per_user) + offset
                first = int(user_owner[np.flatnonzero(per_user)[0]])
                typed.append((
                    first, 6, np.repeat(users_a, per_user), distinct_a[at],
                    np.repeat(weight, per_user),
                ))  # UW
        typed.sort(key=lambda entry: entry[:2])
        return units, [entry[2:] for entry in typed]
