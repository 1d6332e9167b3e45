"""Build the activity graph and user interaction graph from a corpus.

This is Lines 1-2 of Algorithm 1: hotspot detection discretizes locations
and timestamps into spatial/temporal units, the vocabulary filters keywords,
and then every record contributes

* intra-record co-occurrence edges ``TL, LW, WT, WW`` between its units,
* user-to-unit edges ``UT, UL, UW`` linking the author (and, when enabled,
  each mentioned user — the cross-record leg of the inter-record
  meta-graphs) to the record's units,
* ``UU`` mention edges in the user interaction graph.

The builder also keeps a per-record unit table (:class:`RecordUnits`) that
the ACTOR trainer needs for the intra-record bag-of-words objective, where
the textual side of a record is the *sum of all its word embeddings*
(footnote 4 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.spatial import cKDTree

from repro.data.records import Corpus, Record
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

    def _ensure_fitted(self, corpus: Corpus) -> None:
        try:
            _ = self.detector.spatial_hotspots
        except RuntimeError:
            self.detector.fit(corpus)
        if not self.vocab.is_fitted:
            self.vocab.fit(record.words for record in corpus)

    def _add_record(
        self,
        record: Record,
        spatial_idx: int,
        temporal_idx: int,
        activity: ActivityGraph,
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
