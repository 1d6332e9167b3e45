"""metapath2vec baseline (Dong et al., KDD 2017).

A heterogeneous graph embedding that generates random walks constrained to
a *meta-path* — a cyclic sequence of vertex types — and trains skip-gram
with negative sampling on the walk windows.

Following the paper's experimental notes (Section 6.2.3), the default
meta-path is ``L - W - T - W`` with window size 3 and 5 negative samples;
the walks run on the activity graph without user vertices (random walks on
the sparse user interaction graph are reported to be ineffective).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import SpatiotemporalModel
from repro.core.hierarchical import random_init
from repro.core.prediction import GraphEmbeddingModel
from repro.data.records import Corpus
from repro.data.text import Vocabulary
from repro.embedding.alias import AliasTable
from repro.embedding.edge_sampler import NOISE_POWER
from repro.embedding.sgns import sgns_step
from repro.graphs.activity_graph import ActivityGraph
from repro.graphs.builder import GraphBuilder
from repro.graphs.types import NodeType, edge_type_between
from repro.hotspots.detector import HotspotDetector
from repro.utils.rng import ensure_rng

__all__ = ["MetaPath2Vec"]

_TYPE_OF_LETTER = {
    "T": NodeType.TIME,
    "L": NodeType.LOCATION,
    "W": NodeType.WORD,
    "U": NodeType.USER,
}


class _TypedAdjacency:
    """Per-node alias samplers over neighbors of a requested type."""

    def __init__(self, activity: ActivityGraph) -> None:
        # neighbor lists keyed by (node, neighbor_type)
        lists: dict[tuple[int, NodeType], tuple[list[int], list[float]]] = {}
        for edge_set in activity.edge_sets.values():
            for u, v, w in zip(edge_set.src, edge_set.dst, edge_set.weight):
                u, v, w = int(u), int(v), float(w)
                tu, tv = activity.type_of(u), activity.type_of(v)
                lists.setdefault((u, tv), ([], []))[0].append(v)
                lists[(u, tv)][1].append(w)
                lists.setdefault((v, tu), ([], []))[0].append(u)
                lists[(v, tu)][1].append(w)
        self._tables: dict[tuple[int, NodeType], tuple[np.ndarray, AliasTable]] = {}
        for key, (neighbors, weights) in lists.items():
            self._tables[key] = (
                np.asarray(neighbors, dtype=np.int64),
                AliasTable(np.asarray(weights)),
            )

    def step(
        self, node: int, target_type: NodeType, rng: np.random.Generator
    ) -> int | None:
        """One weighted walk step from ``node`` to a ``target_type`` neighbor."""
        entry = self._tables.get((node, target_type))
        if entry is None:
            return None
        neighbors, table = entry
        return int(neighbors[table.sample_one(seed=rng)])


class MetaPath2Vec(GraphEmbeddingModel, SpatiotemporalModel):
    """Meta-path-guided random walks + heterogeneous skip-gram.

    Parameters
    ----------
    meta_path:
        Cyclic vertex-type pattern, e.g. ``"LWTW"`` (the paper's best for
        UTGEO2011/TWEET; ``"TLWW"`` is also reported for 4SQ).
    walks_per_node / walk_length:
        Walk generation budget, starting from every node of the meta-path's
        first type.
    window:
        Skip-gram context window over the walks (paper: 3).
    negatives:
        Negative samples per pair (paper: 5).
    """

    def __init__(
        self,
        dim: int = 64,
        *,
        meta_path: str = "LWTW",
        walks_per_node: int = 8,
        walk_length: int = 40,
        window: int = 3,
        negatives: int = 5,
        lr: float = 0.025,
        batch_size: int = 256,
        epochs: int = 2,
        spatial_bandwidth: float = 0.5,
        temporal_bandwidth: float = 0.75,
        vocab_min_count: int = 2,
        vocab_max_size: int | None = 20_000,
        seed: int = 0,
    ) -> None:
        if not meta_path or any(c not in _TYPE_OF_LETTER for c in meta_path):
            raise ValueError(
                f"meta_path must be a string over T/L/W/U, got {meta_path!r}"
            )
        # Validate the pattern is walkable: consecutive types need edges.
        cyclic = meta_path + meta_path[0]
        for a, b in zip(cyclic, cyclic[1:]):
            edge_type_between(_TYPE_OF_LETTER[a], _TYPE_OF_LETTER[b])
        self.name = "metapath2vec"
        self.meta_path = meta_path
        self.dim_ = int(dim)
        self.walks_per_node = walks_per_node
        self.walk_length = walk_length
        self.window = window
        self.negatives = negatives
        self.lr = lr
        self.batch_size = batch_size
        self.epochs = epochs
        self.spatial_bandwidth = spatial_bandwidth
        self.temporal_bandwidth = temporal_bandwidth
        self.vocab_min_count = vocab_min_count
        self.vocab_max_size = vocab_max_size
        self.seed = seed

    # ------------------------------------------------------------------- fit

    def fit(self, corpus: Corpus) -> "MetaPath2Vec":
        """Train on ``corpus`` (see :class:`SpatiotemporalModel`)."""
        rng = ensure_rng(self.seed)
        builder = GraphBuilder(
            detector=HotspotDetector(
                spatial_bandwidth=self.spatial_bandwidth,
                temporal_bandwidth=self.temporal_bandwidth,
            ),
            vocab=Vocabulary(
                min_count=self.vocab_min_count, max_size=self.vocab_max_size
            ),
            include_users="U" in self.meta_path,
        )
        self.built = builder.build(corpus)
        activity = self.built.activity
        adjacency = _TypedAdjacency(activity)
        walks = self._generate_walks(activity, adjacency, rng)
        pairs = self._walk_pairs(walks)
        self._train(activity, pairs, rng)
        return self

    def _generate_walks(
        self,
        activity: ActivityGraph,
        adjacency: _TypedAdjacency,
        rng: np.random.Generator,
    ) -> list[list[int]]:
        """Meta-path-guided walks from every node the pattern can visit.

        Dong et al. start walks from every vertex whose type occurs in the
        meta-path (the pattern is rotated so the walk begins at that
        type's position); starting only from the first type would leave
        most of the graph unvisited when that type is rare (e.g. ~100
        location hotspots vs thousands of words).
        """
        pattern = [_TYPE_OF_LETTER[c] for c in self.meta_path]
        walks: list[list[int]] = []
        seen_types = set()
        for offset, start_type in enumerate(pattern):
            if start_type in seen_types:
                continue
            seen_types.add(start_type)
            rotated = pattern[offset:] + pattern[:offset]
            for start in activity.nodes_of_type(start_type):
                for _ in range(self.walks_per_node):
                    walk = [int(start)]
                    position = 0
                    while len(walk) < self.walk_length:
                        position += 1
                        target = rotated[position % len(rotated)]
                        nxt = adjacency.step(walk[-1], target, rng)
                        if nxt is None:
                            break
                        walk.append(nxt)
                    if len(walk) > 1:
                        walks.append(walk)
        return walks

    def _walk_pairs(self, walks: list[list[int]]) -> np.ndarray:
        """(center, context) node pairs within the skip-gram window."""
        pairs: list[tuple[int, int]] = []
        for walk in walks:
            for i, center in enumerate(walk):
                lo = max(0, i - self.window)
                hi = min(len(walk), i + self.window + 1)
                for j in range(lo, hi):
                    if j != i:
                        pairs.append((center, walk[j]))
        if not pairs:
            raise RuntimeError("no skip-gram pairs generated; graph too sparse")
        return np.asarray(pairs, dtype=np.int64)

    def _train(
        self,
        activity: ActivityGraph,
        pairs: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        self.center, self.context = random_init(
            activity.n_nodes, self.dim_, rng
        )
        # Global noise distribution over all nodes by total degree^0.75
        # (plain metapath2vec; the ++ variant would restrict to the context
        # type).
        degree = activity.total_degree()
        nodes = np.flatnonzero(degree > 0)
        noise = AliasTable(np.power(degree[nodes], NOISE_POWER))
        n = pairs.shape[0]
        for _epoch in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = pairs[order[start : start + self.batch_size]]
                progress = (_epoch * n + start) / max(1, self.epochs * n)
                lr = self.lr * max(0.1, 1.0 - progress)
                neg = nodes[
                    noise.sample(batch.shape[0] * self.negatives, seed=rng)
                ].reshape(batch.shape[0], self.negatives)
                sgns_step(
                    self.center, self.context, batch[:, 0], batch[:, 1], neg, lr
                )
