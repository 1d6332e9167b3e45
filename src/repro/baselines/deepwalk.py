"""DeepWalk and node2vec baselines (related-work Section 2.2).

The paper cites DeepWalk (Perozzi et al., KDD 2014) and node2vec (Grover &
Leskovec, KDD 2016) as the representative homogeneous random-walk
embeddings that its heterogeneous treatment improves on.  They are not
Table-2 rows, but a complete baseline suite should include them — both for
the extended comparison bench and as reference implementations.

* **DeepWalk**: truncated uniform random walks + skip-gram.
* **node2vec**: 2nd-order biased walks with return parameter ``p`` and
  in-out parameter ``q`` (p = q = 1 recovers DeepWalk's walk distribution),
  same skip-gram training.

Both treat the activity graph as homogeneous (types ignored), like LINE.
:class:`DeepWalk` owns the one walk skip-gram of the baseline suite —
window pairs, degree^0.75 negatives through
:class:`~repro.embedding.edge_sampler.NoiseSampler`, linearly decayed
SGNS steps — so node2vec and metapath2vec
(:mod:`repro.baselines.metapath2vec`) override only walk generation.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import GraphBaseline
from repro.core.hierarchical import random_init
from repro.data.records import Corpus
from repro.embedding.alias import AliasTable
from repro.embedding.edge_sampler import NoiseSampler
from repro.embedding.sgns import sgns_step
from repro.graphs.activity_graph import ActivityGraph
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive

__all__ = ["DeepWalk", "Node2Vec"]


class _HomogeneousAdjacency:
    """Weighted neighbor lists over the pooled (untyped) edge sets."""

    def __init__(self, activity: ActivityGraph) -> None:
        lists: dict[int, tuple[list[int], list[float]]] = {}
        for edge_set in activity.edge_sets.values():
            for u, v, w in zip(edge_set.src, edge_set.dst, edge_set.weight):
                u, v, w = int(u), int(v), float(w)
                lists.setdefault(u, ([], []))[0].append(v)
                lists[u][1].append(w)
                lists.setdefault(v, ([], []))[0].append(u)
                lists[v][1].append(w)
        self.neighbors: dict[int, np.ndarray] = {}
        self.weights: dict[int, np.ndarray] = {}
        self._tables: dict[int, AliasTable] = {}
        for node, (neighbors, weights) in lists.items():
            self.neighbors[node] = np.asarray(neighbors, dtype=np.int64)
            self.weights[node] = np.asarray(weights, dtype=np.float64)
            self._tables[node] = AliasTable(self.weights[node])

    def step(self, node: int, rng: np.random.Generator) -> int | None:
        """One weighted uniform step from ``node``."""
        table = self._tables.get(node)
        if table is None:
            return None
        return int(self.neighbors[node][table.sample_one(seed=rng)])

    def neighbor_set(self, node: int) -> set[int]:
        """Neighbors of ``node`` as a set (for node2vec's distance test)."""
        array = self.neighbors.get(node)
        return set(array.tolist()) if array is not None else set()


class DeepWalk(GraphBaseline):
    """Uniform truncated random walks + skip-gram over the activity graph.

    Parameters
    ----------
    dim, walks_per_node, walk_length, window, negatives, lr, batch_size,
    epochs:
        Standard DeepWalk/word2vec hyper-parameters.
    **shared:
        The graph settings of :class:`~repro.baselines.base.GraphBaseline`.
    """

    name = "DeepWalk"

    def __init__(
        self,
        dim: int = 64,
        *,
        walks_per_node: int = 6,
        walk_length: int = 30,
        window: int = 4,
        negatives: int = 5,
        lr: float = 0.025,
        batch_size: int = 256,
        epochs: int = 1,
        **shared,
    ) -> None:
        check_positive("walks_per_node", walks_per_node)
        check_positive("walk_length", walk_length)
        check_positive("window", window)
        super().__init__(dim, **shared)
        self.walks_per_node = int(walks_per_node)
        self.walk_length = int(walk_length)
        self.window = int(window)
        self.negatives = int(negatives)
        self.lr = float(lr)
        self.batch_size = int(batch_size)
        self.epochs = int(epochs)

    # ------------------------------------------------------------------- fit

    def fit(self, corpus: Corpus) -> "DeepWalk":
        """Train on ``corpus`` (see :class:`SpatiotemporalModel`)."""
        rng = ensure_rng(self.seed)
        activity = self.build_graphs(corpus).activity
        walks = self._generate_walks(activity, rng)
        self._train_skipgram(self._walk_pairs(walks), rng)
        return self

    def _walk_from(
        self,
        start: int,
        adjacency: _HomogeneousAdjacency,
        rng: np.random.Generator,
    ) -> list[int]:
        """One truncated walk; subclasses override the transition rule."""
        walk = [start]
        while len(walk) < self.walk_length:
            nxt = adjacency.step(walk[-1], rng)
            if nxt is None:
                break
            walk.append(nxt)
        return walk

    def _generate_walks(
        self, activity: ActivityGraph, rng: np.random.Generator
    ) -> list[list[int]]:
        """``walks_per_node`` rounds of walks from every node, shuffled."""
        adjacency = _HomogeneousAdjacency(activity)
        nodes = np.arange(activity.n_nodes)
        walks: list[list[int]] = []
        for _round in range(self.walks_per_node):
            rng.shuffle(nodes)
            for start in nodes:
                walk = self._walk_from(int(start), adjacency, rng)
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

    def _train_skipgram(
        self, pairs: np.ndarray, rng: np.random.Generator
    ) -> None:
        """SGNS over shuffled ``pairs`` with global degree^0.75 negatives."""
        activity = self.built.activity
        self.center, self.context = random_init(
            activity.n_nodes, self.dim_, rng
        )
        degree = activity.total_degree()
        nodes = np.flatnonzero(degree > 0)
        noise = NoiseSampler(nodes, degree[nodes])
        n = pairs.shape[0]
        for epoch in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = pairs[order[start : start + self.batch_size]]
                progress = (epoch * n + start) / max(1, self.epochs * n)
                lr = self.lr * max(0.1, 1.0 - progress)
                neg = noise.sample((batch.shape[0], self.negatives), rng)
                sgns_step(
                    self.center, self.context, batch[:, 0], batch[:, 1], neg, lr
                )


class Node2Vec(DeepWalk):
    """node2vec: 2nd-order biased walks with return/in-out parameters.

    The unnormalized transition probability from ``prev -> current -> x``
    multiplies the edge weight by

    * ``1/p`` when ``x == prev`` (return),
    * ``1``   when ``x`` is a neighbor of ``prev`` (BFS-like, distance 1),
    * ``1/q`` otherwise (DFS-like, distance 2).

    ``p = q = 1`` reduces to DeepWalk.  The bias is applied by rejection-
    free reweighting per step (suitable at activity-graph degrees).
    """

    name = "node2vec"

    def __init__(self, dim: int = 64, *, p: float = 1.0, q: float = 1.0, **kwargs) -> None:
        super().__init__(dim, **kwargs)
        check_positive("p", p)
        check_positive("q", q)
        self.p = float(p)
        self.q = float(q)

    def _walk_from(
        self,
        start: int,
        adjacency: _HomogeneousAdjacency,
        rng: np.random.Generator,
    ) -> list[int]:
        walk = [start]
        prev: int | None = None
        while len(walk) < self.walk_length:
            current = walk[-1]
            neighbors = adjacency.neighbors.get(current)
            if neighbors is None or neighbors.size == 0:
                break
            weights = adjacency.weights[current].copy()
            if prev is not None:
                prev_neighbors = adjacency.neighbor_set(prev)
                for i, candidate in enumerate(neighbors):
                    c = int(candidate)
                    if c == prev:
                        weights[i] /= self.p
                    elif c not in prev_neighbors:
                        weights[i] /= self.q
            total = weights.sum()
            if total <= 0:
                break
            nxt = int(
                neighbors[rng.choice(neighbors.size, p=weights / total)]
            )
            prev = current
            walk.append(nxt)
        return walk
