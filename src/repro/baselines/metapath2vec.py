"""metapath2vec baseline (Dong et al., KDD 2017).

A heterogeneous graph embedding that generates random walks constrained to
a *meta-path* — a cyclic sequence of vertex types — and trains skip-gram
with negative sampling on the walk windows.  It is a
:class:`~repro.baselines.deepwalk.DeepWalk` that overrides only walk
generation: the window pairs, the global degree^0.75 noise (plain
metapath2vec; the ++ variant would restrict negatives to the context
type) and the SGNS schedule are DeepWalk's.

Following the paper's experimental notes (Section 6.2.3), the default
meta-path is ``L - W - T - W`` with window size 3 and 5 negative samples;
the walks run on the activity graph without user vertices (random walks on
the sparse user interaction graph are reported to be ineffective).  A
pattern containing ``U`` builds the graph with user vertices.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.deepwalk import DeepWalk
from repro.embedding.alias import AliasTable
from repro.graphs.activity_graph import ActivityGraph
from repro.graphs.types import NodeType, edge_type_between

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


class MetaPath2Vec(DeepWalk):
    """Meta-path-guided random walks + heterogeneous skip-gram.

    Parameters
    ----------
    meta_path:
        Cyclic vertex-type pattern, e.g. ``"LWTW"`` (the paper's best for
        UTGEO2011/TWEET; ``"TLWW"`` is also reported for 4SQ).
    walks_per_node / walk_length:
        Walk generation budget, starting from every node of each type the
        meta-path visits.
    window:
        Skip-gram context window over the walks (paper: 3).
    epochs:
        Passes over the walk pairs.
    **kwargs:
        :class:`~repro.baselines.deepwalk.DeepWalk`'s remaining settings
        (``negatives`` — paper: 5 — ``lr``, ``batch_size`` and the shared
        graph settings), with DeepWalk's defaults.
    """

    name = "metapath2vec"

    def __init__(
        self,
        dim: int = 64,
        *,
        meta_path: str = "LWTW",
        walks_per_node: int = 8,
        walk_length: int = 40,
        window: int = 3,
        epochs: int = 2,
        **kwargs,
    ) -> None:
        if not meta_path or any(c not in _TYPE_OF_LETTER for c in meta_path):
            raise ValueError(
                f"meta_path must be a string over T/L/W/U, got {meta_path!r}"
            )
        # Validate the pattern is walkable: consecutive types need edges.
        cyclic = meta_path + meta_path[0]
        for a, b in zip(cyclic, cyclic[1:]):
            edge_type_between(_TYPE_OF_LETTER[a], _TYPE_OF_LETTER[b])
        super().__init__(
            dim,
            walks_per_node=walks_per_node,
            walk_length=walk_length,
            window=window,
            epochs=epochs,
            **kwargs,
        )
        self.meta_path = meta_path
        self.include_users = "U" in meta_path

    # ----------------------------------------------------------------- walks

    def _generate_walks(
        self, activity: ActivityGraph, rng: np.random.Generator
    ) -> list[list[int]]:
        """Meta-path-guided walks from every node the pattern can visit.

        Dong et al. start walks from every vertex whose type occurs in the
        meta-path (the pattern is rotated so the walk begins at that
        type's position); starting only from the first type would leave
        most of the graph unvisited when that type is rare (e.g. ~100
        location hotspots vs thousands of words).
        """
        adjacency = _TypedAdjacency(activity)
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
