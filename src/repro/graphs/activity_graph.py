"""The heterogeneous activity graph (Definition 1, extended with users).

Vertices are spatial units (hotspot indices), temporal units (hotspot
indices), textual units (keywords) and — for the hierarchical framework —
users.  Edges connect units that co-occur in the same record; "within each
edge type, the edge weight is set to be the co-occurrence count."

Nodes are registered one at a time (:meth:`~ActivityGraph.add_node`);
edges arrive in bulk (:meth:`~ActivityGraph.add_edges`, or one at a time
through :meth:`~ActivityGraph.add_edge`) and are kept as typed
``(src, dst, weight)`` arrays in insertion order.
:meth:`~ActivityGraph.finalize` merges each edge type's repeated edges,
in first-occurrence order with their weights summed in insertion order,
into an array-backed :class:`~repro.graphs.types.EdgeSet` plus a
per-edge-type degree vector — the representation the alias samplers and
the SGNS trainer consume.
"""

from __future__ import annotations

from collections.abc import Hashable

import numpy as np

from repro.graphs.types import EdgeSet, EdgeType, NodeType, edge_type_between

__all__ = ["ActivityGraph"]

_NODE_TYPES = tuple(NodeType)
_CODE = {node_type: code for code, node_type in enumerate(_NODE_TYPES)}
_EDGE_TYPES = tuple(EdgeType)
# For a pair of node-type codes: the index of the edge type joining them
# (every pair of vertex types has one), and whether the first node is that
# type's second endpoint, so the edge is stored flipped.  Same-type pairs
# orient by node index instead.
_PAIR_TYPE = np.array(
    [[_EDGE_TYPES.index(edge_type_between(a, b)) for b in _NODE_TYPES]
     for a in _NODE_TYPES],
    dtype=np.int8,
)
_FLIP = np.array(
    [[a is not b and a is not edge_type_between(a, b).endpoints[0]
      for b in _NODE_TYPES] for a in _NODE_TYPES]
)


def _merge(
    chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]], n_nodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One edge type's accumulated chunks with repeated edges merged.

    Distinct edges keep the order of their first occurrence; each weight
    is ``0.0`` plus the edge's weights in insertion order (``np.bincount``
    adds them one at a time), exactly the sum a running per-edge total
    gives.
    """
    src, dst, weight = (np.concatenate(part) for part in zip(*chunks))
    _, first, inverse = np.unique(
        src * n_nodes + dst, return_index=True, return_inverse=True
    )
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    keep = np.sort(first)
    summed = np.bincount(rank[inverse], weights=weight, minlength=first.size)
    return src[keep], dst[keep], summed


class ActivityGraph:
    """Typed multigraph with co-occurrence-count edge weights.

    Nodes are identified externally by ``(NodeType, key)`` pairs (the key is
    a hotspot index for T/L, a keyword string for W, a user name for U) and
    internally by dense integer indices shared across all types — so one
    embedding matrix covers the whole graph.
    """

    def __init__(self) -> None:
        self._index: dict[tuple[NodeType, Hashable], int] = {}
        self._nodes: list[tuple[NodeType, Hashable]] = []
        self._codes = bytearray()  # node-type code of every node, by index
        # Edges added so far, as (src, dst, weight) chunks per edge type in
        # the order each type first appeared; None once finalized.
        self._pending: dict[EdgeType, list[tuple[np.ndarray, ...]]] | None = {}
        self._finalized: dict[EdgeType, EdgeSet] | None = None
        self._degrees: dict[EdgeType, np.ndarray] | None = None

    def __setstate__(self, state: dict) -> None:
        """Unpickle, migrating graphs pickled with per-type edge dicts.

        Older pickles carry an ``_edges`` dict of ``{(src, dst): weight}``
        per edge type; a finalized graph drops it (its edge sets hold the
        same edges), an unfinalized one replays it into the accumulator.
        """
        edges = state.pop("_edges", None)
        if edges is not None:
            state["_codes"] = bytearray(_CODE[t] for t, _ in state["_nodes"])
            state["_pending"] = None if state["_finalized"] is not None else {}
        self.__dict__.update(state)
        if edges and self._pending is not None:
            for bucket in edges.values():
                if bucket:
                    pairs = np.asarray(list(bucket), dtype=np.int64)
                    self.add_edges(pairs[:, 0], pairs[:, 1], list(bucket.values()))

    # ------------------------------------------------------------------ nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def n_nodes(self) -> int:
        """Total number of registered vertices (all types)."""
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        """Total number of distinct (typed) edges."""
        if self._finalized is not None:
            return sum(len(es) for es in self._finalized.values())
        return sum(len(self._merged(t)[0]) for t in self._pending)

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
        self._codes.append(_CODE[node_type])
        return idx

    def index_of(self, node_type: NodeType, key: Hashable) -> int:
        """Dense index of an existing node; raises ``KeyError`` if absent."""
        return self._index[(node_type, key)]

    def has_node(self, node_type: NodeType, key: Hashable) -> bool:
        """Whether ``(node_type, key)`` is registered."""
        return (node_type, key) in self._index

    def node_of(self, index: int) -> tuple[NodeType, Hashable]:
        """The ``(type, key)`` handle of dense index ``index``."""
        return self._nodes[index]

    def type_of(self, index: int) -> NodeType:
        """Vertex type of dense index ``index``."""
        return self._nodes[index][0]

    def key_of(self, index: int) -> Hashable:
        """External key (hotspot index / word / user name) of ``index``."""
        return self._nodes[index][1]

    def _node_codes(self) -> np.ndarray:
        """Node-type codes of every node, as a fresh ``uint8`` array."""
        return np.frombuffer(bytes(self._codes), dtype=np.uint8)

    def nodes_of_type(self, node_type: NodeType) -> np.ndarray:
        """Dense indices of all nodes of ``node_type``, ascending."""
        return np.flatnonzero(self._node_codes() == _CODE[node_type])

    # ------------------------------------------------------------------ edges

    def add_edges(self, u, v, weight=1.0) -> None:
        """Accumulate edges ``{u[i], v[i]}``: :meth:`add_edge` for each ``i``.

        ``weight`` is one value for every edge or one per edge.  Each
        edge's type is inferred from its endpoint node types and it is
        stored in that type's canonical orientation (``src`` of type
        ``endpoints[0]``; same-type edges as ``(min, max)``), so ``{u, v}``
        and ``{v, u}`` are one edge.  The whole batch is checked before
        any of it is kept: self-loops (a unit never co-occurs with
        itself), unknown nodes and weights that are not finite and
        positive are rejected.
        """
        if self._finalized is not None:
            raise RuntimeError("graph is finalized; no further mutation allowed")
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.ndim != 1 or u.shape != v.shape:
            raise ValueError("u and v must be one-dimensional and of equal length")
        weights = np.empty(u.shape, dtype=np.float64)
        weights[...] = weight
        if u.size == 0:
            return
        n = len(self._nodes)
        if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n:
            raise IndexError(f"edge endpoint out of range for {n} nodes")
        loops = u == v
        if loops.any():
            raise ValueError(f"self-loop on node {u[loops][0]} is not allowed")
        bad = ~(np.isfinite(weights) & (weights > 0))
        if bad.any():
            raise ValueError(
                f"edge weight must be finite and positive, got {weights[bad][0]}"
            )
        codes = self._node_codes()
        code_u, code_v = codes[u], codes[v]
        types = _PAIR_TYPE[code_u, code_v]
        flip = np.where(code_u == code_v, u > v, _FLIP[code_u, code_v])
        src, dst = np.where(flip, v, u), np.where(flip, u, v)
        present, first = np.unique(types, return_index=True)
        for t in present[np.argsort(first)]:
            chunk = (src, dst, weights)
            if present.size > 1:
                chunk = tuple(part[types == t] for part in chunk)
            self._pending.setdefault(_EDGE_TYPES[t], []).append(chunk)

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Accumulate ``weight`` onto the (typed, undirected) edge ``{u, v}``.

        A one-edge :meth:`add_edges`.
        """
        self.add_edges([u], [v], weight)

    def _merged(self, edge_type: EdgeType) -> tuple[np.ndarray, ...]:
        """``(src, dst, weight)`` of ``edge_type``, repeated edges merged."""
        if self._finalized is not None:
            edge_set = self.edge_set(edge_type)
            return edge_set.src, edge_set.dst, edge_set.weight
        chunks = self._pending.get(edge_type)
        if not chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0)
        return _merge(chunks, len(self._nodes))

    def edge_weight(self, u: int, v: int) -> float:
        """Current co-occurrence weight of ``{u, v}`` (0 if absent).

        A scan of the edge type's arrays (merged first when the graph is
        not finalized), meant for inspection rather than inner loops.
        """
        code_u, code_v = self._codes[u], self._codes[v]
        if _FLIP[code_u, code_v] or (code_u == code_v and u > v):
            u, v = v, u
        src, dst, weight = self._merged(_EDGE_TYPES[_PAIR_TYPE[code_u, code_v]])
        hit = np.flatnonzero((src == u) & (dst == v))
        return float(weight[hit[0]]) if hit.size else 0.0

    # --------------------------------------------------------------- finalize

    def finalize(self) -> None:
        """Freeze the graph into array-backed edge sets and degree vectors.

        Edge types keep the order in which they were first added.
        Idempotent; after finalization mutation raises, and the edge
        accumulator is dropped.
        """
        if self._finalized is not None:
            return
        finalized: dict[EdgeType, EdgeSet] = {}
        degrees: dict[EdgeType, np.ndarray] = {}
        n = len(self._nodes)
        for edge_type, chunks in self._pending.items():
            src, dst, weight = _merge(chunks, n)
            finalized[edge_type] = EdgeSet(
                edge_type=edge_type, src=src, dst=dst, weight=weight
            )
            # Every src contribution, then every dst one, each added in
            # edge order: the sums two np.add.at passes give.
            degrees[edge_type] = np.bincount(
                np.concatenate((src, dst)),
                weights=np.concatenate((weight, weight)),
                minlength=n,
            )
        self._finalized = finalized
        self._degrees = degrees
        self._pending = None

    @property
    def edge_sets(self) -> dict[EdgeType, EdgeSet]:
        """Per-type edge arrays; requires :meth:`finalize`."""
        if self._finalized is None:
            raise RuntimeError("graph is not finalized; call finalize() first")
        return self._finalized

    def edge_set(self, edge_type: EdgeType) -> EdgeSet:
        """The :class:`EdgeSet` for ``edge_type`` (may be empty)."""
        sets = self.edge_sets
        if edge_type in sets:
            return sets[edge_type]
        empty = np.empty(0, dtype=np.int64)
        return EdgeSet(
            edge_type=edge_type, src=empty, dst=empty.copy(),
            weight=np.empty(0, dtype=np.float64),
        )

    def degrees(self, edge_type: EdgeType) -> np.ndarray:
        """Weighted degree ``d_i^e`` of every node within ``edge_type``.

        This is the vertex importance ``lambda_i`` of Eq. (4) and the basis
        of the negative-sampling noise distribution ``P(v) ∝ d_v^{3/4}``.
        """
        if self._degrees is None:
            raise RuntimeError("graph is not finalized; call finalize() first")
        if edge_type in self._degrees:
            return self._degrees[edge_type]
        return np.zeros(len(self._nodes), dtype=np.float64)

    def total_degree(self) -> np.ndarray:
        """Weighted degree across all edge types (for global noise draws)."""
        if self._degrees is None:
            raise RuntimeError("graph is not finalized; call finalize() first")
        total = np.zeros(len(self._nodes), dtype=np.float64)
        for degree in self._degrees.values():
            total += degree
        return total

    # ------------------------------------------------------------- utilities

    def neighbors(self, node: int) -> dict[int, float]:
        """All neighbors of ``node`` with weights, across edge types.

        Used for second-order proximity checks in tests; requires finalize.
        """
        result: dict[int, float] = {}
        for edge_set in self.edge_sets.values():
            src_mask = edge_set.src == node
            for other, w in zip(edge_set.dst[src_mask], edge_set.weight[src_mask]):
                result[int(other)] = result.get(int(other), 0.0) + float(w)
            dst_mask = edge_set.dst == node
            for other, w in zip(edge_set.src[dst_mask], edge_set.weight[dst_mask]):
                result[int(other)] = result.get(int(other), 0.0) + float(w)
        return result

    def counts_by_type(self) -> dict[NodeType, int]:
        """Number of nodes per type (the Table-1 statistics)."""
        counts: dict[NodeType, int] = {t: 0 for t in NodeType}
        for node_type, _key in self._nodes:
            counts[node_type] += 1
        return counts

    def summary(self) -> dict[str, int]:
        """Graph-size statistics in Table-1 form."""
        counts = self.counts_by_type()
        return {
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "n_spatial": counts[NodeType.LOCATION],
            "n_temporal": counts[NodeType.TIME],
            "n_words": counts[NodeType.WORD],
            "n_users": counts[NodeType.USER],
        }
