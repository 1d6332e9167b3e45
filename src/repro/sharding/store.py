""":class:`ShardedStore` — a read-only view of a format-v3 bundle's shards.

A format-v3 bundle hash-partitions the embedding rows over ``K``
per-shard sidecar directories; :func:`~repro.core.serialize.load_bundle`
opens one child store per shard and wraps them here, so every reader
(query engine, ANN index, bundle re-export) sees one
:class:`~repro.storage.base.EmbeddingStore`.  Three mechanisms make the
illusion hold:

* **Assembled view.**  ``store.center`` returns one global matrix,
  assembled from the children in global-row order and kept while the
  row count is unchanged.  It is read-only, like the store: ``set_matrix``,
  ``put_row``, ``grow`` and element writes all raise.
* **Composite version.**  :attr:`version` is the store's own counter
  plus the sum of the children's counters, so a :meth:`bump` or a
  child's bump advances it strictly, and `QueryEngine` / ANN cache
  stamping works unchanged.
* **Derived layout.**  Row placement comes from the
  :class:`~repro.sharding.partitioner.HashPartitioner` alone; the
  global↔local maps are re-derived from the row count and never
  serialized, so a bundle written by one process is re-assembled
  identically by another.

Per-row operations (``normalized``, ``view``, scoring) are bit-identical
to a single-shard store because row normalization and the einsum scoring
kernels are strictly per-row — gathering shard subsets commutes with the
math (see ``docs/architecture.md``, sharding chapter).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.sharding.partitioner import HashPartitioner
from repro.storage.base import EmbeddingStore, MATRIX_NAMES

__all__ = ["ShardedStore", "shard_subdir"]


def shard_subdir(root, shard: int) -> Path:
    """Canonical on-disk directory for one shard: ``<root>/shards/NN``.

    The bundle writer and :func:`~repro.core.serialize.load_bundle`
    both place shard ``NN``'s sidecars here.
    """
    return Path(root) / "shards" / f"{shard:02d}"


class ShardedStore(EmbeddingStore):
    """Read-only store whose rows are hash-partitioned over child stores.

    Built by :meth:`from_children` from per-shard stores (bundle format
    v3 reads shards straight off disk and hands them here).
    """

    @classmethod
    def from_children(cls, children) -> "ShardedStore":
        """Wrap pre-built child stores (e.g. per-shard mmap bundles).

        Each child's row count must match the hash layout for the total
        row count — a mis-assembled bundle fails loudly here rather than
        serving wrong neighbors.
        """
        children = list(children)
        if not children:
            raise ValueError("from_children requires at least one child")
        store = cls()
        store.children = children
        store.partitioner = HashPartitioner(len(children))
        # Assembled global matrices, kept while the row count is unchanged.
        store._assembled = {}
        # Layout cache for the most recent row count.
        store._layout_rows = -1
        store._shard_of = np.empty(0, dtype=np.int64)
        store._local_of = np.empty(0, dtype=np.int64)
        store._shard_rows = []
        for name in MATRIX_NAMES:
            try:
                counts = [c.as_array(name).shape[0] for c in children]
            except AttributeError:
                continue
            layout = store._layout(int(sum(counts)))
            expected = [rows.shape[0] for rows in layout[2]]
            if counts != expected:
                raise ValueError(
                    f"shard row counts {counts} for {name!r} do not match "
                    f"the hash layout {expected} for "
                    f"{sum(counts)} rows over {len(children)} shards"
                )
        return store

    # ----------------------------------------------------------------- layout

    @property
    def n_shards(self) -> int:
        """Number of child shards."""
        return len(self.children)

    def _layout(self, n_rows: int):
        """``(shard_of, local_of, shard_rows)`` for ``n_rows`` rows.

        Cached for the most recent count.
        """
        if n_rows != self._layout_rows:
            self._shard_of, self._local_of, self._shard_rows = (
                self.partitioner.build_maps(n_rows)
            )
            self._layout_rows = n_rows
        return self._shard_of, self._local_of, self._shard_rows

    # ---------------------------------------------------------------- version

    @property
    def version(self) -> int:
        """Composite version: own counter + sum of child counters.

        Strictly monotone under any interleaving of per-shard mutations
        (each child counter only grows, the own counter only grows), so
        one stamp invalidates every downstream cache exactly as for a
        single-shard store.
        """
        version = self._version
        for child in self.children:  # a plain loop: read on every query
            version += child.version
        return version

    # --------------------------------------------------------------- matrices

    @property
    def n_rows(self) -> int:
        """Total row count (summed over children; no assembly needed)."""
        buf = self._assembled.get("center")
        if buf is not None:
            return buf.shape[0]
        return sum(c.as_array("center").shape[0] for c in self.children)

    @property
    def dim(self) -> int:
        """Embedding dimension (read off the first child; no assembly)."""
        buf = self._assembled.get("center")
        if buf is not None:
            return buf.shape[1]
        return self.children[0].as_array("center").shape[1]

    def _get(self, name: str) -> np.ndarray | None:
        """Assemble (or return the cached) read-only global ``name``."""
        child_arrays = []
        n_rows = 0
        for child in self.children:  # a plain loop: read on every query
            arr = child._get(name)
            if arr is None:
                return None
            child_arrays.append(arr)
            n_rows += arr.shape[0]
        buf = self._assembled.get(name)
        if buf is not None and buf.shape[0] == n_rows:
            return buf
        dim = child_arrays[0].shape[1]
        buf = np.empty((n_rows, dim), dtype=np.float64)
        _, _, shard_rows = self._layout(n_rows)
        for arr, rows in zip(child_arrays, shard_rows):
            buf[rows] = arr
        buf.flags.writeable = False
        self._assembled[name] = buf
        return buf

    # -------------------------------------------------------------- row level

    def get_row(self, row: int, name: str = "center") -> np.ndarray:
        """One row, read from the assembled view or the owning child."""
        name = self._check_name(name)
        buf = self._assembled.get(name)
        if buf is not None:
            return buf[row]
        shard_of, local_of, _ = self._layout(self.n_rows)
        return self.children[int(shard_of[row])].get_row(
            int(local_of[row]), name
        )

    def view(self, rows, name: str = "center") -> np.ndarray:
        """Bulk gather routed per shard — no global assembly on read paths.

        When the assembled global matrix exists the rows come from it;
        otherwise they are gathered child by child, which keeps
        mmap-backed serving from materializing the whole matrix just to
        read a modality's rows.
        """
        rows = np.asarray(rows, dtype=np.int64)
        buf = self._assembled.get(self._check_name(name))
        if buf is not None:
            return buf[rows]
        shard_of, local_of, _ = self._layout(self.n_rows)
        out = np.empty((rows.shape[0], self.dim), dtype=np.float64)
        assign = shard_of[rows]
        for s, child in enumerate(self.children):
            mask = assign == s
            if mask.any():
                out[mask] = child.view(local_of[rows[mask]], name)
        return out

    # -------------------------------------------------------- normalized view

    def normalized(self, name: str = "center") -> np.ndarray:
        """Global normalized matrix, assembled from child normalized views.

        Row L2-normalization is strictly per-row, so scattering each
        child's cached :meth:`normalized` into global positions is
        bit-identical to normalizing the assembled matrix: the standard
        query engines serve a sharded store exactly as an unsharded one.
        Cached against the composite :attr:`version`.
        """
        name = self._check_name(name)
        version = self.version
        entry = self._normalized.get(name)
        if entry is not None and entry[0] == version:
            return entry[1]
        n_rows = self.n_rows
        _, _, shard_rows = self._layout(n_rows)
        out = np.empty((n_rows, self.dim), dtype=np.float64)
        for child, rows in zip(self.children, shard_rows):
            out[rows] = child.normalized(name)
        self._normalized[name] = (version, out)
        return out

    # --------------------------------------------------------------- lifetime

    def close(self) -> None:
        """Close every child (idempotent)."""
        for child in self.children:
            child.close()

    # ----------------------------------------------------------------- pickle

    def __getstate__(self) -> dict:
        """Drop derived state: assembled views, normalized cache, layout.

        The children pickle themselves (dense children carry their rows,
        mmap children their directory); everything else is re-derived on
        first use.
        """
        state = super().__getstate__()
        state["_assembled"] = {}
        state["_layout_rows"] = -1
        state["_shard_of"] = np.empty(0, dtype=np.int64)
        state["_local_of"] = np.empty(0, dtype=np.int64)
        state["_shard_rows"] = []
        return state

    def __repr__(self) -> str:
        """Shape plus shard count, e.g. ``ShardedStore(1024x64, K=4, v7)``."""
        try:
            shape = f"{self.n_rows}x{self.dim}"
        except AttributeError:
            shape = "empty"
        return (
            f"ShardedStore({shape}, K={self.n_shards}, v{self.version})"
        )
