""":class:`ShardedStore` — one embedding store hash-partitioned over K children.

The store keeps the :class:`~repro.storage.base.EmbeddingStore` contract
intact for every caller (trainer, streaming ingest, query engine, bundle
I/O) while the actual rows live on ``K`` child stores, each of which can
be any single-shard backend (``dense`` / ``shared`` / ``mmap``).  Three
mechanisms make the illusion hold:

* **Assembled staging view.**  ``store.center`` returns one global
  matrix, assembled from the children in global-row order and *kept* —
  the same object is returned while the shape is unchanged, so SGD
  kernels that captured the view keep writing into it across epochs.
  :meth:`bump` (the contract's "I wrote in place" signal) scatters the
  staged rows back to the owning children before advancing the version,
  so children are authoritative again at every version edge.
* **Composite version.**  :attr:`version` is the store's own counter
  plus the sum of the children's counters.  Any mutation — routed row
  write, child growth, staged-write flush — advances it, and it is
  strictly monotone under arbitrary interleavings of per-shard
  mutations, so `QueryEngine` / ANN cache stamping keeps working
  unchanged.
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

    Shared by the training-time mmap layout and bundle format v3 so a
    bundle directory can be opened directly as a sharded mmap store.
    """
    return Path(root) / "shards" / f"{shard:02d}"


class ShardedStore(EmbeddingStore):
    """Hash-partition the embedding matrices over ``n_shards`` children.

    Parameters
    ----------
    n_shards:
        Number of child shards (>= 1).
    child_backend:
        Backend for every child (``dense`` / ``shared`` / ``mmap``).
    directory:
        Root directory for mmap children (each child gets
        ``<directory>/shards/NN``); only valid with ``mmap``.

    Use :meth:`from_children` to wrap pre-loaded child stores (bundle
    format v3 reads shards straight off disk and hands them here).
    """

    backend = "sharded"

    def __init__(
        self,
        n_shards: int,
        *,
        child_backend: str = "dense",
        directory=None,
    ) -> None:
        super().__init__()
        from repro.storage import make_store

        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        children = []
        for s in range(n_shards):
            child_dir = None
            if directory is not None:
                child_dir = shard_subdir(directory, s)
                child_dir.mkdir(parents=True, exist_ok=True)
            children.append(make_store(child_backend, directory=child_dir))
        self._init_sharding(children)

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
        store = cls.__new__(cls)
        EmbeddingStore.__init__(store)
        store._init_sharding(children)
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

    def _init_sharding(self, children) -> None:
        """Shared constructor tail: children, partitioner, empty caches."""
        self.children = list(children)
        self.partitioner = HashPartitioner(len(self.children))
        # Assembled global matrices (staging buffers), kept object-stable
        # while their shape is unchanged so captured views stay live.
        self._assembled: dict[str, np.ndarray] = {}
        # Layout cache for the most recent row count.
        self._layout_rows = -1
        self._shard_of = np.empty(0, dtype=np.int64)
        self._local_of = np.empty(0, dtype=np.int64)
        self._shard_rows: list[np.ndarray] = []

    # ----------------------------------------------------------------- layout

    @property
    def n_shards(self) -> int:
        """Number of child shards."""
        return len(self.children)

    def _layout(self, n_rows: int):
        """``(shard_of, local_of, shard_rows)`` for ``n_rows`` rows.

        Cached for the most recent count; growth extends it in place via
        :meth:`grow` (same result as a rebuild — the partitioner appends
        in ascending-id order).
        """
        if n_rows != self._layout_rows:
            self._shard_of, self._local_of, self._shard_rows = (
                self.partitioner.build_maps(n_rows)
            )
            self._layout_rows = n_rows
        return self._shard_of, self._local_of, self._shard_rows

    def global_rows(self, shard: int) -> np.ndarray:
        """Ascending global row ids owned by ``shard`` (current layout)."""
        return self._layout(self.n_rows)[2][shard]

    def shard_for_rows(self, rows) -> np.ndarray:
        """Owning shard for each global row id (vectorized)."""
        return self.partitioner.shard_of(rows)

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

    def bump(self) -> int:
        """Flush staged in-place writes to the children; advance version.

        This is the single synchronization edge of the staging design:
        external code writes into the assembled :attr:`center` /
        :attr:`context` views and calls ``bump()`` once per burst (the
        base-class contract); the staged rows are scattered back to the
        owning children here — advancing each child's counter so its
        normalized cache rebuilds — making the children authoritative
        before any reader re-derives a view.
        """
        for name, buf in self._assembled.items():
            self._scatter(name, buf, advance=True)
        self._version += 1
        return self.version

    def _scatter(
        self, name: str, buf: np.ndarray, *, advance: bool
    ) -> None:
        """Write the assembled matrix back into the child backing arrays.

        ``advance=True`` (the :meth:`bump` path) also bumps each child so
        per-child caches notice; durability paths (:meth:`flush`,
        pickling) scatter silently — the logical content is unchanged,
        matching the base-class semantics of unbumped in-place writes.
        """
        _, _, shard_rows = self._layout(buf.shape[0])
        for child, rows in zip(self.children, shard_rows):
            arr = child._get(name)
            if arr is None or arr.shape != (rows.shape[0], buf.shape[1]):
                child._put(name, buf[rows].copy())
            else:
                arr[:] = buf[rows]
            if advance:
                child.bump()

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
        """Assemble (or return the staged) global matrix for ``name``."""
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
        self._assembled[name] = buf
        return buf

    def _put(self, name: str, value: np.ndarray) -> None:
        """Split ``value`` by hash assignment and store it on the children.

        The assembled staging buffer is refreshed in place when the shape
        is unchanged (captured views stay coherent) and dropped
        otherwise.
        """
        _, _, shard_rows = self._layout(value.shape[0])
        for child, rows in zip(self.children, shard_rows):
            child._put(name, np.ascontiguousarray(value[rows]))
        buf = self._assembled.get(name)
        if buf is not None and buf.shape == value.shape:
            if buf is not value:
                buf[:] = value
        else:
            self._assembled.pop(name, None)

    def set_matrix(self, name: str, value) -> None:
        """Replace the named matrix wholesale (children + staging view)."""
        self._put(self._check_name(name), self._coerce(value))
        self._version += 1  # not bump(): the children were just written

    # -------------------------------------------------------------- row level

    def get_row(self, row: int, name: str = "center") -> np.ndarray:
        """One row, read from the staged view or the owning child."""
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

        When a staged global matrix exists it is authoritative (it may
        hold unflushed in-place writes); otherwise rows are gathered
        child by child, which keeps mmap-backed serving from
        materializing the whole matrix just to read a modality's rows.
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

    def put_row(self, row: int, vector, name: str = "center") -> None:
        """Overwrite one row on its owning child (and the staged view)."""
        name = self._check_name(name)
        shard_of, local_of, _ = self._layout(self.n_rows)
        shard = int(shard_of[row])
        self.children[shard].put_row(int(local_of[row]), vector, name)
        buf = self._assembled.get(name)
        if buf is not None:
            buf[row] = vector

    # ----------------------------------------------------------------- growth

    def grow(self, center_rows, context_rows) -> int:
        """Append rows; each new global id lands on its hash-owner shard.

        New ids are appended to each child in ascending-global order —
        exactly the order :meth:`HashPartitioner.build_maps` derives —
        so incremental growth and a from-scratch layout always agree.
        Staged global matrices are extended in place (reallocated), so
        callers must re-read :attr:`center` / :attr:`context` after
        growth, as with every other backend.
        """
        center_rows = self._coerce(center_rows)
        context_rows = self._coerce(context_rows)
        if center_rows.shape != context_rows.shape:
            raise ValueError(
                "grow requires matching center/context row blocks, got "
                f"{center_rows.shape} vs {context_rows.shape}"
            )
        first = self.n_rows
        n_new = center_rows.shape[0]
        if n_new == 0:
            return first
        shard_of, local_of, shard_rows = self._layout(first)
        new_assign = self.partitioner.shard_of(
            np.arange(first, first + n_new, dtype=np.uint64)
        )
        for s, child in enumerate(self.children):
            mask = new_assign == s
            if not mask.any():
                continue
            child.grow(center_rows[mask], context_rows[mask])
        # Extend the cached layout incrementally (identical to a rebuild).
        self._shard_of, self._local_of, self._shard_rows = (
            self.partitioner.extend_maps(
                shard_of, local_of, shard_rows, n_new
            )
        )
        self._layout_rows = first + n_new
        for name, block in (
            ("center", center_rows),
            ("context", context_rows),
        ):
            buf = self._assembled.get(name)
            if buf is not None:
                self._assembled[name] = np.vstack([buf, block])
        return first

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

    # ------------------------------------------------------------- durability

    def flush(self) -> None:
        """Flush staged writes to the children, then flush every child."""
        for name, buf in self._assembled.items():
            self._scatter(name, buf, advance=False)
        for child in self.children:
            child.flush()

    def close(self) -> None:
        """Close every child (idempotent)."""
        for child in self.children:
            child.close()

    # ----------------------------------------------------------------- pickle

    def __getstate__(self) -> dict:
        """Drop derived state: staging buffers, normalized cache, layout.

        Staged in-place writes are scattered to the children first (no
        version advance — content is logically unchanged) so nothing is
        lost; the children pickle themselves (dense children carry their
        rows; shared/mmap children re-attach); everything else is
        re-derived on first use.
        """
        for name, buf in self._assembled.items():
            self._scatter(name, buf, advance=False)
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
