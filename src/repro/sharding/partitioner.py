"""Deterministic vertex-hash partitioning for sharded embedding stores.

The partitioner answers one question — *which shard owns global row
``g``?* — and answers it identically in every process that ever sees the
same ``(g, n_shards)`` pair: the bundle exporter that laid the row out on
disk and the serving replica that memory-maps it back.  No assignment
table is stored anywhere; the mapping is re-derived from the row id
alone.

Two properties make that safe:

* **Stability under growth.**  The assignment of row ``g`` depends only
  on ``g`` and ``K``, never on the total row count, so a bundle of a
  grown model keeps every older row on its old shard.
* **Uniformity.**  Raw row ids are sequential, so ``g % K`` would put
  every K-th row on one shard and make range-correlated workloads
  (e.g. all TIME rows, which are allocated contiguously) hammer a single
  shard.  Ids are first mixed through the splitmix64 finalizer — an
  invertible avalanche permutation of the 64-bit space — so consecutive
  ids land on effectively independent shards.

All arithmetic is ``np.uint64`` with wrapping overflow, matching the
reference splitmix64 definition; Python ``hash`` is never used (it is
salted per-process and would break cross-process determinism).
"""

from __future__ import annotations

import numpy as np

__all__ = ["HashPartitioner", "splitmix64"]

# splitmix64 finalizer constants (Steele et al., "Fast splittable
# pseudorandom number generators").
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def splitmix64(ids) -> np.ndarray:
    """Apply the splitmix64 finalizer to ``ids`` (vectorized, uint64).

    Accepts any integer array-like; returns a ``np.uint64`` array of
    mixed values.  The finalizer is a bijection on the 64-bit space, so
    distinct ids never collide before the modulo step.
    """
    z = np.asarray(ids, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):
        z ^= z >> _S30
        z *= _MIX1
        z ^= z >> _S27
        z *= _MIX2
        z ^= z >> _S31
    return z


class HashPartitioner:
    """Stable hash assignment of global row ids onto ``n_shards`` shards.

    Parameters
    ----------
    n_shards:
        Number of shards (>= 1).  ``n_shards == 1`` degenerates to the
        identity layout (everything on shard 0) and is handled by the
        same code path so K=1 is not a special case anywhere upstream.
    """

    #: The hash's name in a format-v3 manifest's ``sharding`` block.
    name = "splitmix64"

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashPartitioner(n_shards={self.n_shards})"

    def shard_of(self, ids) -> np.ndarray:
        """Owning shard for each global row id (vectorized).

        Scalar or array input; always returns an ``np.int64`` array of
        the same shape.
        """
        mixed = splitmix64(np.atleast_1d(ids))
        return (mixed % np.uint64(self.n_shards)).astype(np.int64)

    def build_maps(self, n_rows: int):
        """Derive the full layout for a store of ``n_rows`` global rows.

        Returns ``(shard_of, local_of, shard_rows)`` where

        * ``shard_of[g]`` is the shard owning global row ``g``;
        * ``local_of[g]`` is that row's index *inside* its shard;
        * ``shard_rows[s]`` is the ascending array of global ids held by
          shard ``s`` (so ``shard_rows[s][local]`` inverts ``local_of``).

        Local order within a shard is ascending global id — the order
        a format-v3 bundle's per-shard sidecars hold their rows in.
        """
        if n_rows < 0:
            raise ValueError(f"n_rows must be >= 0, got {n_rows}")
        shard_of = self.shard_of(np.arange(n_rows, dtype=np.uint64))
        local_of = np.empty(n_rows, dtype=np.int64)
        shard_rows = []
        for s in range(self.n_shards):
            rows = np.flatnonzero(shard_of == s)
            local_of[rows] = np.arange(rows.shape[0], dtype=np.int64)
            shard_rows.append(rows)
        return shard_of, local_of, shard_rows
