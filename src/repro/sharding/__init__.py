"""``repro.sharding`` — hash-partitioned embedding storage and bundle layout.

Sharding is a storage and bundle layout, not a serving tier:

* :class:`~repro.sharding.partitioner.HashPartitioner` — deterministic
  splitmix64 vertex-hash assignment of global row ids onto ``K`` shards,
  stable under vertex growth and re-derivable in every process;
* :class:`~repro.sharding.store.ShardedStore` — an
  :class:`~repro.storage.base.EmbeddingStore` whose rows live on ``K``
  child backends (dense / shared / mmap per shard) behind an assembled
  global-order view and one composite version counter.

Construction goes through the usual seams: ``make_store(...,
n_shards=K)``, bundle format v3 (``shards/NN`` sidecars), and the
``--shards`` flag on ``repro train/stream/export/promote``.  Serving a
sharded model needs nothing of its own: ``ShardedStore.center`` is the
assembled matrix, so the standard :class:`~repro.core.query_engine
.QueryEngine` and :class:`~repro.ann.engine.IndexedQueryEngine` rank
exactly as over an unsharded export.

:mod:`repro.sharding.engine` holds the in-process scatter-gather engines
(``ShardedQueryEngine`` / ``ShardedIndexedQueryEngine``).  No serving
path uses them any more — one engine over the assembled matrix is
faster — and they remain only until the benchmark's traced runs stop
wrapping their methods.
"""

from repro.sharding.partitioner import HashPartitioner, splitmix64
from repro.sharding.store import ShardedStore, shard_subdir

__all__ = [
    "HashPartitioner",
    "ShardedStore",
    "shard_subdir",
    "splitmix64",
]
