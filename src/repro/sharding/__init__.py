"""``repro.sharding`` — the format-v3 (sharded) bundle layout, read-only.

Sharding is a bundle layout, not a serving tier or a training option:

* :class:`~repro.sharding.partitioner.HashPartitioner` — deterministic
  splitmix64 vertex-hash assignment of global row ids onto ``K`` shards,
  stable under vertex growth and re-derivable in every process;
* :class:`~repro.sharding.store.ShardedStore` — a read-only
  :class:`~repro.storage.base.EmbeddingStore` over ``K`` per-shard child
  stores (dense, or mmap under ``load_bundle(..., mmap=True)``) behind an
  assembled global-order view and one composite version counter.

``save_bundle(..., shards=K)`` (``repro export/promote --shards``)
writes the ``shards/NN`` sidecars and :func:`~repro.core.serialize
.load_bundle` builds the store from them.  Serving a sharded model needs
nothing of its own: ``ShardedStore.center`` is the assembled matrix, so
the standard :class:`~repro.core.query_engine.QueryEngine` and
:class:`~repro.ann.engine.IndexedQueryEngine` rank exactly as over an
unsharded export.

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
