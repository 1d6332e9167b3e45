"""Property suite for the hash partitioner and the composite version.

Three invariants carry the whole sharding design, so each is checked
property-based rather than by example:

* **Growth stability** — a vertex's shard depends only on ``(id, K)``,
  never on how many vertices exist, so growing the store never migrates
  existing rows.
* **Map round-trip** — the global↔local id maps derived by
  ``build_maps`` invert each other exactly.
* **Composite version monotonicity** — any interleaving of the store's
  own and its children's bumps advances :attr:`ShardedStore.version`
  strictly, so one stamp invalidates every downstream cache.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sharding import HashPartitioner, ShardedStore, splitmix64
from repro.storage import DenseStore

shard_counts = st.integers(min_value=1, max_value=8)


class TestSplitmix64:
    @given(ids=st.lists(st.integers(0, 2**62), min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_deterministic_and_uint64(self, ids):
        mixed = splitmix64(np.asarray(ids, dtype=np.uint64))
        again = splitmix64(np.asarray(ids, dtype=np.uint64))
        assert mixed.dtype == np.uint64
        assert np.array_equal(mixed, again)

    def test_mixes_sequential_ids(self):
        # Sequential ids must not land on sequential shards (a plain
        # ``id % K`` would correlate hot id ranges with single shards).
        assign = HashPartitioner(4).shard_of(np.arange(64))
        assert len(set(assign.tolist())) == 4
        assert not np.array_equal(assign, np.arange(64) % 4)


class TestGrowthStability:
    @given(
        n_shards=shard_counts,
        n_rows=st.integers(0, 200),
        extra=st.integers(0, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_assignment_is_stable_under_growth(self, n_shards, n_rows, extra):
        partitioner = HashPartitioner(n_shards)
        before, _, _ = partitioner.build_maps(n_rows)
        after, _, _ = partitioner.build_maps(n_rows + extra)
        assert np.array_equal(after[:n_rows], before)


class TestMapRoundTrip:
    @given(n_shards=shard_counts, n_rows=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_global_local_round_trip(self, n_shards, n_rows):
        shard_of, local_of, shard_rows = HashPartitioner(
            n_shards
        ).build_maps(n_rows)
        # Every global id maps to (shard, local) and back to itself.
        for g in range(n_rows):
            assert shard_rows[shard_of[g]][local_of[g]] == g
        # The per-shard row lists partition the id space, in ascending
        # order per shard (the v3 sidecar write/read order).
        flat = np.concatenate(shard_rows) if n_rows else np.empty(0)
        assert sorted(flat.tolist()) == list(range(n_rows))
        for rows in shard_rows:
            assert np.array_equal(rows, np.sort(rows))


mutations = st.lists(
    st.one_of(
        st.tuples(st.just("bump"), st.just(0)),
        st.tuples(st.just("child_bump"), st.integers(0, 3)),
    ),
    min_size=1,
    max_size=12,
)


class TestCompositeVersion:
    @given(ops=mutations)
    @settings(max_examples=40, deadline=None)
    def test_strictly_monotone_under_interleaved_mutations(self, ops):
        rng = np.random.default_rng(7)
        _, _, shard_rows = HashPartitioner(4).build_maps(12)
        store = ShardedStore.from_children(
            DenseStore(rng.normal(size=(len(rows), 4)), None)
            for rows in shard_rows
        )
        seen = store.version
        for op, arg in ops:
            if op == "bump":
                store.bump()
            else:
                store.children[arg].bump()
            assert store.version > seen
            seen = store.version
