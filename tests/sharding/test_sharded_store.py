"""ShardedStore contract: a read-only view with single-shard read parity."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.sharding import HashPartitioner, ShardedStore, shard_subdir
from repro.storage import DenseStore, MmapStore


@pytest.fixture()
def matrices():
    rng = np.random.default_rng(42)
    return rng.normal(size=(37, 8)), rng.normal(size=(37, 8))


def make_sharded(backend, tmp_path, center, context, n_shards=4):
    """Split the matrices by the hash layout, as a v3 bundle stores them."""
    _, _, shard_rows = HashPartitioner(n_shards).build_maps(center.shape[0])
    children = []
    for s, rows in enumerate(shard_rows):
        if backend == "dense":
            children.append(DenseStore(center[rows], context[rows]))
            continue
        directory = shard_subdir(tmp_path / "store", s)
        directory.mkdir(parents=True)
        np.save(directory / "center.npy", center[rows])
        np.save(directory / "context.npy", context[rows])
        children.append(MmapStore.open(directory))
    return ShardedStore.from_children(children)


@pytest.mark.parametrize("backend", ["dense", "mmap"])
class TestParity:
    def test_round_trip_and_normalized(
        self, backend, tmp_path, matrices
    ):
        center, context = matrices
        store = make_sharded(backend, tmp_path, center, context)
        reference = DenseStore(center, context)
        try:
            assert store.n_rows == 37 and store.dim == 8
            np.testing.assert_array_equal(store.center, center)
            np.testing.assert_array_equal(store.context, context)
            for name in ("center", "context"):
                np.testing.assert_array_equal(
                    store.normalized(name), reference.normalized(name)
                )
            rows = np.array([0, 5, 17, 36, 5])
            np.testing.assert_array_equal(
                store.view(rows), reference.view(rows)
            )
            np.testing.assert_array_equal(
                store.get_row(19), reference.get_row(19)
            )
        finally:
            store.close()

    def test_rejects_writes(self, backend, tmp_path, matrices):
        center, context = matrices
        store = make_sharded(backend, tmp_path, center, context)
        try:
            before = store.version
            with pytest.raises(ValueError, match="read-only"):
                store.set_matrix("center", np.zeros((37, 8)))
            with pytest.raises(ValueError, match="read-only"):
                store.grow(np.ones((2, 8)), np.ones((2, 8)))
            with pytest.raises(ValueError, match="read-only"):
                store.put_row(3, np.ones(8))
            with pytest.raises(ValueError, match="read-only"):
                store.context[3] += 1.0
            assert store.version == before
            np.testing.assert_array_equal(store.center, center)
            np.testing.assert_array_equal(store.context, context)
            assert store.n_rows == 37
        finally:
            store.close()


class TestShardedSpecifics:
    def test_composite_version_counts_child_mutations(self, matrices):
        center, context = matrices
        store = make_sharded("dense", None, center, context, n_shards=3)
        before = store.version
        store.children[1].bump()
        assert store.version == before + 1
        assert store.bump() == before + 2

    def test_mmap_children_live_in_shard_subdirs(self, tmp_path, tiny_actor):
        from repro.core import load_bundle, save_bundle

        save_bundle(tiny_actor, tmp_path / "bundle", shards=4)
        store = load_bundle(tmp_path / "bundle", mmap=True).store
        try:
            assert isinstance(store, ShardedStore)
            for s, child in enumerate(store.children):
                assert isinstance(child, MmapStore)
                assert child.directory == shard_subdir(tmp_path / "bundle", s)
                assert (child.directory / "center.npy").exists()
                assert (child.directory / "context.npy").exists()
        finally:
            store.close()

    def test_pickle_round_trip(self, matrices):
        center, context = matrices
        store = make_sharded("dense", None, center, context)
        store.center  # assemble, so the pickle must drop the copy
        clone = pickle.loads(pickle.dumps(store))
        assert clone.n_shards == 4
        assert clone._assembled == {}
        np.testing.assert_array_equal(clone.center, center)
        np.testing.assert_array_equal(clone.get_row(5), center[5])
        np.testing.assert_array_equal(
            clone.normalized(), store.normalized()
        )

    def test_from_children_rejects_mis_sharded_counts(self, matrices):
        center, context = matrices
        children = list(make_sharded("dense", None, center, context).children)
        # 37 rows over 4 shards: at least two shards hold unequal counts,
        # so swapping such a pair always violates the hash layout.
        counts = [c.n_rows for c in children]
        i, j = next(
            (a, b)
            for a in range(4)
            for b in range(a + 1, 4)
            if counts[a] != counts[b]
        )
        children[i], children[j] = children[j], children[i]
        with pytest.raises(ValueError, match="do not match the hash layout"):
            ShardedStore.from_children(children)
