"""Contract tests for the embedding storage layer.

:class:`TestStoreContract` runs the read contract on every store — a
:class:`DenseStore`, the store a legacy shared-memory pickle loads into,
and a read-only :class:`MmapStore` over ``np.save`` sidecars — and the
write contract on the two writable ones.  Store-specific behavior
(read-only enforcement, pickling semantics, segment cleanup) lives in the
dedicated classes below.
"""

import gc
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.storage import DenseStore, MmapStore, SharedMatrix, normalize_rows

# A ``SharedMemStore`` of two 3x2 matrices (center ``arange(6)``, context
# ``-arange(6) / 4``, version 2), pickled before the shared-memory store
# was retired; ``repro train --store shared`` models embed one.
LEGACY_SHARED_STORE = (
    b'\x80\x04\x95}\x01\x00\x00\x00\x00\x00\x00\x8c\x14repro.storage.shared'
    b'\x94\x8c\x0eSharedMemStore\x94\x93\x94)\x81\x94}\x94(\x8c\x08_version'
    b'\x94K\x02\x8c\x0b_normalized\x94}\x94\x8c\t_segments\x94}\x94(\x8c\x06ce'
    b'nter\x94\x8c\x16numpy._core.multiarray\x94\x8c\x0c_reconstruct\x94\x93'
    b'\x94\x8c\x05numpy\x94\x8c\x07ndarray\x94\x93\x94K\x00\x85\x94C\x01b\x94'
    b'\x87\x94R\x94(K\x01K\x03K\x02\x86\x94h\x0e\x8c\x05dtype\x94\x93\x94\x8c'
    b'\x02f8\x94\x89\x88\x87\x94R\x94(K\x03\x8c\x01<\x94NNNJ\xff\xff\xff\xffJ'
    b'\xff\xff\xff\xffK\x00t\x94b\x89C0\x00\x00\x00\x00\x00\x00\x00\x00\x00'
    b'\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\x00@\x00\x00\x00\x00'
    b'\x00\x00\x08@\x00\x00\x00\x00\x00\x00\x10@\x00\x00\x00\x00\x00\x00\x14@'
    b'\x94t\x94b\x8c\x07context\x94h\rh\x10K\x00\x85\x94h\x12\x87\x94R\x94(K'
    b'\x01K\x03K\x02\x86\x94h\x1a\x89C0\x00\x00\x00\x00\x00\x00\x00\x80\x00'
    b'\x00\x00\x00\x00\x00\xd0\xbf\x00\x00\x00\x00\x00\x00\xe0\xbf\x00\x00\x00'
    b'\x00\x00\x00\xe8\xbf\x00\x00\x00\x00\x00\x00\xf0\xbf\x00\x00\x00\x00\x00'
    b'\x00\xf4\xbf\x94t\x94buub.'
)


def _matrices(rows=8, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, dim)), rng.normal(size=(rows, dim))


def _sidecars(directory, center, context):
    """Write a format-v2 bundle's two ``.npy`` sidecars."""
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "center.npy", center)
    np.save(directory / "context.npy", context)
    return directory


def _writable(kind):
    center, context = _matrices()
    if kind == "dense":
        return DenseStore(center, context)
    store = pickle.loads(LEGACY_SHARED_STORE)
    store.set_matrix("center", center)
    store.set_matrix("context", context)
    return store


@pytest.fixture(params=["dense", "shared"])
def writable_store(request):
    """A writable store pre-loaded with deterministic matrices."""
    s = _writable(request.param)
    yield s
    s.close()


@pytest.fixture(params=["dense", "shared", "mmap"])
def store(request, tmp_path):
    """Every store kind, pre-loaded with deterministic matrices."""
    if request.param == "mmap":
        s = MmapStore.open(_sidecars(tmp_path / "store", *_matrices()))
    else:
        s = _writable(request.param)
    yield s
    s.close()


def _empty_like(store, tmp_path):
    if isinstance(store, MmapStore):
        (tmp_path / "empty").mkdir()
        return MmapStore.open(tmp_path / "empty")
    return DenseStore()


class TestNormalizeRows:
    """Rows whose sum of squares under- or overflows still come out unit."""

    def test_tiny_row_has_unit_norm(self):
        # each square is ~3.5e-323, a subnormal with a few bits left
        out = normalize_rows(np.asarray([[5.9e-162, 5.9e-162, 0.0, 0.0]]))
        assert np.linalg.norm(out[0]) == pytest.approx(1.0, abs=1e-15)

    def test_row_whose_squares_all_underflow(self):
        out = normalize_rows(np.asarray([[3e-170, 4e-170]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=1e-15)

    def test_row_whose_squares_overflow(self):
        with np.errstate(over="ignore"):
            out = normalize_rows(np.asarray([[1e200, -1e200]]))
        np.testing.assert_allclose(out, [[0.5**0.5, -(0.5**0.5)]], rtol=1e-15)

    def test_other_rows_are_bit_identical(self):
        rng = np.random.default_rng(4)
        normal = rng.normal(size=(6, 5))
        mixed = np.vstack([normal[:3], 1e-165 * normal[3:4], np.zeros((1, 5)),
                           normal[3:]])
        out = normalize_rows(mixed)
        reference = normalize_rows(normal)
        np.testing.assert_array_equal(out[[0, 1, 2, 5, 6, 7]], reference)
        np.testing.assert_array_equal(out[4], 0.0)
        np.testing.assert_allclose(out[3], reference[3], rtol=1e-15)


class TestStoreContract:
    def test_roundtrip(self, store):
        center, context = _matrices()
        np.testing.assert_array_equal(store.center, center)
        np.testing.assert_array_equal(store.context, context)
        assert store.n_rows == 8
        assert store.dim == 4

    def test_empty_store_raises_attribute_error(self, store, tmp_path):
        empty = _empty_like(store, tmp_path)
        with empty:
            with pytest.raises(AttributeError, match="center"):
                empty.as_array("center")
            assert not hasattr_center(empty)

    def test_bad_matrix_name_rejected(self, store):
        with pytest.raises(ValueError, match="matrix name"):
            store.as_array("weights")

    def test_set_matrix_bumps_version(self, writable_store):
        store = writable_store
        before = store.version
        store.set_matrix("center", np.zeros((8, 4)))
        assert store.version == before + 1
        np.testing.assert_array_equal(store.center, np.zeros((8, 4)))

    def test_put_row_bumps_version_and_writes(self, writable_store):
        store = writable_store
        before = store.version
        store.put_row(3, np.arange(4, dtype=float))
        assert store.version == before + 1
        np.testing.assert_array_equal(store.get_row(3), np.arange(4.0))

    def test_view_gathers_rows(self, store):
        gathered = store.view([2, 0, 2], name="context")
        expected = store.context[[2, 0, 2]]
        np.testing.assert_array_equal(gathered, expected)

    def test_grow_appends_and_bumps(self, writable_store):
        store = writable_store
        before = store.version
        new_c = np.full((3, 4), 7.0)
        new_x = np.full((3, 4), 9.0)
        first = store.grow(new_c, new_x)
        assert first == 8
        assert store.n_rows == 11
        assert store.version == before + 1
        np.testing.assert_array_equal(store.center[8:], new_c)
        np.testing.assert_array_equal(store.context[8:], new_x)

    def test_grow_zero_rows_is_noop(self, store):
        before = store.version
        assert store.grow(np.empty((0, 4)), np.empty((0, 4))) == 8
        assert store.n_rows == 8
        assert store.version == before

    def test_grow_shape_mismatch_rejected(self, store):
        with pytest.raises(ValueError, match="matching"):
            store.grow(np.zeros((2, 4)), np.zeros((3, 4)))

    def test_normalized_matches_reference(self, store):
        np.testing.assert_array_equal(
            store.normalized("center"), normalize_rows(store.center)
        )

    def test_normalized_cached_until_mutation(self, store):
        first = store.normalized("center")
        assert store.normalized("center") is first
        store.bump()
        second = store.normalized("center")
        assert second is not first
        np.testing.assert_array_equal(second, normalize_rows(store.center))

    def test_bump_invalidates_after_inplace_write(self, writable_store):
        store = writable_store
        cached = store.normalized("center")
        store.center[0] = 5.0  # in-place SGD-style write, store unaware
        assert store.normalized("center") is cached  # stale until bump
        store.bump()
        assert store.normalized("center") is not cached

    def test_coerces_to_float64(self, writable_store):
        store = writable_store
        store.set_matrix("center", np.ones((8, 4), dtype=np.float32))
        assert store.center.dtype == np.float64

    def test_one_dim_matrix_rejected(self, store):
        with pytest.raises(ValueError, match="2-D"):
            store.set_matrix("center", np.zeros(4))

    def test_pickle_roundtrip(self, store):
        restored = pickle.loads(pickle.dumps(store))
        try:
            np.testing.assert_array_equal(restored.center, store.center)
            np.testing.assert_array_equal(restored.context, store.context)
            assert restored.version == store.version
            assert type(restored) is type(store)
        finally:
            restored.close()

    def test_close_idempotent(self, store):
        store.close()
        store.close()

    def test_repr_mentions_shape(self, store):
        assert "8x4" in repr(store)


def hasattr_center(store):
    """hasattr-style probe mirroring prediction-model attribute checks."""
    try:
        store.center
    except AttributeError:
        return False
    return True


class TestDenseStore:
    def test_float64_input_adopted_zero_copy(self):
        center, context = _matrices()
        store = DenseStore(center, context)
        assert store.center is center
        store.center[0, 0] = 42.0
        assert center[0, 0] == 42.0


class TestSharedMemStore:
    def test_unpickled_store_is_private(self):
        """A legacy shared-memory pickle loads as a plain DenseStore."""
        store = pickle.loads(LEGACY_SHARED_STORE)
        assert type(store) is DenseStore
        assert store.version == 2
        center = np.arange(6, dtype=np.float64).reshape(3, 2)
        np.testing.assert_array_equal(store.center, center)
        np.testing.assert_array_equal(store.context, -center / 4)
        np.testing.assert_array_equal(
            store.normalized("context"), normalize_rows(-center / 4)
        )

    def test_segment_unlinked_when_dropped_without_close(self):
        """The weakref.finalize crash guard unlinks leaked segments."""
        from multiprocessing import shared_memory

        matrix = SharedMatrix(np.zeros((2, 2)))
        name = matrix._shm.name
        del matrix
        gc.collect()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestMmapStore:
    def test_files_on_disk(self, tmp_path):
        """The store maps the sidecars themselves — no copy in RAM."""
        center, context = _matrices()
        directory = _sidecars(tmp_path / "m", center, context)
        with MmapStore.open(directory) as store:
            for name, expected in (("center", center), ("context", context)):
                mapped = store.as_array(name)
                assert isinstance(mapped, np.memmap)
                assert Path(mapped.filename) == directory / f"{name}.npy"
                np.testing.assert_array_equal(mapped, expected)

    def test_reopen_sees_writes(self, tmp_path):
        """A re-export into the directory is what the next open maps."""
        center, context = _matrices()
        directory = _sidecars(tmp_path / "m", center, context)
        MmapStore.open(directory).close()
        _sidecars(directory, center + 1.0, context)
        with MmapStore.open(directory) as reopened:
            np.testing.assert_array_equal(reopened.center, center + 1.0)
            np.testing.assert_array_equal(reopened.context, context)

    def test_readonly_mode_rejects_writes(self, tmp_path):
        center, context = _matrices()
        with MmapStore.open(_sidecars(tmp_path / "m", center, context)) as ro:
            before = ro.version
            with pytest.raises(ValueError, match="read-only"):
                ro.set_matrix("center", np.zeros((8, 4)))
            with pytest.raises(ValueError, match="read-only"):
                ro.grow(np.ones((2, 4)), np.ones((2, 4)))
            with pytest.raises(ValueError, match="read-only"):
                ro.put_row(0, np.ones(4))
            with pytest.raises(ValueError, match="read-only"):
                ro.center[0, 0] = 1.0
            assert ro.version == before
            np.testing.assert_array_equal(ro.center, center)
            assert ro.n_rows == 8

    def test_readonly_without_directory_rejected(self):
        with pytest.raises(TypeError, match="directory"):
            MmapStore()

    def test_bad_mode_rejected(self, tmp_path):
        """There is no writable mode to ask for."""
        with pytest.raises(TypeError, match="mode"):
            MmapStore(tmp_path, mode="r+")

    def test_no_tmp_files_left_behind(self, tmp_path):
        """Opening, reading and pickling create nothing in the bundle."""
        directory = _sidecars(tmp_path / "m", *_matrices())
        with MmapStore.open(directory) as store:
            store.normalized("center")
            pickle.loads(pickle.dumps(store)).close()
        assert sorted(p.name for p in directory.iterdir()) == [
            "center.npy",
            "context.npy",
        ]

    def test_pickle_references_directory(self, tmp_path):
        """Mmap pickles carry the path, not the matrices."""
        center, context = _matrices(rows=64, dim=32)
        directory = _sidecars(tmp_path / "m", center, context)
        with MmapStore.open(directory) as store:
            blob = pickle.dumps(store)
            assert len(blob) < center.nbytes  # no embedded matrix payload
            with pickle.loads(blob) as restored:
                np.testing.assert_array_equal(restored.center, center)
