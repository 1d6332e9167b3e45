"""POSIX shared-memory matrices for the Hogwild training pool.

Python threads cannot parallelize the NumPy SGNS kernels (the scatter-add
updates hold the GIL), so the paper's lock-free multi-threaded SGD (Recht
et al.; Fig. 12b/c) is reproduced with *processes*: for the pool's
lifetime the trainer stages the center and context matrices in POSIX
shared memory, worker processes are forked after the trainer is fully
constructed, and every worker scatter-adds into the same pages without
locks — the Hogwild recipe with processes supplying the parallelism
threads cannot.

:class:`SharedMatrix` wraps one matrix in one segment.  Cleanup is
crash-proof: a ``weakref.finalize`` guard unlinks the segment even when
the owning trainer dies mid-epoch and ``close()`` is never reached, so
aborted runs do not leak ``/dev/shm`` segments until reboot.
"""

from __future__ import annotations

import weakref
from multiprocessing import shared_memory

import numpy as np

from repro.storage.dense import DenseStore

__all__ = ["SharedMatrix"]


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    """Close + unlink a segment, tolerating live views and double unlinks.

    ``close()`` raises ``BufferError`` while ndarray views of the buffer
    are still alive; the name is unlinked regardless so the kernel
    reclaims the pages once the last mapping dies — nothing outlives the
    process either way.
    """
    try:
        shm.close()
    except BufferError:  # exported views still alive; pages freed at GC/exit
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # already unlinked by another path/process
        pass


class SharedMatrix:
    """A float64 matrix backed by a POSIX shared-memory segment.

    Create one per embedding matrix before forking workers; every process
    that inherits the object (via fork) sees the same pages, so in-place
    NumPy updates are immediately visible everywhere.

    The creating process owns the segment.  Call :meth:`close` (or use
    the object as a context manager) to release it deterministically; a
    ``weakref.finalize`` guard unlinks the segment at garbage collection
    or interpreter exit even when the owner crashes before ``close()``.
    """

    def __init__(self, initial: np.ndarray) -> None:
        initial = np.ascontiguousarray(initial, dtype=np.float64)
        self._shm = shared_memory.SharedMemory(
            create=True, size=initial.nbytes
        )
        self.array = np.ndarray(
            initial.shape, dtype=np.float64, buffer=self._shm.buf
        )
        self.array[:] = initial
        self._closed = False
        # Crash guard: unlink the segment when this wrapper is collected
        # or the interpreter exits, whichever comes first.  finalize()
        # runs at most once, so an explicit close() supersedes it.
        self._finalizer = weakref.finalize(self, _release_segment, self._shm)

    def copy(self) -> np.ndarray:
        """A private (non-shared) copy of the current contents."""
        return np.array(self.array)

    def close(self) -> None:
        """Release the shared segment (idempotent).

        The numpy view becomes invalid afterwards; callers should
        :meth:`copy` first if they need the data.
        """
        if self._closed:
            return
        # Drop our numpy view before closing the mapping; any *other*
        # surviving views are tolerated (the segment is still unlinked
        # and the pages die with the last mapping).
        self.array = None
        self._finalizer()
        self._closed = True

    def __enter__(self) -> "SharedMatrix":
        """Context-manager entry (returns the wrapper)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: release the segment via :meth:`close`."""
        self.close()


class SharedMemStore(DenseStore):
    """Unpickling stand-in for the retired shared-memory store.

    Models pickled after ``repro train --store shared`` hold a
    ``SharedMemStore`` whose state carries both matrices under
    ``_segments``; unpickling turns it into a :class:`DenseStore` holding
    them, version counter included.
    """

    def __setstate__(self, state: dict) -> None:
        """Become a :class:`DenseStore` over the pickled matrices."""
        self.__class__ = DenseStore
        self.__dict__.update(state)
        self._matrices = self.__dict__.pop("_segments")
