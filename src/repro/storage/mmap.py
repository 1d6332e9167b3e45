"""Memory-mapped :class:`MmapStore` — zero-copy model serving from disk.

Both matrices live as raw ``.npy`` files (``center.npy`` /
``context.npy``) inside one directory, mapped read-only with
``numpy.lib.format.open_memmap``.  Opening a multi-gigabyte model is then
an ``mmap(2)`` call instead of a deserialize-everything pickle load:
pages fault in lazily as queries touch rows, cold-start is near-instant,
models larger than RAM serve fine, and several processes mapping the same
bundle share one page-cache copy.  Format-v2 bundles written by
:func:`repro.core.serialize.save_bundle` use exactly this layout, so
``load_bundle(..., mmap=True)`` adopts the bundle directory as a store
with no copying at all.  The store never writes: ``set_matrix``,
``grow`` and element writes all raise.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.storage.base import EmbeddingStore

__all__ = ["MmapStore"]

_FILENAMES = {"center": "center.npy", "context": "context.npy"}


class MmapStore(EmbeddingStore):
    """Read-only embedding store over memory-mapped ``.npy`` files.

    Matrices are mapped lazily on first access, so opening a store over a
    huge bundle costs nothing until rows are touched.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        super().__init__()
        self.directory = Path(directory)
        self._arrays: dict[str, np.ndarray | None] = {
            "center": None,
            "context": None,
        }

    @classmethod
    def open(cls, directory: str | os.PathLike) -> "MmapStore":
        """Map an existing directory of ``center.npy``/``context.npy``."""
        return cls(directory)

    def _get(self, name: str) -> np.ndarray | None:
        """Lazily map the named file; ``None`` when it doesn't exist."""
        arr = self._arrays[name]
        if arr is None:
            path = self.directory / _FILENAMES[name]
            if path.exists():
                arr = np.lib.format.open_memmap(path, mode="r")
                self._arrays[name] = arr
        return arr

    def close(self) -> None:
        """Drop the mappings (files stay on disk; idempotent)."""
        self._arrays = {"center": None, "context": None}

    # ----------------------------------------------------------------- pickle

    def __getstate__(self) -> dict:
        """Pickle as directory reference — the ``.npy`` files ARE the data."""
        state = super().__getstate__()
        state["_arrays"] = {"center": None, "context": None}
        return state
