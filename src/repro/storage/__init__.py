"""Embedding storage: one protocol, one writable store, read-only views.

See :mod:`repro.storage.base` for the :class:`EmbeddingStore` contract.

================  ===================================================
``DenseStore``    plain RAM ndarrays — every trainable model's store
``MmapStore``     read-only memory-mapped ``.npy`` sidecars of a
                  format-v2 bundle (``load_bundle(..., mmap=True)``)
``SharedMatrix``  one matrix in POSIX shared memory — the Hogwild
                  pool's private staging during parallel training
================  ===================================================
"""

from __future__ import annotations

from repro.storage.base import MATRIX_NAMES, EmbeddingStore, normalize_rows
from repro.storage.dense import DenseStore
from repro.storage.mmap import MmapStore
from repro.storage.shared import SharedMatrix

__all__ = [
    "EmbeddingStore",
    "DenseStore",
    "SharedMatrix",
    "MmapStore",
    "MATRIX_NAMES",
    "normalize_rows",
]
