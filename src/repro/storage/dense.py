"""In-RAM :class:`DenseStore` — the store every trainable model holds.

Wraps plain float64 ndarrays with the :class:`~repro.storage.base
.EmbeddingStore` contract.  ``set_matrix`` keeps array identity when
handed an already-compliant float64 array, so code that constructs a
matrix and then trains against the model's ``center`` view mutates the
exact same buffer it built.
"""

from __future__ import annotations

import numpy as np

from repro.storage.base import EmbeddingStore

__all__ = ["DenseStore"]


class DenseStore(EmbeddingStore):
    """Plain in-process ndarray storage (the one writable store)."""

    def __init__(self, center=None, context=None) -> None:
        super().__init__()
        self._matrices: dict[str, np.ndarray | None] = {
            "center": None,
            "context": None,
        }
        if center is not None:
            self.set_matrix("center", center)
        if context is not None:
            self.set_matrix("context", context)

    def _get(self, name: str) -> np.ndarray | None:
        """Return the held array (or ``None`` when unset)."""
        return self._matrices[name]

    def _put(self, name: str, value: np.ndarray) -> None:
        """Adopt ``value`` directly — zero-copy for float64 input."""
        self._matrices[name] = value
