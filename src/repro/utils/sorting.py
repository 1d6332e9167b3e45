"""Stable orderings of small non-negative integer keys.

``np.argsort(kind="stable")`` runs a radix sort on keys of 16 bits or
fewer and a timsort on wider ones.  Keys known to lie in ``[0, bound)``
with ``bound`` at most 32,768 fit ``int16``, so sorting a narrowed copy
gives the same permutation (a stable order is unique) at radix-sort
speed.  The IVF quantizer orders cluster labels this way, and the SGNS
scatter-add orders embedding rows.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stable_order"]


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    When ``bound`` is at most 32,768 the keys are sorted as ``int16``
    (numpy's radix sort); a stable order is unique, so the permutation
    is the same.
    """
    if bound <= np.iinfo(np.int16).max + 1:
        keys = keys.astype(np.int16)
    return np.argsort(keys, kind="stable")
