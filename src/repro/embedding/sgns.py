"""Vectorized skip-gram-with-negative-sampling (SGNS) update kernels.

These implement the paper's optimization core: the per-edge objective of
Eq. (7)

    J_NEG = -log sigma(x'_j . x_i) - sum_k E[ log sigma(-x'_k . x_i) ]

and its gradients (Eqs. 8-10), applied as mini-batch SGD (Eqs. 12-14).
The paper's C++ implementation updates one edge at a time; here each call
processes a whole mini-batch with NumPy scatter-adds (sort + ``reduceat``,
see :func:`_scatter_add`) so repeated indices inside a batch accumulate
correctly.

Two kernels are provided:

* :func:`sgns_step` — plain center/context pairs (all inter-record edge
  types, and intra-record edges when the bag-of-words structure is off).
* :func:`sgns_step_bow` — the intra-record bag-of-words variant (footnote 4):
  the textual side of a record is the *sum of its word embeddings*; the
  center gradient is scattered back to every constituent word.

Both kernels allocate no batch-sized arrays: gathers, scores, gradients
and scatter-add intermediates live in a per-thread, grow-only scratch
workspace (:class:`_Scratch`) and every NumPy call writes through
``out=``.  Each step runs the same operations in the same order as the
straightforward allocating form, so its updates and loss are
bit-identical to it; only index-sized arrays (sort orders, run starts)
are still allocated per call.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["sigmoid", "sgns_step", "sgns_step_bow", "sgns_batch_loss"]

_CLIP = 30.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically clipped logistic function."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_CLIP, _CLIP)))


def _sigmoid_inplace(z: np.ndarray) -> np.ndarray:
    """:func:`sigmoid` of ``z`` computed in ``z``, bit for bit."""
    np.clip(z, -_CLIP, _CLIP, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    np.add(1.0, z, out=z)
    return np.divide(1.0, z, out=z)


class _Scratch(threading.local):
    """Per-thread, grow-only scratch buffers for the SGD kernels.

    Each named slot is one flat array that only ever grows (to a quarter
    above the largest request so far), so after the first few steps every
    batch-sized temporary reuses memory that is already mapped: no page
    faults, no allocator round trips.  Being thread-local, concurrent
    kernels (and forked Hogwild workers, which get their own copy-on-write
    pages) never share a slot.  Shaped views are cached too: a step asks
    for some 25 of them, and carving each anew would cost more than the
    small allocations it replaces.
    """

    _MAX_VIEWS = 4096  # variable batch shapes must not grow the cache forever

    def __init__(self) -> None:
        self.slots: dict[tuple[str, object], np.ndarray] = {}
        self.views: dict[tuple[str, tuple[int, ...], object], np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A C-contiguous ``shape`` view of slot ``name``, contents undefined."""
        key = (name, shape, dtype)
        view = self.views.get(key)
        if view is None:
            size = math.prod(shape)
            buf = self.slots.get((name, dtype))
            if buf is None or buf.size < size:
                buf = np.empty(size + size // 4, dtype=dtype)
                self.slots[(name, dtype)] = buf
                # Views of the outgrown buffer would keep it alive.
                self.views = {
                    k: v for k, v in self.views.items()
                    if (k[0], k[2]) != (name, dtype)
                }
            if len(self.views) >= self._MAX_VIEWS:
                self.views.clear()
            view = self.views[key] = buf[:size].reshape(shape)
        return view


_scratch = _Scratch()


def _gather(matrix: np.ndarray, index: np.ndarray, name: str) -> np.ndarray:
    """``matrix[index]`` (rows) written into scratch slot ``name``.

    ``np.take`` with its default ``mode="raise"`` buffers ``out`` through
    a fresh copy, so bounds are checked here and the take itself wraps:
    out-of-range rows raise ``IndexError`` exactly as fancy indexing does,
    and negative rows count from the end.
    """
    index = np.asarray(index)
    n = matrix.shape[0]
    if index.size and (index.min() < -n or index.max() >= n):
        bad = index[(index < -n) | (index >= n)].flat[0]
        raise IndexError(
            f"index {bad} is out of bounds for axis 0 with size {n}"
        )
    out = _scratch.get(name, index.shape + matrix.shape[1:], matrix.dtype)
    return matrix.take(index, axis=0, out=out, mode="wrap")


def _scatter_add(
    matrix: np.ndarray,
    rows: np.ndarray,
    values: np.ndarray,
    value_rows: np.ndarray | None = None,
) -> None:
    """``matrix[rows] += values`` with duplicate rows accumulated.

    With ``value_rows``, row ``rows[i]`` receives ``values[value_rows[i]]``
    (``values`` is then expanded on the fly, never materialized).

    Duplicates are merged by stably sorting the row indices and summing
    each run with ``np.add.reduceat``; the per-row totals are then added
    to their rows with one gather, add and put.  Every row therefore gets
    the same updates as ``np.add.at(matrix, rows, values)`` would apply,
    but summed before they are added, so the rounding differs from
    ``np.add.at`` (which adds one value at a time).  The sorted values,
    the run sums and the gathered rows live in scratch slots.

    ``rows`` must already be bounds-checked: the kernels gather through
    every index array (see :func:`_gather`) before they scatter.
    """
    if rows.size == 0:
        return
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_rows[1:] != sorted_rows[:-1]))
    )
    width = values.shape[1:]
    sorted_values = values.take(
        order if value_rows is None else value_rows[order],
        axis=0, mode="wrap",
        out=_scratch.get("scatter_values", rows.shape + width, values.dtype),
    )
    sums = np.add.reduceat(
        sorted_values, starts, axis=0,
        out=_scratch.get("scatter_sums", starts.shape + width, values.dtype),
    )
    targets = sorted_rows[starts]
    # The sorted values are spent: the gathered rows may reuse their slot.
    updated = matrix.take(
        targets, axis=0, mode="wrap",
        out=_scratch.get("scatter_values", sums.shape, matrix.dtype),
    )
    np.add(updated, sums, out=updated)
    matrix[targets] = updated


def _objective(
    x_i: np.ndarray,
    context: np.ndarray,
    dst: np.ndarray,
    neg: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Loss and gradients of Eq. (7) for center-side rows ``x_i``.

    Returns the mean ``J_NEG`` over the batch and the gradients (Eqs.
    8-10) with respect to ``x_i`` ``(B, d)``, the positive context rows
    ``(B, d)`` and the negative context rows ``(B, K, d)``, all in scratch
    slots.
    """
    batch, negatives = neg.shape[0], neg.shape[1]
    d = x_i.shape[1]
    dtype = np.result_type(x_i, context)
    x_j = _gather(context, dst, "x_j")                          # (B, d)
    x_k = _gather(context, neg, "x_k")                          # (B, K, d)

    pos_score = _sigmoid_inplace(np.einsum(     # sigma(x'_j.x_i)
        "bd,bd->b", x_i, x_j, out=_scratch.get("pos", (batch,), dtype)
    ))
    neg_score = _sigmoid_inplace(np.einsum(     # sigma(x'_k.x_i)
        "bkd,bd->bk", x_k, x_i,
        out=_scratch.get("neg", (batch, negatives), dtype),
    ))

    # Gradients (Eqs. 8-10); note d/dx of -log sigma(z) = -(1 - sigma(z)).
    minus_g_pos = np.subtract(
        1.0, pos_score, out=_scratch.get("minus_g_pos", (batch,), dtype)
    )
    np.negative(minus_g_pos, out=minus_g_pos)
    minus_g_pos = minus_g_pos[:, None]                          # (B, 1)
    g_neg = neg_score[:, :, None]                               # (B, K, 1)

    grad_center = np.multiply(
        minus_g_pos, x_j, out=_scratch.get("grad_center", (batch, d), dtype)
    )
    # One (B, K, d) slot holds the negatives' terms of the center gradient,
    # then, once they are summed, the negative-context gradient.
    per_negative = _scratch.get("per_negative", (batch, negatives, d), dtype)
    np.add(
        grad_center,
        np.einsum("bkd->bd", np.multiply(g_neg, x_k, out=per_negative),
                  out=_scratch.get("neg_sum", (batch, d), dtype)),
        out=grad_center,
    )
    grad_context_pos = np.multiply(
        minus_g_pos, x_i,
        out=_scratch.get("grad_context_pos", (batch, d), dtype),
    )
    grad_context_neg = np.multiply(g_neg, x_i[:, None, :], out=per_negative)

    # np.clip(x, lo, None) is np.maximum(x, lo); called directly, it
    # skips np.clip's Python dispatch.
    pos_loss = np.maximum(
        pos_score, 1e-12, out=_scratch.get("pos_loss", (batch,), dtype)
    )
    np.log(pos_loss, out=pos_loss)
    np.negative(pos_loss, out=pos_loss)
    neg_loss = np.subtract(
        1.0, neg_score,
        out=_scratch.get("neg_loss", (batch, negatives), dtype),
    )
    np.maximum(neg_loss, 1e-12, out=neg_loss)
    np.log(neg_loss, out=neg_loss)
    neg_loss_sum = _scratch.get("neg_loss_sum", (batch,), dtype)
    np.subtract(pos_loss, neg_loss.sum(axis=1, out=neg_loss_sum), out=pos_loss)
    loss = float(np.mean(pos_loss))
    return loss, grad_center, grad_context_pos, grad_context_neg


def _update_context(
    context: np.ndarray,
    dst: np.ndarray,
    neg: np.ndarray,
    grad_pos: np.ndarray,
    grad_neg: np.ndarray,
    lr: float,
) -> None:
    """Apply the context-side SGD updates (Eq. 13) in place."""
    _scatter_add(context, dst, np.multiply(grad_pos, -lr, out=grad_pos))
    np.multiply(grad_neg, -lr, out=grad_neg)
    _scatter_add(
        context, neg.reshape(-1), grad_neg.reshape(-1, grad_neg.shape[-1])
    )


def sgns_step(
    center: np.ndarray,
    context: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    neg: np.ndarray,
    lr: float,
) -> float:
    """One mini-batch SGD step on shared embedding matrices.

    Parameters
    ----------
    center, context:
        ``(n, d)`` embedding matrices, updated in place (the ``x`` and
        ``x'`` of the paper).
    src:
        ``(B,)`` center vertex indices.
    dst:
        ``(B,)`` observed context vertex indices (positive examples).
    neg:
        ``(B, K)`` negative context vertex indices drawn from
        ``P(v) ∝ d_v^{3/4}``.
    lr:
        Learning rate ``eta``.

    Returns
    -------
    Mean ``J_NEG`` over the batch (before the update), for monitoring.
    """
    x_i = _gather(center, src, "x_i")                           # (B, d)
    loss, grad_center, grad_pos, grad_neg = _objective(x_i, context, dst, neg)
    _scatter_add(center, src, np.multiply(grad_center, -lr, out=grad_center))
    _update_context(context, dst, neg, grad_pos, grad_neg, lr)
    return loss


def sgns_step_bow(
    center: np.ndarray,
    context: np.ndarray,
    flat_words: np.ndarray,
    offsets: np.ndarray,
    dst: np.ndarray,
    neg: np.ndarray,
    lr: float,
) -> float:
    """Bag-of-words SGNS step: the center is a *sum of word embeddings*.

    Parameters
    ----------
    center, context:
        ``(n, d)`` embedding matrices, updated in place.
    flat_words:
        Concatenated word vertex indices of all records in the batch.
    offsets:
        ``(B + 1,)`` prefix offsets into ``flat_words``; record ``b`` owns
        ``flat_words[offsets[b]:offsets[b+1]]`` and must be non-empty.
    dst:
        ``(B,)`` observed context vertices (the record's L or T unit).
    neg:
        ``(B, K)`` negative context vertices.
    lr:
        Learning rate.

    Returns
    -------
    Mean batch loss before the update.
    """
    if offsets.shape[0] != dst.shape[0] + 1:
        raise ValueError("offsets must have length len(dst) + 1")
    lengths = np.diff(offsets)
    if (lengths <= 0).any():
        raise ValueError("every bag in the batch must be non-empty")

    word_vecs = _gather(center, flat_words, "words")            # (sumL, d)
    # Sum word vectors per record.  reduceat needs int starts < len.
    bag = np.add.reduceat(                                      # (B, d)
        word_vecs, offsets[:-1], axis=0,
        out=_scratch.get("bag", (dst.shape[0],) + word_vecs.shape[1:],
                         word_vecs.dtype),
    )
    loss, grad_bag, grad_pos, grad_neg = _objective(bag, context, dst, neg)

    # d(bag)/d(x_w) = identity for every word in the bag: scatter the bag
    # gradient to each constituent word.
    owner = np.repeat(np.arange(lengths.size), lengths)         # (sumL,)
    _scatter_add(
        center, flat_words, np.multiply(grad_bag, -lr, out=grad_bag), owner
    )
    _update_context(context, dst, neg, grad_pos, grad_neg, lr)
    return loss


def sgns_batch_loss(
    center: np.ndarray,
    context: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    neg: np.ndarray,
) -> float:
    """Evaluate mean ``J_NEG`` without updating (for convergence tests)."""
    x_i = center[src]
    pos_score = sigmoid(np.einsum("bd,bd->b", x_i, context[dst]))
    neg_score = sigmoid(np.einsum("bkd,bd->bk", context[neg], x_i))
    return float(
        np.mean(
            -np.log(np.clip(pos_score, 1e-12, None))
            - np.log(np.clip(1.0 - neg_score, 1e-12, None)).sum(axis=1)
        )
    )
