"""Bitwise oracle for the scratch-workspace SGNS kernels.

The reference below is the straightforward allocating form of the
kernels: every gather, gradient and scatter intermediate is a fresh
array.  The shipped kernels write the same operations through ``out=``
into reused scratch buffers, so after any sequence of steps both matrices
and every loss must agree bit for bit, not just to a tolerance.
"""

import numpy as np
import pytest

from repro.embedding import sgns

# --------------------------------------------------------------- reference
# The allocating kernels, code verbatim.

_CLIP = 30.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically clipped logistic function."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_CLIP, _CLIP)))


def _scatter_add(matrix: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``matrix[rows] += values`` with duplicate rows summed first."""
    if rows.size == 0:
        return
    rows = np.where(rows < 0, rows + matrix.shape[0], rows)  # -1 is row n-1
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_rows[1:] != sorted_rows[:-1]))
    )
    sums = np.add.reduceat(values[order], starts, axis=0)
    matrix[sorted_rows[starts]] += sums


def sgns_step(center, context, src, dst, neg, lr):
    """Reference plain SGNS step."""
    x_i = center[src]                      # (B, d)
    x_j = context[dst]                     # (B, d)
    x_k = context[neg]                     # (B, K, d)

    pos_score = sigmoid(np.einsum("bd,bd->b", x_i, x_j))        # sigma(x'_j.x_i)
    neg_score = sigmoid(np.einsum("bkd,bd->bk", x_k, x_i))      # sigma(x'_k.x_i)

    # Gradients (Eqs. 8-10); note d/dx of -log sigma(z) = -(1 - sigma(z)).
    g_pos = (1.0 - pos_score)[:, None]                          # (B, 1)
    g_neg = neg_score[:, :, None]                               # (B, K, 1)

    grad_center = -g_pos * x_j + np.einsum("bkd->bd", g_neg * x_k)
    grad_context_pos = -g_pos * x_i                              # (B, d)
    grad_context_neg = g_neg * x_i[:, None, :]                   # (B, K, d)

    loss = float(
        np.mean(
            -np.log(np.clip(pos_score, 1e-12, None))
            - np.log(np.clip(1.0 - neg_score, 1e-12, None)).sum(axis=1)
        )
    )

    _scatter_add(center, src, -lr * grad_center)
    _scatter_add(context, dst, -lr * grad_context_pos)
    _scatter_add(
        context,
        neg.reshape(-1),
        -lr * grad_context_neg.reshape(-1, center.shape[1]),
    )
    return loss


def sgns_step_bow(center, context, flat_words, offsets, dst, neg, lr):
    """Reference bag-of-words SGNS step."""
    if offsets.shape[0] != dst.shape[0] + 1:
        raise ValueError("offsets must have length len(dst) + 1")
    lengths = np.diff(offsets)
    if (lengths <= 0).any():
        raise ValueError("every bag in the batch must be non-empty")

    d = center.shape[1]
    word_vecs = center[flat_words]                               # (sumL, d)
    # Sum word vectors per record.  reduceat needs int starts < len.
    bag = np.add.reduceat(word_vecs, offsets[:-1], axis=0)       # (B, d)

    x_j = context[dst]
    x_k = context[neg]
    pos_score = sigmoid(np.einsum("bd,bd->b", bag, x_j))
    neg_score = sigmoid(np.einsum("bkd,bd->bk", x_k, bag))

    g_pos = (1.0 - pos_score)[:, None]
    g_neg = neg_score[:, :, None]

    grad_bag = -g_pos * x_j + np.einsum("bkd->bd", g_neg * x_k)  # (B, d)
    grad_context_pos = -g_pos * bag
    grad_context_neg = g_neg * bag[:, None, :]

    loss = float(
        np.mean(
            -np.log(np.clip(pos_score, 1e-12, None))
            - np.log(np.clip(1.0 - neg_score, 1e-12, None)).sum(axis=1)
        )
    )

    # d(bag)/d(x_w) = identity for every word in the bag: scatter the bag
    # gradient to each constituent word.
    grad_per_word = np.repeat(grad_bag, lengths, axis=0)         # (sumL, d)
    _scatter_add(center, flat_words, -lr * grad_per_word)
    _scatter_add(context, dst, -lr * grad_context_pos)
    _scatter_add(context, neg.reshape(-1), -lr * grad_context_neg.reshape(-1, d))
    return loss


# ---------------------------------------------------------- random batches

# Alternating sizes: the scratch slots grow at 256 and 600 and are then
# reused, as prefixes, at the smaller sizes.
BATCH_SIZES = (1, 7, 256, 600, 7, 256, 1, 600, 256)
N_ROWS = 40  # small, so rows repeat heavily within and across src/dst/neg


def random_matrices(rng, d):
    return (
        rng.normal(0.0, 0.5, size=(N_ROWS, d)),
        rng.normal(0.0, 0.5, size=(N_ROWS, d)),
    )


def random_plain(rng, batch, negatives, low=0):
    return (
        rng.integers(low, N_ROWS, batch),
        rng.integers(low, N_ROWS, batch),
        rng.integers(low, N_ROWS, (batch, negatives)),
    )


def random_bow(rng, batch, negatives, low=0):
    lengths = rng.integers(1, 13, batch)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    flat = rng.integers(low, N_ROWS, offsets[-1])
    _, dst, neg = random_plain(rng, batch, negatives, low)
    return flat, offsets, dst, neg


def pair(rng, d, first_order):
    """The same initial ``(center, context)`` twice: reference's, kernel's.

    First-order LINE passes one matrix as both sides.
    """
    center, context = random_matrices(rng, d)

    def copy():
        c = center.copy()
        return (c, c) if first_order else (c, context.copy())

    return copy(), copy()


def assert_same(ref, new, ref_loss, new_loss):
    assert np.array_equal(ref[0], new[0])
    assert np.array_equal(ref[1], new[1])
    assert ref_loss == new_loss


@pytest.mark.parametrize(
    "first_order", [False, True], ids=["two-matrix", "center-is-context"]
)
@pytest.mark.parametrize("negatives", [1, 5])
@pytest.mark.parametrize("d", [8, 32, 64])
class TestBitIdentical:
    def test_plain_steps(self, d, negatives, first_order):
        rng = np.random.default_rng(1000 * d + negatives)
        ref, new = pair(rng, d, first_order)
        for batch in BATCH_SIZES:
            src, dst, neg = random_plain(rng, batch, negatives)
            ref_loss = sgns_step(*ref, src, dst, neg, 0.05)
            new_loss = sgns.sgns_step(*new, src, dst, neg, 0.05)
            assert_same(ref, new, ref_loss, new_loss)

    def test_bow_steps(self, d, negatives, first_order):
        rng = np.random.default_rng(2000 * d + negatives)
        ref, new = pair(rng, d, first_order)
        for batch in BATCH_SIZES:
            flat, offsets, dst, neg = random_bow(rng, batch, negatives)
            ref_loss = sgns_step_bow(*ref, flat, offsets, dst, neg, 0.05)
            new_loss = sgns.sgns_step_bow(*new, flat, offsets, dst, neg, 0.05)
            assert_same(ref, new, ref_loss, new_loss)

    def test_interleaved_kernels(self, d, negatives, first_order):
        """Both kernels share scratch slots; alternating them stays exact."""
        rng = np.random.default_rng(3000 * d + negatives)
        ref, new = pair(rng, d, first_order)
        for batch in BATCH_SIZES:
            src, dst, neg = random_plain(rng, batch, negatives)
            assert_same(
                ref, new,
                sgns_step(*ref, src, dst, neg, 0.025),
                sgns.sgns_step(*new, src, dst, neg, 0.025),
            )
            flat, offsets, dst, neg = random_bow(rng, batch, negatives)
            assert_same(
                ref, new,
                sgns_step_bow(*ref, flat, offsets, dst, neg, 0.025),
                sgns.sgns_step_bow(*new, flat, offsets, dst, neg, 0.025),
            )


class TestScatterAdd:
    def test_matches_reference(self):
        rng = np.random.default_rng(5)
        for n in (1, 7, 600, 3):
            rows = rng.integers(0, 10, n)
            values = rng.normal(size=(n, 16))
            ref = rng.normal(size=(10, 16))
            new = ref.copy()
            _scatter_add(ref, rows, values)
            sgns._scatter_add(new, rows, values)
            assert np.array_equal(ref, new)

    @pytest.mark.parametrize(
        "n", [32_768, 32_769], ids=["int16-keys", "int64-keys"]
    )
    def test_either_side_of_the_radix_sort_bound(self, n):
        """Rows sort as ``int16`` up to 32,768 rows and as ``int64`` above."""
        rng = np.random.default_rng(n)
        rows = np.concatenate(
            (rng.integers(0, n, 3000), [n - 1, 0, n - 1, n - 2, n - 1])
        )
        values = rng.normal(size=(rows.size, 2))
        ref = rng.normal(size=(n, 2))
        new = ref.copy()
        _scatter_add(ref, rows, values)
        sgns._scatter_add(new, rows, values)
        assert np.array_equal(ref, new)

    def test_empty_rows_are_a_no_op(self):
        matrix = np.ones((3, 2))
        no_rows = np.asarray([], dtype=np.int64)
        sgns._scatter_add(matrix, no_rows, np.empty((0, 2)))
        assert np.array_equal(matrix, np.ones((3, 2)))


class TestIndexSemantics:
    def test_negative_indices_wrap_like_the_reference(self):
        rng = np.random.default_rng(7)
        ref, new = pair(rng, 8, False)
        for batch in (7, 256):
            src, dst, neg = random_plain(rng, batch, 5, low=-N_ROWS)
            assert_same(
                ref, new,
                sgns_step(*ref, src, dst, neg, 0.05),
                sgns.sgns_step(*new, src, dst, neg, 0.05),
            )
            flat, offsets, dst, neg = random_bow(rng, batch, 5, low=-N_ROWS)
            assert_same(
                ref, new,
                sgns_step_bow(*ref, flat, offsets, dst, neg, 0.05),
                sgns.sgns_step_bow(*new, flat, offsets, dst, neg, 0.05),
            )

    @pytest.mark.parametrize("field", ["src", "dst", "neg"])
    def test_minus_one_and_last_row_are_one_row(self, field):
        """A batch naming row ``n - 1`` once as ``-1`` and once as ``n - 1``
        updates it exactly as naming it ``n - 1`` twice does."""
        rng = np.random.default_rng(10)
        center, context = random_matrices(rng, 8)
        batch = {"src": np.array([0, 1]), "dst": np.array([2, 3]),
                 "neg": np.array([[1], [2]])}
        shape = batch[field].shape
        results = []
        for rows in ([N_ROWS - 1, N_ROWS - 1], [N_ROWS - 1, -1]):
            batch[field] = np.array(rows).reshape(shape)
            c, x = center.copy(), context.copy()
            loss = sgns.sgns_step(c, x, batch["src"], batch["dst"],
                                  batch["neg"], 0.1)
            results.append((c, x, loss))
        assert_same(results[0][:2], results[1][:2], results[0][2], results[1][2])

    def test_minus_one_and_last_row_are_one_word(self):
        rng = np.random.default_rng(11)
        center, context = random_matrices(rng, 8)
        offsets, dst, neg = np.array([0, 2, 3]), np.array([2, 3]), np.array([[1], [2]])
        results = []
        for flat in ([N_ROWS - 1, 0, N_ROWS - 1], [N_ROWS - 1, 0, -1]):
            c, x = center.copy(), context.copy()
            loss = sgns.sgns_step_bow(c, x, np.array(flat), offsets, dst, neg, 0.1)
            results.append((c, x, loss))
        assert_same(results[0][:2], results[1][:2], results[0][2], results[1][2])

    @pytest.mark.parametrize("bad", [N_ROWS, -N_ROWS - 1])
    @pytest.mark.parametrize("field", ["src", "dst", "neg"])
    def test_out_of_range_plain_raises_before_updating(self, field, bad):
        rng = np.random.default_rng(8)
        center, context = random_matrices(rng, 8)
        batch = dict(zip(("src", "dst", "neg"), random_plain(rng, 7, 5)))
        batch[field].flat[3] = bad
        before = center.copy(), context.copy()
        args = (batch["src"], batch["dst"], batch["neg"], 0.1)
        with pytest.raises(IndexError):
            sgns_step(center, context, *args)
        with pytest.raises(IndexError):
            sgns.sgns_step(center, context, *args)
        assert np.array_equal(center, before[0])
        assert np.array_equal(context, before[1])

    @pytest.mark.parametrize("field", ["flat", "dst", "neg"])
    def test_out_of_range_bow_raises_before_updating(self, field):
        rng = np.random.default_rng(9)
        center, context = random_matrices(rng, 8)
        fields = ("flat", "offsets", "dst", "neg")
        batch = dict(zip(fields, random_bow(rng, 7, 5)))
        batch[field].flat[2] = N_ROWS + 3
        before = center.copy(), context.copy()
        args = (batch["flat"], batch["offsets"], batch["dst"], batch["neg"], 0.1)
        with pytest.raises(IndexError):
            sgns_step_bow(center, context, *args)
        with pytest.raises(IndexError):
            sgns.sgns_step_bow(center, context, *args)
        assert np.array_equal(center, before[0])
        assert np.array_equal(context, before[1])
