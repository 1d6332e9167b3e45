"""The :class:`EmbeddingStore` protocol — one storage seam for all stores.

ACTOR's embeddings are the system's core state: hierarchical init writes
them, the alternating meta-graph SGNS mutates them in place, streaming
grows them row by row, and the query engine reads normalized views of
them.  Every store implements the same small contract:

* ``center`` / ``context`` — zero-copy ndarray views of the two matrices;
* ``get_row`` / ``put_row`` / ``view`` — row-level access;
* ``grow`` — append fresh rows to *both* matrices atomically;
* ``normalized`` — a cached L2-row-normalized view, rebuilt lazily when
  :attr:`version` moved;
* ``version`` / ``bump`` — a monotonic counter that every mutation path
  advances, giving downstream caches (the query engine's modality
  matrices) one invalidation signal instead of per-call-site bookkeeping;
* ``close`` — resource release.

Stores: :class:`~repro.storage.dense.DenseStore` (plain RAM) holds every
trainable model; :class:`~repro.storage.mmap.MmapStore` (read-only
memory-mapped ``.npy`` sidecars) and
:class:`~repro.sharding.store.ShardedStore` (a format-v3 bundle's shards)
are read-only views that only :func:`~repro.core.serialize.load_bundle`
builds.  A store that does not implement :meth:`EmbeddingStore._put`
is read-only: every write raises ``ValueError``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EmbeddingStore",
    "MATRIX_NAMES",
    "normalize_rows",
    "out_of_range",
    "rescaled",
]

MATRIX_NAMES = ("center", "context")


#: ``np.linalg.norm`` squares before it sums, so a vector whose sum of
#: squares is subnormal (a norm below ``2**-511``) or overflows (an
#: infinite norm) gets a wrong norm.
_SMALLEST_SAFE_NORM = 2.0**-511


def out_of_range(norms: np.ndarray) -> np.ndarray:
    """Where a norm's sum of squares under- or overflowed (zeros included)."""
    return (norms < _SMALLEST_SAFE_NORM) | (norms == np.inf)


def rescaled(vectors: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Vectors times ``2**600`` where the norm is small, else ``2**-600``.

    ``norms`` holds one norm per vector (last axis).  A power of two moves
    only the exponents, so the direction keeps every digit while the
    squares land in the normal range.
    """
    scale = np.where(norms < _SMALLEST_SAFE_NORM, 2.0**600, 2.0**-600)
    return vectors * scale[..., None]


def _unit_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(matrix, axis=1)
    out = np.zeros_like(matrix, dtype=float)
    np.divide(matrix, norms[:, None], out=out, where=norms[:, None] > 0)
    return out, norms


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalize rows; zero rows stay zero (OOV / empty-query vectors).

    With both operands row-normalized, a plain matrix product yields a
    cosine-similarity block, and zero rows score 0 against everything —
    the out-of-vocabulary convention the query surface relies on.  The
    math is strictly per-row, so normalizing the full matrix and gathering
    a row subset is bit-identical to normalizing the subset directly.
    Rows whose sum of squares under- or overflows are normalized again
    after :func:`rescaled`, so a tiny or huge row still comes out with
    unit norm.
    """
    matrix = np.asarray(matrix)
    out, norms = _unit_rows(matrix)
    redo = np.flatnonzero(out_of_range(norms))
    if redo.size:
        out[redo] = _unit_rows(rescaled(matrix[redo], norms[redo]))[0]
    return out


class EmbeddingStore:
    """Base class / protocol for center+context matrix storage.

    Subclasses implement the private hook :meth:`_get` (return the
    backing ndarray of one matrix, or ``None`` when unset) and, when
    writable, :meth:`_put` (store a float64 2-D array under one name);
    everything else — version bookkeeping, the normalized-view cache, row
    access, growth — is shared here.  All mutation paths funnel through
    :meth:`set_matrix` / :meth:`put_row` / :meth:`grow` / :meth:`bump`,
    each of which advances :attr:`version`.
    """

    def __init__(self) -> None:
        self._version = 0
        # name -> (version, normalized matrix); rebuilt lazily on version
        # mismatch, never mutated in place.
        self._normalized: dict[str, tuple[int, np.ndarray]] = {}

    # ----------------------------------------------------------- subclass API

    def _get(self, name: str) -> np.ndarray | None:
        """Return the backing array for ``name`` (``None`` when unset)."""
        raise NotImplementedError

    def _put(self, name: str, value: np.ndarray) -> None:
        """Store ``value`` (already float64, 2-D) under ``name``.

        Read-only stores keep this default, so ``set_matrix`` and
        ``grow`` raise; their arrays are read-only too, so element
        writes (``put_row``, ``store.center[i] = ...``) raise as well.
        """
        raise ValueError(f"{type(self).__name__} is read-only")

    # -------------------------------------------------------------- utilities

    @staticmethod
    def _check_name(name: str) -> str:
        """Validate a matrix name (``center`` or ``context``)."""
        if name not in MATRIX_NAMES:
            raise ValueError(
                f"matrix name must be one of {MATRIX_NAMES}, got {name!r}"
            )
        return name

    @staticmethod
    def _coerce(value) -> np.ndarray:
        """As a float64 2-D array; zero-copy when already compliant."""
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(
                f"embedding matrices must be 2-D, got shape {arr.shape}"
            )
        return arr

    # ---------------------------------------------------------------- version

    @property
    def version(self) -> int:
        """Monotonic mutation counter — the cache-invalidation signal.

        Any matrix replacement, row write, growth or in-place SGD burst
        (reported via :meth:`bump`) advances it; caches compare their
        stamped version against the current one instead of tracking every
        mutation site.
        """
        return self._version

    def bump(self) -> int:
        """Advance :attr:`version` (call after in-place external writes).

        In-place SGD kernels scatter-add straight into :attr:`center` /
        :attr:`context` views without going through the store's methods;
        they must call ``bump()`` once per burst so readers notice.
        Returns the new version.
        """
        self._version += 1
        return self.version

    # --------------------------------------------------------------- matrices

    @property
    def center(self) -> np.ndarray:
        """Zero-copy view of the center matrix."""
        return self.as_array("center")

    @property
    def context(self) -> np.ndarray:
        """Zero-copy view of the context matrix."""
        return self.as_array("context")

    @property
    def n_rows(self) -> int:
        """Number of embedding rows (center matrix)."""
        return self.center.shape[0]

    @property
    def dim(self) -> int:
        """Embedding dimension (center matrix columns)."""
        return self.center.shape[1]

    def as_array(self, name: str = "center") -> np.ndarray:
        """The named matrix as a zero-copy ndarray view.

        Raises ``AttributeError`` (not ``KeyError``) when the matrix has
        not been set yet, so ``hasattr(model, "center")``-style probes on
        store-backed models keep working.
        """
        arr = self._get(self._check_name(name))
        if arr is None:
            raise AttributeError(f"store holds no {name!r} matrix yet")
        return arr

    def set_matrix(self, name: str, value) -> None:
        """Replace the named matrix wholesale (bumps :attr:`version`).

        Backends overwrite in place when the shape is unchanged and
        reallocate otherwise; either way readers see a version bump.
        """
        self._put(self._check_name(name), self._coerce(value))
        self.bump()

    # -------------------------------------------------------------- row level

    def get_row(self, row: int, name: str = "center") -> np.ndarray:
        """One embedding row (a view into the backing matrix)."""
        return self.as_array(name)[row]

    def put_row(self, row: int, vector, name: str = "center") -> None:
        """Overwrite one embedding row (bumps :attr:`version`)."""
        self.as_array(name)[row] = vector
        self.bump()

    def view(self, rows, name: str = "center") -> np.ndarray:
        """Bulk gather of ``rows`` (fancy indexing — returns a copy)."""
        return self.as_array(name)[np.asarray(rows, dtype=np.int64)]

    # ----------------------------------------------------------------- growth

    def grow(self, center_rows, context_rows) -> int:
        """Append fresh rows to both matrices; returns the first new row.

        ``center_rows`` and ``context_rows`` must have identical shapes.
        Growth bumps :attr:`version` once, so downstream caches are
        invalidated exactly as for any other mutation.
        """
        center_rows = self._coerce(center_rows)
        context_rows = self._coerce(context_rows)
        if center_rows.shape != context_rows.shape:
            raise ValueError(
                "grow requires matching center/context row blocks, got "
                f"{center_rows.shape} vs {context_rows.shape}"
            )
        first = self.n_rows
        if center_rows.shape[0] == 0:
            return first
        for name, rows in (("center", center_rows), ("context", context_rows)):
            self._put(name, np.vstack([self.as_array(name), rows]))
        self.bump()
        return first

    # -------------------------------------------------------- normalized view

    def normalized(self, name: str = "center") -> np.ndarray:
        """Cached L2-row-normalized copy of the named matrix.

        Rebuilt lazily whenever :attr:`version` moved since the cached
        copy was computed; valid snapshots are shared by every reader
        (the query engine's per-modality caches gather rows from this one
        matrix instead of re-norming per modality).
        """
        name = self._check_name(name)
        entry = self._normalized.get(name)
        if entry is not None and entry[0] == self._version:
            return entry[1]
        matrix = normalize_rows(self.as_array(name))
        self._normalized[name] = (self._version, matrix)
        return matrix

    # --------------------------------------------------------------- lifetime

    def close(self) -> None:
        """Release store resources (idempotent; no-op by default)."""

    def __enter__(self) -> "EmbeddingStore":
        """Context-manager entry (returns the store)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: release resources via :meth:`close`."""
        self.close()

    # ----------------------------------------------------------------- pickle

    def __getstate__(self) -> dict:
        """Drop the derived normalized cache from pickles (recomputable)."""
        state = dict(self.__dict__)
        state["_normalized"] = {}
        return state

    def __repr__(self) -> str:
        """Class name plus shape, e.g. ``DenseStore(1024x64, v3)``."""
        try:
            shape = f"{self.n_rows}x{self.dim}"
        except AttributeError:
            shape = "empty"
        return f"{type(self).__name__}({shape}, v{self._version})"
