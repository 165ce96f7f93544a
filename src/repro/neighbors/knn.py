"""k-nearest-neighbour queries over a fixed reference set.

:class:`KNNIndex` answers neighbour queries over the rows of a data
matrix; :func:`kneighbors` is the one-shot functional form. Self-neighbours
are always excluded, matching the convention of LOF and Fast ABOD where a
point is never its own neighbour.

:meth:`KNNIndex.kneighbors` never holds an ``(n, n)`` distance matrix. It
computes the Gram product once, then rebuilds the distances of one row
block at a time with exactly the operations of
:func:`~repro.neighbors.distance.euclidean_pdist_matrix`, and selects each
block's neighbours with packed integer keys (:func:`_select_block`). The
distance substrate's float32 squared-distance matrices go through the same
selector in row chunks (:func:`_packed_smallest_k`). Both return the bits
of the ``argpartition`` routine :func:`_smallest_k`, which still serves
:meth:`KNNIndex.query` and every row tied at the k-th boundary.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.neighbors.distance import euclidean_cdist
from repro.utils.validation import check_matrix, check_positive_int

__all__ = ["KNNIndex", "kneighbors"]


class KNNIndex:
    """Brute-force k-NN index over the rows of a data matrix.

    Parameters
    ----------
    X:
        Reference points, shape ``(n, d)``. ``n`` must be at least 2 so that
        every point has at least one non-self neighbour.

    Notes
    -----
    Ties in distance are broken by row index (NumPy's stable ``argsort``),
    so results are deterministic.
    """

    def __init__(self, X: np.ndarray) -> None:
        self.X = check_matrix(X, name="X", min_rows=2)
        # Row norms and the doubled Gram matrix, computed by the first
        # ``kneighbors`` call and reused by later ones.
        self._sq: np.ndarray | None = None
        self._gram2: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        """Number of indexed points."""
        return self.X.shape[0]

    def kneighbors(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the ``k`` nearest non-self neighbours.

        Each row block of the masked distance matrix is rebuilt with
        :func:`~repro.neighbors.distance.euclidean_pdist_matrix`'s
        operations in its order, so every distance has its bits. The
        symmetrisation ``0.5 * (D + D.T)`` becomes ``0.5 * (D + D)``
        because ``X @ X.T`` is bitwise symmetric: NumPy computes a product
        of an array with its own transpose by ``syrk``, one triangle
        mirrored.

        Returns
        -------
        (indices, distances):
            Two arrays of shape ``(n, k)``; column ``j`` holds the
            ``(j+1)``-th nearest neighbour, sorted ascending by distance.
        """
        k = self._check_k(k)
        X = self.X
        if self._gram2 is None:
            self._sq = np.einsum("ij,ij->i", X, X)
            gram2 = X @ X.T
            gram2 *= 2.0  # exact: the bits of ``2.0 * (X @ X.T)``
            self._gram2 = gram2
        sq, gram2 = self._sq, self._gram2
        n = self.n_samples
        idx = np.empty((n, k), dtype=np.intp)
        dist = np.empty((n, k), dtype=np.float64)
        rows = _block_rows(n)
        buf = np.empty((min(rows, n), n), dtype=np.float64)
        keys = np.empty(buf.shape, dtype=np.uint64)
        columns = np.arange(n, dtype=np.uint64)
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            T = buf[: stop - start]
            np.add(sq[start:stop, None], sq[None, :], out=T)
            T -= gram2[start:stop]
            np.maximum(T, 0.0, out=T)
            np.sqrt(T, out=T)
            T += T
            T *= 0.5
            np.fill_diagonal(T[:, start:], np.inf)
            _select_block(T, k, keys[: stop - start], columns, idx[start:stop], dist[start:stop])
        return idx, dist

    def kth_distance(self, k: int) -> np.ndarray:
        """Distance of every point to its ``k``-th nearest non-self neighbour."""
        _, dist = self.kneighbors(k)
        return dist[:, -1]

    def query(self, Q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k-NN of external query points ``Q`` among the indexed points.

        Unlike :meth:`kneighbors`, nothing is masked: a query point that
        coincides with an indexed point will find it at distance zero.
        """
        k = self._check_k(k, allow_equal=True)
        Q = check_matrix(Q, name="Q")
        D = euclidean_cdist(Q, self.X)
        order = _smallest_k(D, k)
        dist = np.take_along_axis(D, order, axis=1)
        return order, dist

    def _check_k(self, k: int, *, allow_equal: bool = False) -> int:
        k = check_positive_int(k, name="k")
        limit = self.n_samples if allow_equal else self.n_samples - 1
        if k > limit:
            raise ValidationError(
                f"k={k} exceeds the number of available neighbours ({limit})"
            )
        return k


def kneighbors(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One-shot k-NN over the rows of ``X`` (self-neighbours excluded)."""
    return KNNIndex(X).kneighbors(k)


def _smallest_k(D: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries per row, sorted ascending.

    ``argpartition`` selects the k smallest in O(n) per row, then only those
    k are sorted — much cheaper than a full-row argsort for k << n.
    Ties are broken by column index for determinism.
    """
    if k >= D.shape[1]:
        return np.argsort(D, axis=1, kind="stable")[:, :k]
    part = np.argpartition(D, k, axis=1)[:, :k]
    part.sort(axis=1)  # index order first: makes the distance sort stable
    part_dist = np.take_along_axis(D, part, axis=1)
    inner = np.argsort(part_dist, axis=1, kind="stable")
    return np.take_along_axis(part, inner, axis=1)


#: Bytes of packed keys selected per block of rows. One reused buffer this
#: size stays cache-resident; packing a whole ``(n, n)`` matrix at once
#: would fault in a fresh ``8 n^2``-byte array on every query.
_PACK_CHUNK_BYTES = 1 << 19

_SHIFT32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)


def _block_rows(m: int) -> int:
    """Rows of ``m`` packed keys that fit in :data:`_PACK_CHUNK_BYTES`."""
    return max(1, _PACK_CHUNK_BYTES // (8 * m))


def _packed_smallest_k(D: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest entries per row of a masked distance matrix.

    ``D`` is float32 (the distance substrate's squared distances) or
    float64, with the entries :func:`_select_block` accepts. Selects
    chunk by chunk, packing keys into one reused buffer. Returns
    ``(indices, values)``: an intp array and an array of ``D``'s dtype,
    both of shape ``(n, k)`` and ascending per row, bit-identical to
    :func:`_smallest_k` and the entries it picks.
    """
    n, m = D.shape
    idx = np.empty((n, k), dtype=np.intp)
    vals = np.empty((n, k), dtype=D.dtype)
    rows = _block_rows(m)
    keys = np.empty((min(rows, n), m), dtype=np.uint64)
    columns = np.arange(m, dtype=np.uint64)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        _select_block(D[start:stop], k, keys[: stop - start], columns, idx[start:stop], vals[start:stop])
    return idx, vals


def _select_block(
    block: np.ndarray,
    k: int,
    keys: np.ndarray,
    columns: np.ndarray,
    idx: np.ndarray,
    vals: np.ndarray,
) -> None:
    """Write the k smallest entries per row of ``block`` into ``idx, vals``.

    ``block`` is float32 or float64 with non-negative entries, ``+inf``
    on a masked diagonal: for such values the IEEE bit pattern, read as
    an unsigned integer, orders exactly like the value. The NaN an
    overflowing float64 expansion leaves orders after ``+inf``, as
    ``argpartition`` orders NaN last. Each entry becomes a unique
    ``uint64`` key in ``keys`` (a scratch buffer of the block's shape)
    whose high part is the value and whose low part is the column
    (``columns`` is ``arange(m)`` as ``uint64``):

    * float32: ``(bits << 32) | column``, the whole value;
    * float64: the value's bits with the low ``ceil(log2 m)`` replaced by
      the column. Truncation is monotone, so whenever the k-th and
      ``(k+1)``-th keys differ in their value part, the first ``k`` keys
      are exactly the k smallest values. Sorting that head stably by the
      exact values then gives ascending distance with ties in index
      order.

    An in-place partition per row brings the ``k + 1`` smallest keys to
    the front and a sort orders that head. Which of several candidates
    tied at the k-th boundary :func:`_smallest_k` keeps is decided by
    ``argpartition``'s internals, not by index order, so a row whose k-th
    and ``(k+1)``-th keys share a value part is re-selected with
    :func:`_smallest_k` itself: every row is bit-identical to it.
    """
    if block.dtype == np.float32:
        shift, low = _SHIFT32, _LOW32
        np.copyto(keys, block.view(np.uint32))
        keys <<= shift
    else:
        shift = np.uint64((block.shape[1] - 1).bit_length())
        low = (np.uint64(1) << shift) - np.uint64(1)
        np.bitwise_and(block.view(np.uint64), ~low, out=keys)
    keys |= columns
    keys.partition(k, axis=1)
    head = keys[:, : k + 1]
    head.sort(axis=1)
    tie = (head[:, k - 1] >> shift) == (head[:, k] >> shift)
    np.bitwise_and(head[:, :k], low, out=idx, casting="unsafe")
    if block.dtype == np.float32:
        vals.view(np.uint32)[...] = head[:, :k] >> shift
    else:
        exact = np.take_along_axis(block, idx, axis=1)
        order = np.argsort(exact, axis=1, kind="stable")
        idx[...] = np.take_along_axis(idx, order, axis=1)
        vals[...] = np.take_along_axis(exact, order, axis=1)
    bad = np.flatnonzero(tie)
    if bad.size:
        rows = block[bad]
        order = _smallest_k(rows, k)
        idx[bad] = order
        vals[bad] = np.take_along_axis(rows, order, axis=1)
