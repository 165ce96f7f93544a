"""k-nearest-neighbour queries over a fixed reference set.

:class:`KNNIndex` precomputes the full distance matrix once and answers
neighbour queries by partial sorting; :func:`kneighbors` is the one-shot
functional form. Self-neighbours are always excluded, matching the
convention of LOF and Fast ABOD where a point is never its own neighbour.

Two selection routines back every neighbour list in the package:
:func:`_smallest_k` (``argpartition``, any float dtype) and
:func:`_packed_smallest_k`, a faster packed-key selection for the
distance substrate's float32 squared-distance matrices that returns the
same bits.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.neighbors.distance import euclidean_cdist, euclidean_pdist_matrix
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
        self._dist = euclidean_pdist_matrix(self.X)
        # A point must not be its own neighbour: mask the diagonal.
        self._masked = self._dist.copy()
        np.fill_diagonal(self._masked, np.inf)

    @property
    def n_samples(self) -> int:
        """Number of indexed points."""
        return self.X.shape[0]

    @property
    def distances(self) -> np.ndarray:
        """The full pairwise distance matrix (diagonal zero)."""
        return self._dist

    def kneighbors(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the ``k`` nearest non-self neighbours.

        Returns
        -------
        (indices, distances):
            Two arrays of shape ``(n, k)``; column ``j`` holds the
            ``(j+1)``-th nearest neighbour, sorted ascending by distance.
        """
        k = self._check_k(k)
        order = _smallest_k(self._masked, k)
        dist = np.take_along_axis(self._masked, order, axis=1)
        return order, dist

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


#: Bytes of packed keys selected per chunk of rows. One reused buffer this
#: size stays cache-resident; packing a whole ``(n, n)`` matrix at once
#: would fault in a fresh ``8 n^2``-byte array on every query.
_PACK_CHUNK_BYTES = 1 << 19

_SHIFT = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)


def _packed_smallest_k(D: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest entries per row of a masked float32 distance matrix.

    ``D`` must be float32 and non-negative (``+inf`` allowed — the
    distance substrate's squared distances with their masked diagonal):
    for such values the IEEE bit pattern, read as an unsigned integer,
    orders exactly like the value. Each entry becomes the ``uint64`` key
    ``(float32 bits << 32) | column``. Keys are unique, and their order
    is ascending distance with ties broken by column index — the order
    :func:`_smallest_k` returns. An in-place partition per row brings the
    ``k + 1`` smallest keys to the front, a sort orders that head, and
    the first ``k`` keys decode to the neighbour indices and their
    squared distances.

    Which of several candidates tied at the k-th boundary
    :func:`_smallest_k` keeps is decided by ``argpartition``'s internals,
    not by index order. A row whose k-th and ``(k+1)``-th keys share a
    distance is therefore re-selected with :func:`_smallest_k` itself, so
    every row is bit-identical to it.

    Returns ``(indices, sq)``: an intp and a float32 array of shape
    ``(n, k)``, ascending per row.
    """
    n, m = D.shape
    idx = np.empty((n, k), dtype=np.intp)
    sq = np.empty((n, k), dtype=np.float32)
    tie = np.empty(n, dtype=bool)
    bits = D.view(np.uint32)
    sq_bits = sq.view(np.uint32)
    columns = np.arange(m, dtype=np.uint64)
    rows = max(1, _PACK_CHUNK_BYTES // (8 * m))
    buf = np.empty((min(rows, n), m), dtype=np.uint64)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        keys = buf[: stop - start]
        np.copyto(keys, bits[start:stop])
        keys <<= _SHIFT
        keys |= columns
        keys.partition(k, axis=1)
        head = keys[:, : k + 1]
        head.sort(axis=1)
        tie[start:stop] = (head[:, k - 1] >> _SHIFT) == (head[:, k] >> _SHIFT)
        idx[start:stop] = head[:, :k] & _LOW32
        sq_bits[start:stop] = head[:, :k] >> _SHIFT
    bad = np.flatnonzero(tie)
    if bad.size:
        rows_bad = D[bad]
        order = _smallest_k(rows_bad, k)
        idx[bad] = order
        sq[bad] = np.take_along_axis(rows_bad, order, axis=1)
    return idx, sq
