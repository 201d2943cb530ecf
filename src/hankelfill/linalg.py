"""Orthonormal bases, deterministic by construction: dominant subspaces and new columns.

:func:`leading_singular_vectors` is the factor update of the ALS sweep: at
most one decomposition, and no rescaling.  A single column, what every
update of a rank-one model sees, is divided by its signed peak, then by
its norm, without one, so it gives the same bits at every power-of-two
scale where no entry turns subnormal.
A wide matrix (J <= K) takes the eigendecomposition of its J x J Gram
matrix A A^T (:func:`_top_eigenvectors`): mode sizes in this package are
window lengths, so J stays small while K can be the product of every
other mode.
A tall matrix (J > K) takes one thin SVD, orthonormal as LAPACK returns
it, also where A is rank-deficient.  The sweep's Gram route
(``completion._leave_one_out``) forms the Gram of a windowed pair's
unfolding without the unfolding, and takes the same eigensolve.  The
package's one range rule lives in :func:`hankelfill.pipeline.recover`,
which fits data whose observed peak is inside its window, so no Gram
under- or overflows and LAPACK never rescales.
:func:`complete_orthonormal_basis` makes every new factor column (random
start, rank padding, rank above an update's width) with one QR.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _FLOAT64


def apply_sign_convention(u: np.ndarray) -> np.ndarray:
    """Flip column signs in place so each column's largest-magnitude entry is nonnegative.

    First occurrence wins on ties, which makes the output deterministic.
    ``u`` is a float64 matrix the caller owns, changed and returned; a flip
    multiplies by -1, so every magnitude keeps its bits.
    """
    peaks = u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])]
    u *= np.where(peaks < 0, -1.0, 1.0)
    return u


def complete_orthonormal_basis(u: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Append one new orthonormal column per column of ``extra`` to the J x k basis u.

    One Householder QR of [u | extra]: its trailing columns, under
    :func:`apply_sign_convention`, follow u unchanged.  They are orthonormal
    and orthogonal to u even where ``extra`` is rank-deficient or lies in
    u's span, and depend only on the inputs.  Zero extra columns return u.
    Callers: ``init_model``, ``pad_model`` and :func:`leading_singular_vectors`.
    """
    rows, have = u.shape
    if extra.shape[0] != rows or have + extra.shape[1] > rows:
        raise ValueError(f"cannot extend {u.shape} basis by {extra.shape} columns")
    if extra.shape[1] == 0:
        return u
    q, _ = np.linalg.qr(np.hstack([u, extra]))  # a new array: flip its columns in place
    return np.hstack([u, apply_sign_convention(q[:, have:])])


def _top_eigenvectors(gram: np.ndarray, r: int) -> np.ndarray:
    """The r leading eigenvectors of a symmetric J x J Gram matrix, under the sign convention.

    The wide step of :func:`leading_singular_vectors`: one ``eigh``, its
    columns reversed to descending eigenvalue and cut to r, copied
    C-contiguous and flipped in place (:func:`apply_sign_convention`).
    """
    u = np.linalg.eigh(gram)[1][:, ::-1][:, :r]
    return apply_sign_convention(np.ascontiguousarray(u))


def leading_singular_vectors(a: np.ndarray, r: int) -> np.ndarray:
    """Orthonormal J x r basis of the dominant left singular subspace of a J x K matrix.

    Maximizes ||U^T A||_F^2 over orthonormal J x r bases, r in [1, J].  A
    is not rescaled: its Gram must neither under- nor overflow, which holds
    for the largest magnitudes that :func:`hankelfill.pipeline.recover`'s
    range rule leaves.  A non-finite entry is a ValueError.  A single
    column (K = 1) is divided by its signed largest-magnitude entry, then
    by the norm of the result, then flipped if its first largest-magnitude
    entry is negative; a zero column gives e_0, as LAPACK's SVD does.  Wide
    and square A take the top eigenvectors of A A^T, tall A a thin SVD,
    which spans its rank-deficient directions too; near-degenerate singular
    values are taken as the solver returns them.  Columns follow
    :func:`apply_sign_convention`.  A rank above K adds columns orthogonal to
    A's: :func:`complete_orthonormal_basis` of identity columns.
    """
    if not (type(a) is np.ndarray and a.dtype == _FLOAT64):
        a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or 0 in a.shape:
        raise ValueError(f"expected a nonempty matrix, got shape {a.shape}")
    rows, cols = a.shape
    if not 1 <= r <= rows:
        raise ValueError(f"r={r} out of range [1, {rows}] for shape {a.shape}")
    # the largest and the smallest entry (a NaN is both); no |a| temporary
    if cols == 1:
        column = a[:, 0]
        top, bottom = column.argmax(), column.argmin()
        high, low = column[top], column[bottom]
    else:
        high, low = np.maximum.reduce(a, axis=None), np.minimum.reduce(a, axis=None)
    if not -math.inf < low <= high < math.inf:
        raise ValueError("matrix has non-finite entries")
    if cols == 1:
        # on a tie of high and -low either sign divides: the sign
        # convention below gives one result
        peak = column[top if high >= -low else bottom]
        if peak == 0:  # +0.0 or -0.0 throughout
            u = np.eye(rows, 1)
        else:
            u = column / peak
            u /= math.sqrt(u @ u)
            # the division can round an earlier entry of just below the peak's
            # magnitude up to a tie with it: the sign convention on one column
            if u[np.abs(u).argmax()] < 0:
                np.negative(u, out=u)
            u = u.reshape(rows, 1)
    elif rows <= cols:
        u = _top_eigenvectors(a @ a.T, r)
    else:
        # the solver returns a new array: flip the signs of ours, C-contiguous, in place
        u = apply_sign_convention(np.ascontiguousarray(
            np.linalg.svd(a, full_matrices=False)[0][:, :r]))
    return u if r <= cols else complete_orthonormal_basis(u, np.eye(rows, r - cols))
