"""Orthonormal bases, deterministic by construction: dominant subspaces and new columns.

:func:`leading_singular_vectors` takes at most one decomposition per call.
A single column, what every update of a rank-one model sees, is divided by
its norm without one.  A wide matrix (J <= K) takes the eigendecomposition
of its J x J Gram matrix A A^T: mode sizes in this package are window
lengths, so J stays small while K can be the product of every other mode.
A tall matrix (J > K), what the updates of a delay-embedded vector or a
heavily projected mode see, takes one thin SVD, orthonormal as LAPACK
returns it, also where A is rank-deficient.
:func:`complete_orthonormal_basis` makes every new factor column (random
start, rank padding, rank above an update's width) with one QR.
"""

from __future__ import annotations

import math

import numpy as np


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
    """
    rows, have = u.shape
    if extra.shape[0] != rows or have + extra.shape[1] > rows:
        raise ValueError(f"cannot extend {u.shape} basis by {extra.shape} columns")
    if extra.shape[1] == 0:
        return u
    q, _ = np.linalg.qr(np.hstack([u, extra]))  # a new array: flip its columns in place
    return np.hstack([u, apply_sign_convention(q[:, have:])])


def leading_singular_vectors(a: np.ndarray, r: int) -> np.ndarray:
    """Orthonormal J x r basis of the dominant left singular subspace of a J x K matrix.

    Maximizes the captured energy ||U^T A||_F^2 over all rank-r orthonormal
    bases.  A single column (K = 1) is its own direction: it is divided by
    its signed largest-magnitude entry, which makes that entry exactly 1 so
    nothing overflows or underflows, then by the norm of the result, then
    flipped if its first largest-magnitude entry is negative; a zero column
    gives e_0, as LAPACK's SVD does.  Wide and square inputs take the
    top eigenvectors of A A^T, formed again from A divided by a power of two
    near its largest magnitude where the Gram's diagonal leaves float64's
    normal range or its eigensolve does not converge; tall ones the first r left singular vectors of a thin
    SVD, which span the rank-deficient directions too.  Near-degenerate
    singular values are taken as the solver returns them; the caller gets a
    valid dominant subspace either way.  Columns follow
    :func:`apply_sign_convention`.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    rows, cols = a.shape
    if not 1 <= r <= min(rows, cols):
        raise ValueError(f"r={r} out of range [1, {min(rows, cols)}] for shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")

    if cols == 1:
        column = a[:, 0]
        peak = column[np.abs(column).argmax()]
        if peak == 0:  # +0.0 or -0.0 throughout
            return np.eye(rows, 1)
        u = column / peak
        u /= math.sqrt(u @ u)
        # the division can round an earlier entry of just below the peak's
        # magnitude up to a tie with it: the sign convention on one column
        if u[np.abs(u).argmax()] < 0:
            np.negative(u, out=u)
        return u.reshape(rows, 1)
    if rows <= cols:
        with np.errstate(over="ignore", invalid="ignore"):
            gram = a @ a.T
        vecs = None
        # The largest squared row norm may be tiny or overflowed (an inf - inf
        # off the diagonal needs an overflowed square on it); and where LAPACK
        # rescales a Gram of far-apart magnitudes itself, it may not converge.
        if 2.0**-1000 <= gram.diagonal().max() < math.inf:
            try:
                _, vecs = np.linalg.eigh(gram)
            except np.linalg.LinAlgError:
                pass
        if vecs is None:  # scale A by 2^-e, exactly, with its largest magnitude in [2^(e-1), 2^e)
            a = np.ldexp(a, -math.frexp(np.abs(a).max())[1])
            _, vecs = np.linalg.eigh(a @ a.T)
        u = vecs[:, ::-1][:, :r]
    else:
        u = np.linalg.svd(a, full_matrices=False)[0][:, :r]
    # both solvers return new arrays: flip the signs of ours, C-contiguous, in place
    return apply_sign_convention(np.ascontiguousarray(u))
