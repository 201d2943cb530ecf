"""Orthonormal bases, deterministic by construction: dominant subspaces and new columns.

:func:`leading_singular_vectors` takes one decomposition per call.  A wide
matrix (J <= K) takes the eigendecomposition of its J x J Gram matrix A A^T:
mode sizes in this package are window lengths, so J stays small while K can
be the product of every other mode.  A tall matrix (J > K), what the updates
of a delay-embedded vector or a heavily projected mode see, takes one thin
SVD, orthonormal as LAPACK returns it, also where A is rank-deficient.
:func:`complete_orthonormal_basis` makes every new factor column (random
start, rank padding, rank above an update's width) with one QR.
"""

from __future__ import annotations

import numpy as np


def apply_sign_convention(u: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is nonnegative.

    First occurrence wins on ties, which makes the output deterministic.
    Returns a new float64 array; ``u`` is not changed.
    """
    return _flip_signs(np.array(u, dtype=np.float64))


def _flip_signs(u: np.ndarray) -> np.ndarray:
    """:func:`apply_sign_convention` in place, on a float64 matrix the caller owns."""
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
    q, _ = np.linalg.qr(np.hstack([u, extra]))
    return np.hstack([u, apply_sign_convention(q[:, have:])])


def leading_singular_vectors(a: np.ndarray, r: int) -> np.ndarray:
    """Orthonormal J x r basis of the dominant left singular subspace of a J x K matrix.

    Maximizes the captured energy ||U^T A||_F^2 over all rank-r orthonormal
    bases.  Wide and square inputs take the top eigenvectors of A A^T; tall
    ones the first r left singular vectors of a thin SVD, which span the
    rank-deficient directions too.  Near-degenerate singular values are taken
    as the solver returns them; the caller gets a valid dominant subspace
    either way.  Columns follow :func:`apply_sign_convention`.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    rows, cols = a.shape
    if not 1 <= r <= min(rows, cols):
        raise ValueError(f"r={r} out of range [1, {min(rows, cols)}] for shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")

    if rows <= cols:
        _, vecs = np.linalg.eigh(a @ a.T)
        u = vecs[:, ::-1][:, :r]
    else:
        u = np.linalg.svd(a, full_matrices=False)[0][:, :r]
    # both solvers return new arrays: flip the signs of ours, C-contiguous, in place
    return _flip_signs(np.ascontiguousarray(u))
