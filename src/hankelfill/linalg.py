"""Leading singular vectors of a dense matrix, deterministic by construction.

The only matrix kernel the completion sweep needs, with one decomposition per
call.  A wide matrix (J <= K) takes the eigendecomposition of its J x J Gram
matrix A A^T: mode sizes in this package are window lengths, so J stays small
while K can be the product of every other mode, and the Gram matrix keeps the
work at J x J.  A tall matrix (J > K), what the updates of a delay-embedded
vector or a heavily projected mode see, takes one thin SVD, whose left
singular vectors are orthonormal as LAPACK returns them, also where A is
rank-deficient.
"""

from __future__ import annotations

import numpy as np


def apply_sign_convention(u: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is nonnegative.

    First occurrence wins on ties, which makes the output deterministic.
    """
    u = np.asarray(u, dtype=np.float64)
    idx = np.abs(u).argmax(axis=0)
    return u * np.where(u[idx, np.arange(u.shape[1])] < 0, -1.0, 1.0)


def complete_orthonormal_basis(u: np.ndarray, total: int) -> np.ndarray:
    """Extend an orthonormal J x k basis to J x total columns, deterministically.

    The added columns come from a QR pass over [u | I], so they depend only
    on the input.  The span of the first k columns is preserved.
    """
    rows, have = u.shape
    if not have <= total <= rows:
        raise ValueError(f"cannot extend {u.shape} basis to {total} columns")
    if total == have:
        return u
    q, _ = np.linalg.qr(np.hstack([u, np.eye(rows)]))
    return apply_sign_convention(q[:, :total])


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
    return apply_sign_convention(np.ascontiguousarray(u))
