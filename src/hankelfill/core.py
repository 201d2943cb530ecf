"""Dense N-way tensor algebra: unfolding and multi-linear products.

Value carriers are plain ``numpy.ndarray`` objects: float64 arrays for data
tensors and bool arrays for observation masks. One linearization convention is
used everywhere in this package and by the on-disk tensor format:

    the first index varies fastest (column-major / Fortran vectorization).

Under this convention the mode-k unfolding of a tensor of shape
(I_0, ..., I_{N-1}) is the I_k x prod(I_n, n != k) matrix whose row i_k lists
all entries with the k-th index fixed, the remaining indices enumerated with
the lowest-numbered mode varying fastest.  Modes are 0-based throughout.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

import numpy as np

Shape = tuple[int, ...]

# Largest element count we accept for a dense tensor; keeps index arithmetic
# safely inside int64.
_MAX_ELEMENTS = 2**62

_FLOAT64 = np.dtype(np.float64)


def _integer(value, what: str) -> int:
    """``value`` as an int by ``operator.index``, else a ValueError naming ``what``.

    The package's one integer rule, with :func:`_integers`: a Python or
    numpy integer passes, and a float is refused even when whole, never
    truncated.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _integers(values, what: str) -> tuple[int, ...]:
    """Each of ``values`` by :func:`_integer`'s rule, as a tuple; the ValueError names ``what``."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


def check_shape(dims: Iterable[int]) -> Shape:
    """Validate a tensor shape: integer dims, order >= 1, all dims >= 1, no index overflow."""
    shape = _integers(dims, "dimensions")
    if len(shape) == 0:
        raise ValueError("tensor shape must have at least one mode")
    if any(d < 1 for d in shape):
        raise ValueError(f"all dimensions must be >= 1, got {shape}")
    count = 1
    for d in shape:
        count *= d
        if count > _MAX_ELEMENTS:
            raise ValueError(f"element count of shape {shape} overflows the supported range")
    return shape


def as_mask(flags, data_shape: Shape | None = None) -> np.ndarray:
    """Read ``flags`` as a boolean observation mask: nonzero is observed (True).

    This is the package's one mask rule.  A float or complex mask holding NaN
    or +-Inf is a ValueError: such a value says neither observed nor missing.
    So is a mask of no mode, or one whose shape is not ``data_shape``, when
    that is given.  A bool array passes through uncopied.
    """
    q = np.asarray(flags)
    if q.dtype != np.bool_:
        if q.dtype.kind in "fc" and not np.isfinite(q).all():
            raise ValueError("the mask holds non-finite values; "
                             "want 0 for missing and a finite nonzero for observed")
        q = q != 0
    check_shape(q.shape)
    if data_shape is not None and q.shape != data_shape:
        raise ValueError(f"data shape {data_shape} differs from mask shape {q.shape}")
    return q


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-k unfolding into an I_k x prod(other dims) matrix.

    Columns follow the package linearization: remaining modes in increasing
    order, the lowest one varying fastest.
    """
    if type(t) is not np.ndarray:
        t = np.asarray(t)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")
    axes = (mode, *range(mode), *range(mode + 1, t.ndim))
    return t.transpose(axes).reshape((t.shape[mode], -1), order="F")


def mode_multiply(t: np.ndarray, a: np.ndarray, mode: int) -> np.ndarray:
    """Mode-k product: contracts a R x I_k matrix against the k-th mode.

    Satisfies unfold(result, k) = a @ unfold(t, k), with the package's
    Fortran-order unfolding.  The kernel itself works on the C-order memory
    layout instead: a C-contiguous tensor is the 3-way array
    (left, I_k, right), left = prod(I_n, n < k), right = prod(I_n, n > k), so
    the product is the batched matmul ``a @ view``, whose output already has
    the layout of the result.  Neither operand is transposed or copied (a
    non-contiguous or non-float64 ``t`` is converted once, and operands that
    need no conversion skip it); a mode with nothing on one side
    (left == 1 or right == 1) is a single 2-D GEMM.
    """
    if not (type(t) is np.ndarray and t.dtype == _FLOAT64 and t.flags.c_contiguous):
        t = np.ascontiguousarray(t, dtype=np.float64)
    if not (type(a) is np.ndarray and a.dtype == _FLOAT64):
        a = np.asarray(a, dtype=np.float64)
    shape = t.shape
    if not (0 <= mode < len(shape) and a.ndim == 2 and a.shape[1] == shape[mode]):
        if not 0 <= mode < len(shape):
            raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")
        raise ValueError(f"mode_multiply: matrix {a.shape} does not match mode-{mode} size "
                         f"{shape[mode]} of tensor {shape}")
    size = shape[mode]
    head, tail = shape[:mode], shape[mode + 1:]
    left, right = math.prod(head), math.prod(tail)
    if left == 1:
        out = a @ t.reshape(size, right)
    elif right == 1:
        out = t.reshape(left, size) @ a.T
    else:
        out = a @ t.reshape(left, size, right)
    return out.reshape(head + (a.shape[0],) + tail)


def is_unit_factor(u: np.ndarray) -> bool:
    """True for the 1x1 identity, which a mode product may skip exactly."""
    return u.shape == (1, 1) and u[0, 0] == 1.0


def _check_factors(g: np.ndarray, factors: Sequence[np.ndarray]) -> None:
    if len(factors) != g.ndim:
        raise ValueError(f"expected {g.ndim} factor matrices, got {len(factors)}")
    for n, u in enumerate(factors):
        u = np.asarray(u)
        if u.ndim != 2 or u.shape[1] != g.shape[n]:
            raise ValueError(f"factor {n} has shape {u.shape}, needs {g.shape[n]} columns")


def multilinear_product(g: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Apply one factor matrix per mode: g x_0 U0 x_1 U1 ... (order-independent).

    The modes are applied in growth order, increasing I_n / R_n for a factor
    of shape (I_n, R_n), ties going to the higher mode index first: the
    products that shrink or barely grow the tensor run while it is small, and
    the last, largest product gets the widest trailing block, so its batched
    matmul is a few large GEMMs.  The result equals the mode-order chain up to
    rounding.  1x1 identity factors (singleton modes) are skipped.
    """
    g = np.asarray(g, dtype=np.float64)
    _check_factors(g, factors)
    factors = [np.asarray(u, dtype=np.float64) for u in factors]
    order = sorted(range(g.ndim), key=lambda n: (factors[n].shape[0] / factors[n].shape[1], -n))
    for n in order:
        if not is_unit_factor(factors[n]):
            g = mode_multiply(g, factors[n], n)
    return g
