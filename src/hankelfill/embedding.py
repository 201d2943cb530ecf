"""Multi-way delay embedding (Hankelization) and its least-squares inverse.

A window length tau_n per mode turns an order-N tensor of shape
(I_0, ..., I_{N-1}) into an order-2N tensor of shape

    (tau_0, I_0 - tau_0 + 1, ..., tau_{N-1}, I_{N-1} - tau_{N-1} + 1)

whose entry at (a_0, b_0, ..., a_{N-1}, b_{N-1}) is the source entry at
(a_0 + b_0, ..., a_{N-1} + b_{N-1}); a vector of length L becomes its
tau x (L - tau + 1) Hankel matrix, entry (i, j) = v[i + j].  That shape is
the whole spec of the embedding: its pairs give every window tau_n and every
source length I_n, so :func:`inverse_mdt` takes the embedded tensor alone.  The transform
duplicates each source element once per window that covers it; the inverse
averages the duplicates, which is exactly the Moore-Penrose pseudo-inverse
of the duplication map.
Duplication matrices are never materialized: everything is index arithmetic.
:func:`mdt` allocates nothing at all, its result is a read-only strided view
of the source.  A fit never builds the embedded tensor either: its ALS
sweep reads the filled input and embeds one mode pair at a time
(``completion._leave_one_out``), and a Tucker model of an embedded tensor
maps back without being reconstructed at all (:func:`inverse_mdt_tucker`).
Both contract a mode pair's two factors at once through its pair matrix
K[i, (r, s)] = sum_{a + b = i} U_tau[a, r] U_window[b, s]
(:func:`_pair_matrix`): the sweep with K^T, the map-back with K over the
duplication counts, except on an order-1 model, which convolves its factor
columns.

tau_n = 1 disables embedding on mode n (the pair becomes (1, I_n)), and so
does tau_n = I_n, a window of the whole mode (the pair becomes (I_n, 1)):
both pairs are a reshape, one row or one column (:func:`_embeds_nothing`).
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (_FLOAT64, Shape, _integers, as_mask, check_shape, is_unit_factor,
                   multilinear_product)


def _embeds_nothing(tau: int, width: int) -> bool:
    """True for a mode pair (tau, W) that is a reshape of its mode: tau = 1 or W = 1.

    The package's one reshape-pair rule.  Such a pair's Hankel matrix is the
    mode itself as one row or one column, so no two of its slices share a
    window, its pair matrix is its other factor (:func:`_pair_matrix`) and
    its map-back averages nothing.
    """
    return tau == 1 or width == 1


def embedded_shape(shape: Sequence[int], taus: Sequence[int]) -> Shape:
    """The order-2N shape (tau_0, I_0 - tau_0 + 1, ...) that :func:`mdt` produces.

    Checks one integer window per mode, each in [1, I_n].  The windows are the even
    entries of the result and I_n = tau_n + (I_n - tau_n + 1) - 1, so the
    embedded shape alone fixes the inverse transform.
    """
    shape = check_shape(shape)
    taus = _integers(taus, "windows")
    if len(taus) != len(shape):
        raise ValueError(f"need one window per mode: got {len(taus)} windows "
                         f"for order-{len(shape)} shape {shape}")
    embedded = []
    for n, (tau, size) in enumerate(zip(taus, shape)):
        if not 1 <= tau <= size:
            raise ValueError(f"window tau={tau} out of range [1, {size}] on mode {n}")
        embedded.extend((tau, size - tau + 1))
    return tuple(embedded)


@functools.lru_cache(typed=True)  # 6.0 must not find the counts cached for 6
def duplication_counts(length: int, tau: int) -> np.ndarray:
    """How many sliding windows cover each of the L positions, as read-only float64.

    Equals tau away from the margins and ramps down to 1 at both ends;
    these are the diagonal entries of the duplication map's Gram matrix,
    exact integers.  Made once per (length, tau): every fill of a run
    divides its map-back by the same counts.  ``length`` and ``tau`` are
    read by the one integer rule (``core._integers``).
    """
    length, tau = _integers((length, tau), "length and tau")
    if not 1 <= tau <= length:
        raise ValueError(f"window tau={tau} out of range [1, {length}]")
    i = np.arange(1, length + 1, dtype=np.float64)
    counts = np.minimum(i, i[::-1])
    np.minimum(counts, min(tau, length - tau + 1), out=counts)
    counts.flags.writeable = False
    return counts


def mdt(x: np.ndarray, taus: Sequence[int]) -> np.ndarray:
    """Multi-way delay embedding of an order-N tensor into an order-2N tensor.

    Embedded modes interleave as (tau_0, window_0, tau_1, window_1, ...); see
    :func:`embedded_shape`.  :func:`inverse_mdt` needs nothing but the result.
    The result is a read-only strided view of ``x``: it allocates nothing and
    sees later writes to ``x``.  Copy it (``np.array``) for a writable,
    contiguous embedded tensor.
    """
    x = np.asarray(x)
    windows = embedded_shape(x.shape, taus)[1::2]
    # sliding_window_view with window (L - tau + 1) yields exactly the
    # (tau_0...tau_{N-1}, B_0...B_{N-1}) block; interleave the two groups.
    w = sliding_window_view(x, windows)
    n = x.ndim
    perm = []
    for i in range(n):
        perm.extend((i, n + i))
    return w.transpose(perm)


def mdt_mask(q: np.ndarray, taus: Sequence[int]) -> np.ndarray:
    """Delay embedding of an observation mask; flags are duplicated verbatim.

    A read-only view, as from :func:`mdt`, of ``q`` read by
    :func:`hankelfill.core.as_mask`.  Unused in the package; kept while
    ``perfbench/tracing.py`` traces it by name.
    """
    return mdt(as_mask(q), taus)


def duplication_weights(shape: Sequence[int], taus: Sequence[int]) -> np.ndarray:
    """How many windows of the delay embedding cover each source entry, as float64.

    The product of the per-mode :func:`duplication_counts`, in the input's
    ``shape``: the diagonal of H^T H for H = :func:`mdt` with windows
    ``taus``.  Exact integers.
    """
    windows = embedded_shape(shape, taus)[::2]
    weights = np.ones(())
    for length, tau in zip(shape, windows):
        weights = np.multiply.outer(weights, duplication_counts(length, tau))
    return weights


def embedded_observed_energy(values: np.ndarray, mask: np.ndarray,
                             taus: Sequence[int]) -> float:
    """Squared Frobenius norm of the observed part of the embedded tensor.

    Computed without embedding: each source entry shows up once per covering
    window, so its energy is weighted by :func:`duplication_weights`.  Used
    to scale stopping thresholds to the data.  ``mask`` is read by
    :func:`hankelfill.core.as_mask` and must have the shape of ``values``.
    Finite data whose energy overflows float64 (magnitudes near 1e154 and
    up) are a ValueError that asks for rescaled data.
    """
    values = np.asarray(values, dtype=np.float64)
    weights = duplication_weights(values.shape, taus)
    observed = np.where(as_mask(mask, values.shape), values, 0.0)
    with np.errstate(over="ignore"):
        w = np.square(observed)
        w *= weights
        energy = float(w.sum())
    if not math.isfinite(energy):
        if not np.isfinite(observed).all():
            raise ValueError("observed values must be finite (no NaN/Inf)")
        raise ValueError(f"the observed energy of the data overflows float64 (largest "
                         f"observed magnitude {np.abs(observed).max():.3g}); rescale the data")
    return energy


def inverse_mdt(xh: np.ndarray) -> np.ndarray:
    """Map an order-2N embedded tensor back to its order-N source shape.

    Mode pair n of ``xh`` has shape (tau_n, I_n - tau_n + 1), which gives the
    window and I_n.  Exact left inverse of :func:`mdt`; a non-Hankel input
    collapses to the per-mode weighted average of duplicates (the separable
    pseudo-inverse).  A pair that embeds nothing (:func:`_embeds_nothing`,
    tau_n = 1 or tau_n = I_n) collapses by a reshape, which keeps every
    value to the bit, the sign of a zero too.  The result never shares
    memory with ``xh``.
    """
    xh = np.asarray(xh, dtype=np.float64)
    if xh.ndim % 2:
        raise ValueError(f"an embedded tensor has one (tau, window) pair of modes per "
                         f"source mode, so even order; got shape {xh.shape}")
    check_shape(xh.shape)
    out = xh
    # Collapse (tau, window) pairs back to full axes, last pair first, each on
    # the C-order (left, tau, window, right) view that mode_multiply also
    # uses.  A pair of one window or of windows of 1 is a reshape.
    for axis in range(xh.ndim - 2, -1, -2):
        tau, width = out.shape[axis], out.shape[axis + 1]
        length = tau + width - 1
        head, tail = out.shape[:axis], out.shape[axis + 2:]
        if not _embeds_nothing(tau, width):
            pairs = out.reshape(math.prod(head), tau, width, math.prod(tail))
            acc = np.zeros((pairs.shape[0], length, pairs.shape[3]))
            for a in range(tau):
                acc[:, a:a + width] += pairs[:, a]
            acc /= duplication_counts(length, tau)[:, None]
            out = acc
        out = out.reshape(head + (length,) + tail)
    if np.may_share_memory(out, xh):
        out = out.copy()
    return out


def _pair_matrix(u_tau: np.ndarray, u_window: np.ndarray) -> np.ndarray:
    """K[i, (r, s)] = sum_{a + b = i} u_tau[a, r] u_window[b, s], (r, s) in C order.

    Contracting an input mode with K^T is contracting its delay embedding's
    mode pair with both factors, and K, its rows divided by the duplication
    counts, maps the pair back.  With a 1x1 identity on either side, K is
    the other factor itself, so a pair that embeds nothing changes no
    product, and the chain's two layouts of it, tau = 1 and W = 1, make the
    same products down to the sign of a zero.  Else K is
    a new C-contiguous (tau + W - 1) x r_tau r_window array, sharing memory
    with neither factor: one batched matmul of u_tau reversed, transposed,
    by the sliding windows of u_window padded by tau - 1 zeros on each side,
    where window i, offset c holds u_window[i + c - tau + 1].  Its
    (L, r_tau, r_window) product is K in its final layout, so K is the only
    array of its size the call holds.
    """
    if is_unit_factor(u_tau):
        return u_window
    if is_unit_factor(u_window):
        return u_tau
    tau, r_tau = u_tau.shape
    width, r_window = u_window.shape
    length = tau + width - 1
    padded = np.zeros((width + 2 * (tau - 1), r_window))
    padded[tau - 1:tau - 1 + width] = u_window
    step = r_window * padded.itemsize
    windows = np.ndarray((length, tau, r_window), padded.dtype, padded, 0,
                         (step, step, padded.itemsize))
    k = np.ascontiguousarray(u_tau[::-1].T) @ windows
    return k.reshape(length, r_tau * r_window)


def _window_sum(core: np.ndarray, u_tau: np.ndarray, u_window: np.ndarray) -> np.ndarray:
    """The map-back of an order-1 model: its core (r, s) times the factor pair, averaged.

    ``core`` is the (r_tau, r_window) core of a tau x W embedded matrix.
    Averaging its duplicates sums each antidiagonal a + b = i, so with the
    core contracted into the factor of the larger rank the model is
    min(r_tau, r_window) outer products, and each one's antidiagonal sums
    are one ``np.convolve`` of its two columns; the sums are divided by the
    duplication counts.  Besides the source-sized result this holds the
    contracted factor, at most one embedded copy; the pair matrix K would be
    L x r_tau r_window, up to L embedded copies.
    """
    tau, width = u_tau.shape[0], u_window.shape[0]
    if core.shape[0] <= core.shape[1]:
        columns = zip(u_tau.T, core @ u_window.T)
    else:
        columns = zip((u_tau @ core).T, u_window.T)
    acc = np.convolve(*next(columns))
    for a, b in columns:
        acc += np.convolve(a, b)
    acc /= duplication_counts(tau + width - 1, tau)
    return acc


def inverse_mdt_tucker(core: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """``inverse_mdt`` of the Tucker tensor ``core x_0 U_0 ... x_{2N-1} U_{2N-1}``, unbuilt.

    Averaging the duplicates of a mode pair is linear in each factor pair, so
    the map-back acts on the core with each (r_2n, r_2n+1) pair of modes
    merged (a C-order reshape), one source mode at a time; the embedded
    tensor never exists.  Order 1 sums its antidiagonals by convolution
    (:func:`_window_sum`); every other order uses the pair matrices: source
    mode n is ``mode_multiply`` by K_n / D_n (:func:`_pair_matrix`, D_n the
    :func:`duplication_counts`), the matrix the ALS sweep's chain builds at
    the same ranks (``completion._leave_one_out``), divided in place.  The
    map-back holds every K_n at once, as the chain does, and applies them
    with :func:`multilinear_product`, in its growth order, so each partial
    result is no larger than the merged core or the source.  On order 1,
    K_0 would be L x r_0 r_1, up to L copies of the embedded matrix.  Equal
    to ``inverse_mdt`` of the reconstruction up to rounding.
    """
    if not (type(core) is np.ndarray and core.dtype == _FLOAT64):
        core = np.asarray(core, dtype=np.float64)
    if core.ndim % 2 or len(factors) != core.ndim:
        raise ValueError(f"an embedded Tucker model has one factor per mode of an even-order "
                         f"core; got a core of shape {core.shape} and {len(factors)} factors")
    factors = [u if type(u) is np.ndarray and u.dtype == _FLOAT64
               else np.asarray(u, dtype=np.float64) for u in factors]
    if core.ndim == 2:
        return _window_sum(core, *factors)
    kernels = []
    for u_tau, u_window in zip(factors[::2], factors[1::2]):
        kernel = _pair_matrix(u_tau, u_window)
        # a factor itself is K at a window of 1, where every count is 1
        if kernel is not u_tau and kernel is not u_window:
            kernel /= duplication_counts(kernel.shape[0], u_tau.shape[0])[:, None]
        kernels.append(kernel)
    merged = core.reshape(tuple(core.shape[n] * core.shape[n + 1]
                                for n in range(0, core.ndim, 2)))
    return multilinear_product(merged, kernels)
