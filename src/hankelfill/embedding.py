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
Duplication matrices are never materialized: everything is index arithmetic,
so the memory cost is the embedded tensor itself and nothing more.  A Tucker
model of an embedded tensor maps back without being reconstructed at all
(:func:`inverse_mdt_tucker`).

tau_n = 1 disables embedding on mode n (the pair becomes (1, I_n)).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Shape, check_shape, multilinear_product


def embedded_shape(shape: Sequence[int], taus: Sequence[int]) -> Shape:
    """The order-2N shape (tau_0, I_0 - tau_0 + 1, ...) that :func:`mdt` produces.

    Checks one window per mode, each in [1, I_n].  The windows are the even
    entries of the result and I_n = tau_n + (I_n - tau_n + 1) - 1, so the
    embedded shape alone fixes the inverse transform.
    """
    shape = check_shape(shape)
    taus = tuple(int(t) for t in taus)
    if len(taus) != len(shape):
        raise ValueError(f"need one window per mode: got {len(taus)} windows "
                         f"for order-{len(shape)} shape {shape}")
    embedded = []
    for n, (tau, size) in enumerate(zip(taus, shape)):
        if not 1 <= tau <= size:
            raise ValueError(f"window tau={tau} out of range [1, {size}] on mode {n}")
        embedded.extend((tau, size - tau + 1))
    return tuple(embedded)


def duplication_counts(length: int, tau: int) -> np.ndarray:
    """How many sliding windows cover each of the L positions.

    Equals tau away from the margins and ramps down to 1 at both ends;
    these are the diagonal entries of the duplication map's Gram matrix.
    """
    if not 1 <= tau <= length:
        raise ValueError(f"window tau={tau} out of range [1, {length}]")
    i = np.arange(1, length + 1, dtype=np.int64)
    return np.minimum.reduce([i, i[::-1],
                              np.full(length, tau, dtype=np.int64),
                              np.full(length, length - tau + 1, dtype=np.int64)])


def mdt(x: np.ndarray, taus: Sequence[int]) -> np.ndarray:
    """Multi-way delay embedding of an order-N tensor into an order-2N tensor.

    Embedded modes interleave as (tau_0, window_0, tau_1, window_1, ...); see
    :func:`embedded_shape`.  :func:`inverse_mdt` needs nothing but the result.
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
    return np.ascontiguousarray(w.transpose(perm))


def mdt_mask(q: np.ndarray, taus: Sequence[int]) -> np.ndarray:
    """Delay embedding of an observation mask; flags are duplicated verbatim."""
    q = np.asarray(q)
    if q.dtype != np.bool_:
        q = q != 0
    return mdt(q, taus)


def embedded_observed_energy(values: np.ndarray, mask: np.ndarray,
                             taus: Sequence[int]) -> float:
    """Squared Frobenius norm of the observed part of the embedded tensor.

    Computed without embedding: each source entry shows up once per covering
    window, so its energy is weighted by the product of per-mode duplication
    counts.  Used to scale stopping thresholds to the data.
    """
    lengths = np.shape(values)
    windows = embedded_shape(lengths, taus)[::2]
    w = np.where(np.asarray(mask, dtype=bool), np.asarray(values, dtype=np.float64), 0.0) ** 2
    for mode, (length, tau) in enumerate(zip(lengths, windows)):
        counts = duplication_counts(length, tau).astype(np.float64)
        shape = [1] * w.ndim
        shape[mode] = -1
        w = w * counts.reshape(shape)
    return float(w.sum())


def inverse_mdt(xh: np.ndarray) -> np.ndarray:
    """Map an order-2N embedded tensor back to its order-N source shape.

    Mode pair n of ``xh`` has shape (tau_n, I_n - tau_n + 1), which gives the
    window and I_n.  Exact left inverse of :func:`mdt`; a non-Hankel input
    collapses to the per-mode weighted average of duplicates (the separable
    pseudo-inverse).  The result never shares memory with ``xh``.
    """
    xh = np.asarray(xh, dtype=np.float64)
    if xh.ndim % 2:
        raise ValueError(f"an embedded tensor has one (tau, window) pair of modes per "
                         f"source mode, so even order; got shape {xh.shape}")
    check_shape(xh.shape)
    out = xh
    # Collapse (tau, window) pairs back to full axes, last pair first, each on
    # the C-order (left, tau, window, right) view that mode_multiply also
    # uses.  A tau = 1 pair is a single window: collapsing it is a reshape.
    for axis in range(xh.ndim - 2, -1, -2):
        tau, width = out.shape[axis], out.shape[axis + 1]
        length = tau + width - 1
        head, tail = out.shape[:axis], out.shape[axis + 2:]
        if tau > 1:
            pairs = out.reshape(math.prod(head), tau, width, math.prod(tail))
            acc = np.zeros((pairs.shape[0], length, pairs.shape[3]))
            for a in range(tau):
                acc[:, a:a + width] += pairs[:, a]
            acc /= duplication_counts(length, tau).astype(np.float64)[:, None]
            out = acc
        out = out.reshape(head + (length,) + tail)
    if np.may_share_memory(out, xh):
        out = out.copy()
    return out


def _pair_matrix(u_tau: np.ndarray, u_window: np.ndarray) -> np.ndarray:
    """K[i, (r, s)] = sum over a + b = i of u_tau[a, r] * u_window[b, s], over counts[i].

    The factor pair of one embedded (tau, window) mode pair, collapsed onto
    the source mode of length I = tau + window - 1 the way :func:`inverse_mdt`
    collapses the embedded tensor; the columns run over (r, s) in C order.
    Row i of the sum is ``u_tau[::-1].T @ padded[i:i + tau]`` with u_window
    padded by tau - 1 zero rows on each side: one matmul over a sliding
    window view.
    """
    tau, r_tau = u_tau.shape
    width, r_window = u_window.shape
    length = tau + width - 1
    padded = np.zeros((width + 2 * (tau - 1), r_window))
    padded[tau - 1:tau - 1 + width] = u_window
    windows = sliding_window_view(padded, tau, axis=0).transpose(0, 2, 1)
    k = np.matmul(u_tau[::-1].T, windows).reshape(length, r_tau * r_window)
    return k / duplication_counts(length, tau).astype(np.float64)[:, None]


def inverse_mdt_tucker(core: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """``inverse_mdt`` of the Tucker tensor ``core x_0 U_0 ... x_{2N-1} U_{2N-1}``, unbuilt.

    Averaging the duplicates of a mode pair is linear in each factor pair, so
    H^+(G x U) = G' x_n K_n: G' is the core with each (r_2n, r_2n+1) pair of
    modes merged (a C-order reshape) and K_n the pair matrix of factors 2n
    and 2n+1 over the duplication counts.  The embedded tensor never exists:
    the largest arrays are the source-sized output and the K_n, each
    I_n x (r_2n * r_2n+1), which outgrow the embedded tensor only when the
    ranks near the window sizes on a model of few modes.  Equal to
    ``inverse_mdt`` of the reconstruction up to rounding.
    """
    core = np.asarray(core, dtype=np.float64)
    if core.ndim % 2 or len(factors) != core.ndim:
        raise ValueError(f"an embedded Tucker model has one factor per mode of an even-order "
                         f"core; got a core of shape {core.shape} and {len(factors)} factors")
    factors = [np.asarray(u, dtype=np.float64) for u in factors]
    merged = core.reshape(tuple(core.shape[n] * core.shape[n + 1]
                                for n in range(0, core.ndim, 2)))
    return multilinear_product(merged, [_pair_matrix(factors[n], factors[n + 1])
                                        for n in range(0, core.ndim, 2)])
