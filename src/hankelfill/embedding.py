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

tau_n = 1 disables embedding on mode n (the pair becomes (1, I_n)).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Shape, check_shape, mode_multiply


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
    counts = np.minimum(i, i[::-1])
    return np.minimum(counts, min(tau, length - tau + 1), out=counts)


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

    A read-only view, as from :func:`mdt`, of ``q`` or of ``q != 0``.
    """
    q = np.asarray(q)
    if q.dtype != np.bool_:
        q = q != 0
    return mdt(q, taus)


def embedded_observed_energy(values: np.ndarray, mask: np.ndarray,
                             taus: Sequence[int]) -> float:
    """Squared Frobenius norm of the observed part of the embedded tensor.

    Computed without embedding: each source entry shows up once per covering
    window, so its energy is weighted by the product of per-mode duplication
    counts.  Used to scale stopping thresholds to the data.  Finite data
    whose energy overflows float64 (magnitudes near 1e154 and up) are a
    ValueError that asks for rescaled data.
    """
    lengths = np.shape(values)
    windows = embedded_shape(lengths, taus)[::2]
    observed = np.where(np.asarray(mask, dtype=bool), np.asarray(values, dtype=np.float64), 0.0)
    with np.errstate(over="ignore"):
        w = observed ** 2
        for mode, (length, tau) in enumerate(zip(lengths, windows)):
            counts = duplication_counts(length, tau).astype(np.float64)
            shape = [1] * w.ndim
            shape[mode] = -1
            w = w * counts.reshape(shape)
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


def _window_sum(t: np.ndarray, mode: int, u_tau: np.ndarray, u_window: np.ndarray) -> np.ndarray:
    """Collapse mode ``mode`` of ``t``, a merged (r, s) rank pair, onto its source mode.

    Mode ``mode`` runs over (r, s) in C order.  The result is ``t`` with the
    pair's embedded modes expanded by ``u_tau`` and ``u_window`` and then
    averaged back as :func:`inverse_mdt` averages them, without the
    expansion: u_window is contracted into s first, giving
    y[.., r, b, ..]; then each window offset a adds
    sum_r u_tau[a, r] y[.., r, b, ..] at source index a + b, one GEMM per
    a, and the sums are divided by the duplication counts.  Besides the
    source-sized result this holds y and one GEMM's output.
    """
    tau, r_tau = u_tau.shape
    width, r_window = u_window.shape
    length = tau + width - 1
    head, tail = t.shape[:mode], t.shape[mode + 1:]
    left, right = math.prod(head), math.prod(tail)
    y = mode_multiply(t.reshape(left, r_tau, r_window, right), u_window, 2)
    y = y.reshape(left, r_tau, width * right)
    acc = np.zeros((left, length * right))
    term = np.empty((left, width * right))
    for a in range(tau):
        np.matmul(u_tau[a], y, out=term)
        acc[:, a * right:(a + width) * right] += term
    acc = acc.reshape(left, length, right)
    acc /= duplication_counts(length, tau).astype(np.float64)[:, None]
    return acc.reshape(head + (length,) + tail)


def inverse_mdt_tucker(core: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """``inverse_mdt`` of the Tucker tensor ``core x_0 U_0 ... x_{2N-1} U_{2N-1}``, unbuilt.

    Averaging the duplicates of a mode pair is linear in each factor pair, so
    the map-back acts on the core with each (r_2n, r_2n+1) pair of modes
    merged (a C-order reshape), one source mode at a time
    (:func:`_window_sum`); the embedded tensor never exists.  The pairs are
    applied in growth order, as :func:`multilinear_product` applies factors.
    Each array a step holds is no larger than the embedded tensor; the
    largest is the partial result with U_2n+1 contracted in.  Equal to
    ``inverse_mdt`` of the reconstruction up to rounding.
    """
    core = np.asarray(core, dtype=np.float64)
    if core.ndim % 2 or len(factors) != core.ndim:
        raise ValueError(f"an embedded Tucker model has one factor per mode of an even-order "
                         f"core; got a core of shape {core.shape} and {len(factors)} factors")
    factors = [np.asarray(u, dtype=np.float64) for u in factors]
    pairs = list(zip(factors[::2], factors[1::2]))
    out = core.reshape(tuple(core.shape[n] * core.shape[n + 1]
                             for n in range(0, core.ndim, 2)))
    lengths = [u_tau.shape[0] + u_window.shape[0] - 1 for u_tau, u_window in pairs]
    for n in sorted(range(out.ndim), key=lambda n: (lengths[n] / out.shape[n], -n)):
        out = _window_sum(out, n, *pairs[n])
    return out
