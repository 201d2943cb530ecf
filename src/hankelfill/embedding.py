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
so the memory cost is the embedded tensor itself and nothing more.

tau_n = 1 disables embedding on mode n (the pair becomes (1, I_n)).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Shape, check_shape


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
