"""Multi-way delay embedding (Hankelization) and its least-squares inverse.

A window length tau_n per mode turns an order-N tensor of shape
(I_0, ..., I_{N-1}) into an order-2N tensor of shape

    (tau_0, I_0 - tau_0 + 1, ..., tau_{N-1}, I_{N-1} - tau_{N-1} + 1)

whose entry at (a_0, b_0, ..., a_{N-1}, b_{N-1}) is the source entry at
(a_0 + b_0, ..., a_{N-1} + b_{N-1}).  The transform duplicates each source
element once per window that covers it; the inverse averages the duplicates,
which is exactly the Moore-Penrose pseudo-inverse of the duplication map.
Duplication matrices are never materialized: everything is index arithmetic,
so the memory cost is the embedded tensor itself and nothing more.

tau_n = 1 disables embedding on mode n (the pair becomes (1, I_n)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Shape, check_shape


@dataclass(frozen=True)
class EmbeddingSpec:
    """Bookkeeping for one embedding: input shape, windows, derived shape."""

    input_shape: Shape
    taus: tuple[int, ...]
    embedded_shape: Shape = field(init=False)

    def __post_init__(self):
        shape = check_shape(self.input_shape)
        taus = tuple(int(t) for t in self.taus)
        if len(taus) != len(shape):
            raise ValueError(f"need one window per mode: got {len(taus)} windows "
                             f"for order-{len(shape)} shape {shape}")
        for n, (tau, size) in enumerate(zip(taus, shape)):
            if not 1 <= tau <= size:
                raise ValueError(f"window tau={tau} out of range [1, {size}] on mode {n}")
        embedded = []
        for tau, size in zip(taus, shape):
            embedded.extend((tau, size - tau + 1))
        object.__setattr__(self, "input_shape", shape)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "embedded_shape", tuple(embedded))

    @property
    def order(self) -> int:
        return len(self.input_shape)

    def embedded_element_count(self) -> int:
        """prod tau_n * (I_n - tau_n + 1); the data-volume expansion of the embedding."""
        return int(np.prod(self.embedded_shape, dtype=np.int64))


def delay_embed_vector(v: np.ndarray, tau: int) -> np.ndarray:
    """Hankel matrix of a vector: entry (i, j) = v[i + j], shape tau x (L - tau + 1)."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    length = v.shape[0]
    if not 1 <= tau <= length:
        raise ValueError(f"window tau={tau} out of range [1, {length}]")
    return sliding_window_view(v, length - tau + 1).copy()


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


def inverse_delay_embed_vector(h: np.ndarray, length: int, tau: int) -> np.ndarray:
    """Least-squares preimage of a tau x (L - tau + 1) matrix under delay embedding.

    For a true Hankel matrix this is an exact left inverse; for anything else
    each output element is the mean of its duplicated copies, which is the
    pseudo-inverse solution argmin_v ||embed(v) - h||_F.
    """
    h = np.asarray(h, dtype=np.float64)
    if not 1 <= tau <= length:
        raise ValueError(f"window tau={tau} out of range [1, {length}]")
    width = length - tau + 1
    if h.shape != (tau, width):
        raise ValueError(f"matrix shape {h.shape} does not match tau={tau}, L={length} "
                         f"(expected {(tau, width)})")
    out = np.zeros(length)
    for a in range(tau):
        out[a:a + width] += h[a]
    return out / duplication_counts(length, tau)


def mdt(x: np.ndarray, taus: Sequence[int]) -> tuple[np.ndarray, EmbeddingSpec]:
    """Multi-way delay embedding of an order-N tensor into an order-2N tensor.

    Returns the embedded tensor together with the :class:`EmbeddingSpec`
    needed to invert it.  Embedded modes interleave as
    (tau_0, window_0, tau_1, window_1, ...).
    """
    x = np.asarray(x)
    spec = EmbeddingSpec(x.shape, tuple(taus))
    windows = tuple(size - tau + 1 for size, tau in zip(spec.input_shape, spec.taus))
    # sliding_window_view with window (L - tau + 1) yields exactly the
    # (tau_0...tau_{N-1}, B_0...B_{N-1}) block; interleave the two groups.
    w = sliding_window_view(x, windows)
    n = spec.order
    perm = []
    for i in range(n):
        perm.extend((i, n + i))
    return np.ascontiguousarray(w.transpose(perm)), spec


def mdt_mask(q: np.ndarray, taus: Sequence[int]) -> np.ndarray:
    """Delay embedding of an observation mask; flags are duplicated verbatim."""
    q = np.asarray(q)
    if q.dtype != np.bool_:
        q = q != 0
    embedded, _ = mdt(q, taus)
    return embedded


def embedded_observed_energy(values: np.ndarray, mask: np.ndarray,
                             taus: Sequence[int]) -> float:
    """Squared Frobenius norm of the observed part of the embedded tensor.

    Computed without embedding: each source entry shows up once per covering
    window, so its energy is weighted by the product of per-mode duplication
    counts.  Used to scale stopping thresholds to the data.
    """
    spec = EmbeddingSpec(np.asarray(values).shape, tuple(taus))
    w = np.where(np.asarray(mask, dtype=bool), np.asarray(values, dtype=np.float64), 0.0) ** 2
    for mode, (length, tau) in enumerate(zip(spec.input_shape, spec.taus)):
        counts = duplication_counts(length, tau).astype(np.float64)
        shape = [1] * w.ndim
        shape[mode] = -1
        w = w * counts.reshape(shape)
    return float(w.sum())


def inverse_mdt(xh: np.ndarray, spec: EmbeddingSpec) -> np.ndarray:
    """Map an order-2N embedded tensor back to the original order-N shape.

    Exact left inverse of :func:`mdt`; a non-Hankel input collapses to the
    per-mode weighted average of duplicates (the separable pseudo-inverse).
    """
    xh = np.asarray(xh, dtype=np.float64)
    if xh.shape != spec.embedded_shape:
        raise ValueError(f"embedded shape {xh.shape} does not match spec {spec.embedded_shape}")
    out = xh
    # Collapse (tau, window) pairs back to full axes, last mode first so the
    # axis numbering of the pairs still to process stays put.
    for mode in range(spec.order - 1, -1, -1):
        tau = spec.taus[mode]
        length = spec.input_shape[mode]
        width = length - tau + 1
        axis = 2 * mode
        z = np.moveaxis(out, (axis, axis + 1), (0, 1))
        acc = np.zeros((length,) + z.shape[2:])
        for a in range(tau):
            acc[a:a + width] += z[a]
        counts = duplication_counts(length, tau).astype(np.float64)
        acc /= counts.reshape((length,) + (1,) * (acc.ndim - 1))
        out = np.moveaxis(acc, 0, axis)
    return out
