"""A damped-sinusoid test signal and a linear-interpolation reference fill."""

from __future__ import annotations

import math

import numpy as np

from .core import _integer, _seed, as_mask


def damped_sine(length: int, *, amplitude: float = 1.0, decay: float = 0.01,
                omega: float = 0.5, phase: float = 0.0, noise: float = 0.0,
                seed=0) -> np.ndarray:
    """amplitude * exp(-decay * t) * sin(omega * t + phase) at t = 0 .. length - 1.

    Gaussian noise of std ``noise`` is added, drawn from a generator seeded
    with ``seed``.  A noiseless damped sinusoid delay-embeds to a Hankel
    matrix of rank two, the low-rank structure the recovery relies on.  A
    ``length`` that is not an integer is a ValueError, not rounded up, and
    so is a ``seed`` that is not a nonnegative integer, noise or not, and a
    negative, NaN or infinite ``noise``.
    """
    length = _integer(length, "length")
    seed = _seed(seed)
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if not 0 <= noise < math.inf:  # NaN fails the test too
        raise ValueError(f"noise std must be nonnegative and finite, got {noise}")
    t = np.arange(length, dtype=np.float64)
    v = amplitude * np.exp(-decay * t) * np.sin(omega * t + phase)
    if noise == 0.0:
        return v
    return v + noise * np.random.default_rng(seed).standard_normal(v.shape)


def linear_interpolate_gaps(values: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Fill missing samples by linear interpolation between observed neighbors.

    The flat reference the delay-embedded recovery is compared against; ends
    extend the nearest observed value.
    """
    values = np.asarray(values, dtype=np.float64)
    observed = as_mask(observed)
    if values.ndim != 1 or values.shape != observed.shape:
        raise ValueError(f"expected matching vectors, got {values.shape} and {observed.shape}")
    if not observed.any():
        raise ValueError("cannot interpolate: no observed samples")
    idx = np.flatnonzero(observed)
    out = values.copy()
    missing = np.flatnonzero(~observed)
    out[missing] = np.interp(missing, idx, values[idx])
    return out
