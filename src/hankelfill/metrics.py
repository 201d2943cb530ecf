"""Reconstruction quality metrics: PSNR, SNR and structural similarity.

SSIM uses the usual settings of Wang et al. (2004): an 11x11 Gaussian window
of std 1.5, K1 = 0.01 and K2 = 0.03; only the peak value is an argument.
"""

from __future__ import annotations

import numpy as np

WINDOW = 11
SIGMA = 1.5
K1 = 0.01
K2 = 0.03


def _gaussian_window() -> np.ndarray:
    half = (WINDOW - 1) / 2.0
    g = np.exp(-((np.arange(WINDOW) - half) ** 2) / (2.0 * SIGMA**2))
    k = np.outer(g, g)
    return k / k.sum()


_KERNEL = _gaussian_window()


def _check_pair(reference: np.ndarray, estimate: np.ndarray, op: str):
    reference = np.asarray(reference, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if reference.shape != estimate.shape:
        raise ValueError(f"{op}: shape mismatch {reference.shape} vs {estimate.shape}")
    return reference, estimate


def psnr(reference: np.ndarray, estimate: np.ndarray, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the inputs are identical."""
    reference, estimate = _check_pair(reference, estimate, "psnr")
    if not 0 < peak < np.inf:
        raise ValueError(f"peak must be positive and finite, got {peak}")
    mse = float(np.mean((reference - estimate) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(peak * peak / mse)


def snr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Signal-to-noise ratio in dB against the reference energy."""
    reference, estimate = _check_pair(reference, estimate, "snr")
    signal = float(np.vdot(reference, reference).real)
    if signal == 0.0:
        raise ValueError("snr: reference is identically zero")
    noise = float(np.vdot(reference - estimate, reference - estimate).real)
    if noise == 0.0:
        return float("inf")
    return 10.0 * np.log10(signal / noise)


def _local_mean(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # direct windowed correlation over the valid region; exact summation
    w = kernel.shape[0]
    rows = img.shape[0] - w + 1
    cols = img.shape[1] - w + 1
    out = np.zeros((rows, cols))
    for a in range(w):
        for b in range(w):
            out += kernel[a, b] * img[a:a + rows, b:b + cols]
    return out


def ssim_map(reference: np.ndarray, estimate: np.ndarray,
             peak: float = 255.0) -> tuple[np.ndarray, float]:
    """SSIM over every position where the window fits, plus its mean.

    Returns ``(map, score)`` where the map covers the valid region
    (H - 10) x (W - 10) of the 11x11 window and score is its mean, in [-1, 1].
    ``peak`` is the data's dynamic range, as in :func:`psnr`.
    """
    reference, estimate = _check_pair(reference, estimate, "ssim")
    if reference.ndim != 2:
        raise ValueError(f"ssim expects 2-D slices, got shape {reference.shape}")
    if not 0 < peak < np.inf:
        raise ValueError(f"peak must be positive and finite, got {peak}")
    if min(reference.shape) < WINDOW:
        raise ValueError(f"image {reference.shape} smaller than the {WINDOW}x{WINDOW} window")
    mu_x = _local_mean(reference, _KERNEL)
    mu_y = _local_mean(estimate, _KERNEL)
    var_x = _local_mean(reference * reference, _KERNEL) - mu_x * mu_x
    var_y = _local_mean(estimate * estimate, _KERNEL) - mu_y * mu_y
    cov = _local_mean(reference * estimate, _KERNEL) - mu_x * mu_y
    c1 = (K1 * peak) ** 2
    c2 = (K2 * peak) ** 2
    smap = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)
            / ((mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)))
    return smap, float(smap.mean())


def mean_ssim(reference: np.ndarray, estimate: np.ndarray, slice_mode: int = 2,
              peak: float = 255.0) -> float:
    """Mean SSIM over all 2-D slices taken along one mode of a 3-way tensor.

    2-D inputs are scored as a single slice.  For color images pass the
    channel mode; for volumes/time series the stacking mode.
    """
    reference, estimate = _check_pair(reference, estimate, "mean_ssim")
    if reference.ndim == 2:
        return ssim_map(reference, estimate, peak)[1]
    if reference.ndim != 3:
        raise ValueError(f"mean_ssim expects a 2-D or 3-way tensor, got order {reference.ndim}")
    if not 0 <= slice_mode < 3:
        raise ValueError(f"slice_mode {slice_mode} out of range for a 3-way tensor")
    ref_slices = np.moveaxis(reference, slice_mode, 0)
    est_slices = np.moveaxis(estimate, slice_mode, 0)
    scores = [ssim_map(r, e, peak)[1] for r, e in zip(ref_slices, est_slices)]
    return float(np.mean(scores))
