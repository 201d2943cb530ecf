"""Shared fixtures builders and oracles used across the test modules."""

import numpy as np

from hankelfill import (RankSchedule, StoppingCriteria, complete_with_rank_increment,
                        duplication_counts, embedded_observed_energy, init_model,
                        multilinear_product)
from hankelfill.metrics import K1, K2, SIGMA, WINDOW
from hankelfill.ranking import DEFAULT_MAX_TOTAL_SWEEPS


def random_orthonormal(rng, rows, cols):
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q


def planted_tucker(shape, ranks, data_seed):
    """Exact low-multilinear-rank tensor with a known generating model."""
    rng = np.random.default_rng(data_seed)
    factors = [random_orthonormal(rng, j, r) for j, r in zip(shape, ranks)]
    core = rng.standard_normal(tuple(ranks))
    return multilinear_product(core, factors)


def fixed_rank_fit(t, q, ranks, criteria, seed):
    """Fixed-rank completion: the sweep loop on one-element rank sequences."""
    schedule = RankSchedule(tuple((r,) for r in ranks))
    return complete_with_rank_increment(t, q, schedule, criteria, seed=seed)


def relative_criteria(values, mask, taus, epsilon_rel, tol_rel,
                      max_total_sweeps=DEFAULT_MAX_TOTAL_SWEEPS):
    """Stopping thresholds as fractions of the observed embedded energy."""
    energy = embedded_observed_energy(values, mask, taus)
    return StoppingCriteria(epsilon=epsilon_rel * energy, tol=tol_rel * energy,
                            max_total_sweeps=max_total_sweeps)


def masked_cost(t, q, x):
    """The masked cost ||Q*(T - X)||^2, summed over the observed entries only."""
    return float(((t - x)[q] ** 2).sum())


def initial_cost(t, q, ranks, seed):
    """Masked cost of the seeded random start that a fit at these ranks uses."""
    return masked_cost(t, q, init_model(ranks, t.shape, seed).reconstruct())


def random_mask(shape, missing_fraction, seed):
    rng = np.random.default_rng(seed)
    return rng.random(shape) >= missing_fraction


def is_non_increasing(trace, slack=1e-12):
    values = [v for _, v in trace]
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def orthonormality_defect(u):
    r = u.shape[1]
    return float(np.abs(u.T @ u - np.eye(r)).max())


def texture_image(side=64, channels=3):
    """Synthetic recursive texture: sums of 2-D sinusoids, scaled to [0, 255]."""
    hh, ww = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    base = (np.sin(0.35 * hh + 0.55 * ww + 0.4)
            + np.sin(0.9 * hh - 0.25 * ww + 1.1)
            + 0.5 * np.sin(0.15 * hh + 1.4 * ww + 2.0))
    alt = np.sin(0.35 * hh + 0.55 * ww + 1.2) + np.sin(0.9 * hh - 0.25 * ww + 0.2)
    planes = [base, alt, 0.8 * base + 0.3][:channels]
    img = np.stack(planes, axis=2)
    return (img - img.min()) / (img.max() - img.min()) * 255.0


def fold(m, mode, shape):
    """Inverse of ``unfold``: the oracle its layout is checked against."""
    shape = tuple(shape)
    m = np.asarray(m)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for order-{len(shape)} tensor")
    rest = tuple(s for i, s in enumerate(shape) if i != mode)
    expected = (shape[mode], int(np.prod(rest, dtype=np.int64)) if rest else 1)
    if m.ndim != 2 or m.shape != expected:
        raise ValueError(f"fold: matrix shape {m.shape} inconsistent with target {shape} at mode {mode}"
                         f" (expected {expected})")
    return np.moveaxis(np.reshape(m, (shape[mode],) + rest, order="F"), 0, mode)


def delay_embed_vector(v, tau):
    """Hankel matrix of a vector: entry (i, j) = v[i + j], shape tau x (L - tau + 1)."""
    v = np.asarray(v)
    width = v.shape[0] - tau + 1
    return np.array([v[a:a + width] for a in range(tau)])


def inverse_delay_embed_vector(h, length, tau):
    """Mean of the duplicated copies of each of the ``length`` vector entries."""
    width = length - tau + 1
    out = np.zeros(length)
    for a in range(tau):
        out[a:a + width] += h[a]
    return out / duplication_counts(length, tau)


def naive_ssim_map(reference, estimate, peak=255.0):
    """Plain sliding-window SSIM, one window at a time; the test oracle."""
    w = WINDOW
    g = np.exp(-((np.arange(w) - (w - 1) / 2) ** 2) / (2 * SIGMA**2))
    kernel = np.outer(g, g) / np.outer(g, g).sum()
    c1 = (K1 * peak) ** 2
    c2 = (K2 * peak) ** 2
    rows = reference.shape[0] - w + 1
    cols = reference.shape[1] - w + 1
    out = np.empty((rows, cols))
    for i in range(rows):
        for j in range(cols):
            x = reference[i:i + w, j:j + w]
            y = estimate[i:i + w, j:j + w]
            mx = float((kernel * x).sum())
            my = float((kernel * y).sum())
            vx = float((kernel * (x - mx) ** 2).sum())
            vy = float((kernel * (y - my) ** 2).sum())
            cxy = float((kernel * (x - mx) * (y - my)).sum())
            out[i, j] = ((2 * mx * my + c1) * (2 * cxy + c2)
                         / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    return out
