"""Shared fixtures builders and oracles used across the test modules."""

import dataclasses
import tracemalloc

import numpy as np

from hankelfill import (RankSchedule, StoppingCriteria, TuckerModel, als_sweep,
                        complete_with_rank_increment, duplication_counts,
                        embedded_observed_energy, init_model, mode_multiply, mode_residuals,
                        multilinear_product, unfold)
from hankelfill.core import is_unit_factor
from hankelfill.linalg import complete_orthonormal_basis, leading_singular_vectors
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


def plain_loop(t, q, schedule, criteria, seed=0):
    """Plain Tucker completion of ``t``: the sweep loop with windows of 1.

    The embedded tensor is then ``t`` with a mode of size 1 before each of
    its modes, so embedded mode 2n + 1 is mode n of ``t``.  ``schedule``
    covers the modes of ``t``; the result's model and rank history are
    mapped back onto them.
    """
    embedded = RankSchedule(tuple(s for seq in schedule.sequences for s in ((1,), seq)))
    result = complete_with_rank_increment(t, q, (1,) * np.ndim(t), embedded, criteria,
                                          seed=seed)
    history = [(sweep, mode // 2, rank) for sweep, mode, rank in result.rank_history]
    return dataclasses.replace(result, model=plain_model(result.model), rank_history=history)


def fixed_rank_fit(t, q, ranks, criteria, seed):
    """Fixed-rank completion: the sweep loop on one-element rank sequences."""
    return plain_loop(t, q, RankSchedule(tuple((r,) for r in ranks)), criteria, seed)


def embedded_leave_one_out(z, factors, visit):
    """The projection chain over the embedded tensor z itself, the oracle of the package's.

    For each mode m of size above 1, ``visit(m, prefix x_{n>m} U_n^T)`` sees
    the projection onto every factor but mode m's, where
    ``prefix = z x_{n<m} U_n^T`` with the factors as earlier visits left
    them; then the prefix takes in ``factors[m]``.  Returns the last
    prefix.  1x1 identity factors are skipped.
    """
    if z.shape != tuple(u.shape[0] for u in factors):
        raise ValueError(f"tensor shape {z.shape} does not match model's "
                         f"factor rows {tuple(u.shape[0] for u in factors)}")
    prefix = z
    for m in range(z.ndim):
        if z.shape[m] != 1:
            y = prefix
            for n in range(m + 1, z.ndim):
                if not is_unit_factor(factors[n]):
                    y = mode_multiply(y, factors[n].T, n)
            visit(m, y)
        if not is_unit_factor(factors[m]):
            prefix = mode_multiply(prefix, factors[m].T, m)
    return prefix


def embedded_als_sweep(z, model, spectra=None):
    """One ALS cycle on a complete tensor z through :func:`embedded_leave_one_out`.

    The oracle of ``als_sweep(y, model)``, with z = H(y) built.  ``spectra``,
    if a list, receives (singular values, kept count) of each update's
    unfolding.
    """
    z = np.asarray(z, dtype=np.float64)
    factors = list(model.factors)

    def update(m, y):
        flat = unfold(y, m)
        rank = model.ranks[m]
        r_eff = min(rank, flat.shape[1])
        if spectra is not None:
            spectra.append((np.linalg.svd(flat, compute_uv=False), r_eff))
        factors[m] = complete_orthonormal_basis(leading_singular_vectors(flat, r_eff),
                                                np.eye(flat.shape[0], rank - r_eff))

    core = embedded_leave_one_out(z, factors, update)
    return TuckerModel(core, factors)


def embedded_mode_residuals(z, model):
    """``mode_residuals`` over the embedded tensor z through :func:`embedded_leave_one_out`."""
    z = np.asarray(z, dtype=np.float64)
    values = [0.0] * z.ndim

    def score(m, y):
        d = (y - mode_multiply(model.core, model.factors[m], m)).ravel()
        values[m] = float(d @ d)

    d = (embedded_leave_one_out(z, model.factors, score) - model.core).ravel()
    whole = float(d @ d)
    return [whole if j == 1 else v for j, v in zip(z.shape, values)]


def windows_of_one(model):
    """A model of a plain tensor as the model of its embedding at windows of 1.

    Each mode n becomes the pair (1, I_n), with a 1x1 identity factor on the
    window mode; :func:`plain_model` undoes it.
    """
    factors = [u for v in model.factors for u in (np.ones((1, 1)), v)]
    return TuckerModel(model.core.reshape(tuple(r for v in model.ranks for r in (1, v))),
                       factors)


def plain_model(model):
    """The plain-tensor model of a windows-of-1 embedded model."""
    return TuckerModel(model.core.reshape(model.ranks[1::2]), model.factors[1::2])


def plain_als_sweep(t, model):
    """``als_sweep`` of a plain tensor ``t`` and its model, run at windows of 1."""
    return plain_model(als_sweep(t, windows_of_one(model)))


def plain_mode_residuals(t, model):
    """``mode_residuals`` of a plain tensor ``t`` and its model, one per mode of ``t``."""
    return mode_residuals(t, windows_of_one(model))[1::2]


def traced_peak(run):
    """The first run's result and the least traced peak of two runs.

    A run allocates the same arrays every time, but tracemalloc also counts
    the interpreter's own tables, and now and then one doubles inside the
    window: a string-keyed dict growing to 2**17 slots allocates 1.92 MB,
    the excess one run of a memory test showed in a few dozen suite runs.  A
    table that has just doubled does not double again in the next run, so
    the least peak is the run's own.
    """
    results, peaks = [], []
    for _ in range(2):
        tracemalloc.start()
        try:
            results.append(run())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return results[0], min(peaks)


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
