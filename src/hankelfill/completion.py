"""Tucker completion building blocks: model, masked cost, imputation, ALS sweep.

A fit alternates two steps until its cost stops moving:

1. impute: overwrite the missing entries with the current model's values,
   which majorizes the cost by a surrogate that touches it at the current
   iterate;
2. one ALS cycle on the imputed (complete) tensor: per mode, project onto
   the other factors, take leading singular vectors of the unfolding, then
   refresh the core.

Each ALS sub-step solves its subproblem globally, so the cost is
monotonically non-increasing; there is no step size to tune.  The loop that
drives these steps is :func:`hankelfill.ranking.complete_with_rank_increment`;
a fixed-rank fit is a rank schedule of one-element sequences.  The mask
enters only the imputation, which fills the input y from the model's
map-back and sweeps on H(y), its embedding; the cost is ||H(y) - x||^2
over every entry, which also counts how far the windows disagree on a
missing entry.  With windows of 1, H(y) = where(q, t, x), the fill
:func:`auxiliary_fill` returns, and the cost is the masked cost.  The ALS
sweep and the mode ranking read y itself through one projection chain
that embeds one mode pair at a time (:func:`_leave_one_out`), so no
embedded-sized array is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import check_shape, is_unit_factor, mode_multiply, multilinear_product, unfold
from .linalg import complete_orthonormal_basis, leading_singular_vectors

# (sweep index, squared-Frobenius cost) per outer iteration
CostTrace = list[tuple[int, float]]


@dataclass
class TuckerModel:
    """Core tensor plus one orthonormal factor matrix per mode.

    Arrays are shared, never copied; treat a model as immutable and build a
    new one instead of mutating in place.
    """

    core: np.ndarray
    factors: list[np.ndarray]

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.shape

    def reconstruct(self) -> np.ndarray:
        """The full tensor core x_0 U_0 ... x_{N-1} U_{N-1} (see :func:`multilinear_product`)."""
        return multilinear_product(self.core, self.factors)


def cost(r: np.ndarray) -> float:
    """Masked cost ||Q*(T - X)||^2 from the masked residual r (zero where unobserved)."""
    flat = np.ravel(r)
    return float(flat @ flat)


def auxiliary_fill(t: np.ndarray, q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Observed entries from t, missing entries from the model reconstruction x.

    A new array; the sweep loop fills the input in place, which is this
    fill when every window is 1 (see ``ranking._input_space_imputation``).
    """
    t = np.asarray(t)
    x = np.asarray(x)
    if t.shape != q.shape or t.shape != x.shape:
        raise ValueError(f"auxiliary_fill: shapes differ: data {t.shape}, "
                         f"mask {np.asarray(q).shape}, model {x.shape}")
    return np.where(np.asarray(q, dtype=bool), t, x)


def init_model(ranks: Sequence[int], shape: Sequence[int], seed) -> TuckerModel:
    """Seeded random start: orthonormalized Gaussian factors, Gaussian core.

    Each factor is :func:`complete_orthonormal_basis` of an empty basis by a
    Gaussian block.  Singleton modes get a fixed 1x1 identity factor (they
    are never updated by the sweep either) and draw nothing.
    """
    shape = check_shape(shape)
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(shape):
        raise ValueError(f"need one rank per mode: {len(ranks)} ranks for shape {shape}")
    for m, (r, j) in enumerate(zip(ranks, shape)):
        if not 1 <= r <= j:
            raise ValueError(f"rank {r} out of range [1, {j}] on mode {m}")
    rng = np.random.default_rng(seed)
    factors = []
    for j, r in zip(shape, ranks):
        if j == 1:
            factors.append(np.ones((1, 1)))
            continue
        factors.append(complete_orthonormal_basis(np.empty((j, 0)),
                                                  rng.standard_normal((j, r))))
    core = rng.standard_normal(ranks)
    return TuckerModel(core, factors)


def _pair_matrix(u_tau: np.ndarray, u_window: np.ndarray) -> np.ndarray:
    """K[i, (r, s)] = sum_{a + b = i} u_tau[a, r] u_window[b, s], (r, s) in C order.

    Contracting an input mode with K^T is contracting its delay embedding's
    mode pair with both factors.  With a 1x1 identity on either side, K is
    the other factor itself, so a window of 1 changes no product.  Else one
    matmul over the sliding windows of u_window padded by tau - 1 zeros on
    each side, where window i, offset c holds u_window[i + c - tau + 1].
    """
    if is_unit_factor(u_tau):
        return u_window
    if is_unit_factor(u_window):
        return u_tau
    tau, r_tau = u_tau.shape
    width, r_window = u_window.shape
    padded = np.zeros((width + 2 * (tau - 1), r_window))
    padded[tau - 1:tau - 1 + width] = u_window
    k = sliding_window_view(padded, tau, axis=0) @ u_tau[::-1]
    return k.transpose(0, 2, 1).reshape(tau + width - 1, r_tau * r_window)


def _embed_mode(t: np.ndarray, left: int, tau: int, width: int) -> np.ndarray:
    """C-order copy of the C-contiguous t with one mode delay-embedded: (left, tau, width, right).

    t is viewed as (left, L, right) with L = tau + width - 1; entry
    (l, a, b, r) of the result is t[l, a + b, r], as
    :func:`hankelfill.embedding.mdt` embeds a mode.
    """
    right = t.size // (left * (tau + width - 1))
    step = right * t.itemsize
    windows = np.ndarray((left, tau, width, right), t.dtype, t, 0,
                         ((tau + width - 1) * step, step, step, t.itemsize))
    return windows.copy()


def _leave_one_out(y: np.ndarray, factors: list[np.ndarray], visit) -> np.ndarray:
    """Project H(y) onto every factor but mode m's, for each embedded mode m of size above 1.

    ``y`` is the input and ``factors`` the 2N factors of a model of its
    delay embedding H(y), whose rows give the windows (as in
    :func:`hankelfill.embedding.inverse_mdt_tucker`).  ``visit(m, p)`` sees
    each projection p, in the embedded order-2N layout, with the factors of
    modes before m as earlier visits left them and the others as given;
    then the chain takes in ``factors[m]``.  Returns H(y) projected onto
    every factor, the last pair's last product.

    H(y) is never built.  Input mode n's projection contracts every other
    input mode j with its pair matrix K_j (:func:`_pair_matrix`): modes
    j < n as a prefix shared by the later modes, with the factors the visits
    made, modes j > n with the given ones.  Only then is mode n embedded
    (:func:`_embed_mode`), and its two embedded modes are visited, 2n then
    2n + 1, on that copy: the largest array the chain holds.  The update
    order and the C-order layout are those of the same chain over H(y);
    the sums run in another order.  1x1 identity factors are skipped, so at
    windows of 1, and on an order-1 input, every product is the one that
    chain makes, to the bit.
    """
    order = y.ndim
    if len(factors) != 2 * order:
        raise ValueError(f"an order-{order} input needs 2 x {order} factors, got {len(factors)}")
    prefix = np.ascontiguousarray(y, dtype=np.float64)
    kernels = [None] * order  # the pair matrices of the given factors, made on first use
    left = 1
    for n in range(order):
        u_tau, u_window = factors[2 * n], factors[2 * n + 1]
        tau, width = u_tau.shape[0], u_window.shape[0]
        if y.shape[n] != tau + width - 1:
            raise ValueError(f"input shape {y.shape} does not match the model's windows: "
                             f"factor rows {tuple(u.shape[0] for u in factors)}")
        t = prefix
        for j in range(n + 1, order):
            if kernels[j] is None:
                kernels[j] = _pair_matrix(factors[2 * j], factors[2 * j + 1])
            if not is_unit_factor(kernels[j]):
                t = mode_multiply(t, kernels[j].T, j)
        z = _embed_mode(t, left, tau, width).reshape(
            [u.shape[1] for u in factors[:2 * n]] + [tau, width]
            + [u.shape[1] for u in factors[2 * n + 2:]])
        if tau != 1:
            visit(2 * n, z if is_unit_factor(u_window)
                  else mode_multiply(z, u_window.T, 2 * n + 1))
        if not is_unit_factor(factors[2 * n]):
            z = mode_multiply(z, factors[2 * n].T, 2 * n)
        if width != 1:
            visit(2 * n + 1, z)
        if n + 1 < order:
            kernel = _pair_matrix(factors[2 * n], factors[2 * n + 1])
            if not is_unit_factor(kernel):
                prefix = mode_multiply(prefix, kernel.T, n)
            left *= prefix.shape[n]
        elif not is_unit_factor(factors[2 * n + 1]):
            z = mode_multiply(z, factors[2 * n + 1].T, 2 * n + 1)
    return z


def als_sweep(y: np.ndarray, model: TuckerModel) -> TuckerModel:
    """One ALS cycle on the delay embedding H(y) of a complete input y.

    ``model`` fits H(y); its factor rows give the windows.  Every factor is
    updated once, then the core.  Mode m's update projects H(y) onto all
    other (already updated) factors and keeps the top-R_m left singular
    vectors of the mode-m unfolding, completed by identity columns where R_m
    exceeds the projected width; modes of size 1 keep their identity
    factor.  The residual ||H(y) - reconstruction||^2 never increases.  The
    projections come from y through one chain (:func:`_leave_one_out`),
    whose last product is the core; the embedded tensor is never built.
    """
    factors = list(model.factors)

    def update(m, p):
        flat = unfold(p, m)
        # A rank above the projected width (possible right after an increment,
        # while the other modes are still small) adds columns orthogonal to the
        # data; complete the basis deterministically, the energy is unchanged.
        rank = model.ranks[m]
        r_eff = min(rank, flat.shape[1])
        factors[m] = complete_orthonormal_basis(leading_singular_vectors(flat, r_eff),
                                                np.eye(flat.shape[0], rank - r_eff))

    core = _leave_one_out(np.asarray(y), factors, update)
    return TuckerModel(core, factors)
