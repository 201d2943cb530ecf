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
map-back and sweeps on z = H(y), its embedding; the cost is ||z - x||^2
over every entry, which also counts how far the windows disagree on a
missing entry.  With windows of 1, z = where(q, t, x), the fill
:func:`auxiliary_fill` returns, and the cost is the masked cost.  z is the
run's one full-size buffer; the ALS sweep and the mode ranking read it
through one projection chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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

    def reconstruct(self, out: np.ndarray | None = None) -> np.ndarray:
        """The full tensor core x_0 U_0 ... x_{N-1} U_{N-1}, written into ``out`` if given.

        Bit-equal with and without ``out`` (see :func:`multilinear_product`).
        """
        return multilinear_product(self.core, self.factors, out=out)


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


def _leave_one_out(t: np.ndarray, factors: list[np.ndarray], visit) -> np.ndarray:
    """Project t onto every factor but mode m's, for each mode m of size above 1.

    ``visit(m, prefix x_{n>m} U_n^T)`` sees each projection, where
    ``prefix = t x_{n<m} U_n^T`` with the factors as earlier visits left them;
    then the prefix takes in ``factors[m]``.  Returns the last prefix, t
    projected onto every factor.  Each product runs as a per-mode chain from t
    would run it, so the values are the same to the bit; 1x1 identity factors
    are skipped.  With every rank below its mode size, only the first
    projection's first product and its prefix update read a full-size tensor.
    """
    if t.shape != tuple(u.shape[0] for u in factors):
        raise ValueError(f"tensor shape {t.shape} does not match model's "
                         f"factor rows {tuple(u.shape[0] for u in factors)}")
    prefix = t
    for m in range(t.ndim):
        if t.shape[m] != 1:
            y = prefix
            for n in range(m + 1, t.ndim):
                if not is_unit_factor(factors[n]):
                    y = mode_multiply(y, factors[n].T, n)
            visit(m, y)
        if not is_unit_factor(factors[m]):
            prefix = mode_multiply(prefix, factors[m].T, m)
    return prefix


def als_sweep(z: np.ndarray, model: TuckerModel) -> TuckerModel:
    """One ALS cycle on a complete tensor z: every factor once, then the core.

    Mode m's update projects z onto all other (already updated) factors and
    keeps the top-R_m left singular vectors of the mode-m unfolding, completed
    by identity columns where R_m exceeds the projected width; modes of size 1
    keep their identity factor.  The residual ||z - reconstruction||^2
    never increases.  The projections share their prefixes
    (:func:`_leave_one_out`), and the last prefix is the core.
    """
    z = np.asarray(z, dtype=np.float64)
    factors = list(model.factors)

    def update(m, y):
        flat = unfold(y, m)
        # A rank above the projected width (possible right after an increment,
        # while the other modes are still small) adds columns orthogonal to the
        # data; complete the basis deterministically, the energy is unchanged.
        rank = model.ranks[m]
        r_eff = min(rank, flat.shape[1])
        factors[m] = complete_orthonormal_basis(leading_singular_vectors(flat, r_eff),
                                                np.eye(flat.shape[0], rank - r_eff))

    core = _leave_one_out(z, factors, update)
    return TuckerModel(core, factors)
