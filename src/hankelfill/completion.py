"""Tucker completion building blocks: model, masked cost, imputation, ALS sweep.

A fit alternates two steps until its cost F = ||H(y) - X||^2 stops moving:

1. impute: fill the input's missing entries from the model's map-back,
   y = where(q, t, H^+ X), the least-squares fill of F for a fixed model;
2. one ALS cycle on H(y): per mode, project onto the other factors, take
   leading singular vectors of the unfolding, then refresh the core.

Each step solves its subproblem globally, so F never increases; there is
no step size to tune.  :func:`hankelfill.pipeline.recover`
drives these steps.  The mask enters only the fill, and F, summed over
every entry, also counts how far the windows disagree on a missing entry;
with windows of 1 it is the masked cost.  The ALS sweep and the mode
ranking read y itself through one projection chain that embeds at most one
mode pair at a time (:func:`_leave_one_out`), so no embedded-sized array
is ever built.  The chain's plan (:func:`_chain_plan`) is the one home
of its route rule and shapes: made once per embedded shape and ranks, it
fixes each pair's route, the order of the contractions and the shapes, so
every walk at those ranks, a rank stage's sweeps and the rank event that
ends it, takes the same route on each pair, and the size guard
(``ranking._checked_largest_array``) reads its forms from the plan at a
fit's final ranks.  A windowed pair whose other modes' rank pairs hold at
least its mode's length L embeds nothing, and the sweep takes its two
factor updates, the ranking the two projections' energies, from that
mode's L x L Gram (the chain's Gram route), the way Hankel-structured SSA
codes take the trajectory matrix's Gram; elsewhere the ranking reads each
projection's energy off the projection itself, so it scores every mode by
one formula.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (_integers, as_mask, check_shape, is_unit_factor, mode_multiply,
                   multilinear_product, unfold)
from .embedding import _pair_matrix, duplication_weights, inverse_mdt_tucker
from .linalg import (_in_range, _top_eigenvectors, complete_orthonormal_basis,
                     leading_singular_vectors)

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
    """Masked cost ||Q*(T - X)||^2 from the masked residual r (zero where unobserved).

    Unused in the package; kept while ``perfbench/tracing.py`` traces it by name.
    """
    flat = np.ravel(r)
    return float(flat @ flat)


def auxiliary_fill(t: np.ndarray, q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Observed entries from t, missing entries from the model reconstruction x.

    A new array; the sweep loop fills the input in place, which is this
    fill when every window is 1 (see :func:`_input_space_imputation`).
    Unused in the package; kept while ``perfbench/tracing.py`` traces it by name.
    """
    t, q, x = np.asarray(t), as_mask(q), np.asarray(x)
    if t.shape != q.shape or t.shape != x.shape:
        raise ValueError(f"auxiliary_fill: shapes differ: data {t.shape}, "
                         f"mask {q.shape}, model {x.shape}")
    return np.where(q, t, x)


def init_model(ranks: Sequence[int], shape: Sequence[int], seed) -> TuckerModel:
    """Seeded random start: orthonormalized Gaussian factors, Gaussian core.

    Each factor is :func:`complete_orthonormal_basis` of an empty basis by a
    Gaussian block.  Singleton modes get a fixed 1x1 identity factor (they
    are never updated by the sweep either) and draw nothing.  A rank that
    is not an integer is a ValueError, not truncated.
    """
    shape = check_shape(shape)
    ranks = _integers(ranks, "ranks")
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


def _embed_mode(t: np.ndarray, mode: int, tau: int, width: int) -> np.ndarray:
    """C-order copy of the C-contiguous t with one mode delay-embedded: (left, tau, width, right).

    t is viewed through its shape as (left, L, right), L = tau + width - 1
    its length on ``mode``; entry (l, a, b, r) of the result is
    t[l, a + b, r], as :func:`hankelfill.embedding.mdt` embeds a mode.
    """
    left, right = math.prod(t.shape[:mode]), math.prod(t.shape[mode + 1:])
    step = right * t.itemsize
    windows = np.ndarray((left, tau, width, right), t.dtype, t, 0,
                         ((tau + width - 1) * step, step, step, t.itemsize))
    return windows.copy()


def _windowed_gram(s: np.ndarray, u: np.ndarray, count: int) -> np.ndarray:
    """G[a, a'] = sum_{b, b'} (u u^T)[b, b'] s[a + b, a' + b'], for a, a' < ``count``.

    ``s`` is the C-contiguous L x L Gram T T^T of an input mode's chain
    matrix T, and ``u`` the k x r factor of one mode of its pair, with
    L = count + k - 1.  G is the Gram A A^T of the other mode's unfolding A
    of the pair embedding projected onto u.  u u^T is never formed:
    N = u (u^T V), V the strided (count, k, L) view V[a, b] = s[a + b], then
    G[a, a'] sums N[a, b', a' + b'] over b' through a strided view; each
    product takes count k L r multiply-adds.
    """
    rows = np.ndarray((count, u.shape[0], s.shape[0]), s.dtype, s, 0,
                      (s.strides[0], *s.strides))
    n = u @ (u.T @ rows)
    step, width, item = n.strides
    return np.ndarray((count, count, u.shape[0]), n.dtype, n, 0,
                      (step, item, width + item)).sum(axis=2)


class _PairStep(NamedTuple):
    """What the chain does on one input mode's pair, at a plan's ranks (:func:`_chain_plan`)."""

    tau: int
    width: int
    contract: tuple[int, ...]  # the input modes whose pair matrices the run takes in, in order
    gram: bool                 # the Gram route
    left: int                  # prod_{j < n} R_2j R_2j+1: T's row blocks on the Gram route
    pair: int                  # P_n = R_2n R_2n+1, the columns of the pair matrix K_n
    other: int                 # O_n = prod_{j != n} P_j: T's columns on the Gram route
    embedded: tuple[int, ...]  # the pair embedding's C-order shape, off the Gram route
    shrinks: bool              # P_n <= L_n: the prefix of the later runs takes in K_n


class _ChainPlan(NamedTuple):
    """The projection chain's routes, contraction orders and shapes at one set of ranks."""

    lengths: tuple[int, ...]  # the input shape, L_n = tau_n + W_n - 1
    steps: tuple[_PairStep, ...]
    ranks: tuple[int, ...]    # the last product's shape


@functools.lru_cache(maxsize=128)
def _chain_plan(shape: tuple[int, ...], ranks: tuple[int, ...]) -> _ChainPlan:
    """The chain's plan at the embedded ``shape`` and ``ranks``, worked out once per pair of them.

    Per input mode n: its route, the other input modes whose pair matrices
    K_j its run contracts, in order, and the shapes it builds.  The route
    rule, here alone: the pair takes the Gram route when tau_n > 1,
    W_n > 1 and O_n >= L_n, O_n = prod_{j != n} R_2j R_2j+1 the other
    modes' rank pairs.  A K_j keeps or shrinks its mode when
    R_2j R_2j+1 <= L_j: those run first, in mode order, the ones of modes
    j < n as the prefix that the later runs share.  The K_j that grow
    their mode run last, in every run, so each run's products shrink, then
    grow.  A rank stage of a fit, its sweeps and the rank event that ends
    it, reads one plan; the size guard (``ranking._checked_largest_array``)
    reads an uncached one (``__wrapped__``) at a fit's final ranks.
    """
    order = len(shape) // 2
    lengths = tuple(tau + width - 1 for tau, width in zip(shape[::2], shape[1::2]))
    pairs = [a * b for a, b in zip(ranks[::2], ranks[1::2])]
    growing = [j for j in range(order) if pairs[j] > lengths[j]]
    steps = []
    for n, (tau, width, length) in enumerate(zip(shape[::2], shape[1::2], lengths)):
        other = math.prod(pairs[:n] + pairs[n + 1:])
        shrinking = [j for j in range(n + 1, order) if j not in growing]
        steps.append(_PairStep(tau, width, tuple(shrinking + [j for j in growing if j != n]),
                               tau > 1 and width > 1 and other >= length,
                               math.prod(pairs[:n]), pairs[n], other,
                               ranks[:2 * n] + (tau, width) + ranks[2 * n + 2:],
                               n not in growing))
    return _ChainPlan(lengths, tuple(steps), ranks)


def _leave_one_out(y: np.ndarray, factors: list[np.ndarray], visit, visit_gram) -> np.ndarray:
    """Project H(y) onto every factor but mode m's, for each embedded mode m of size above 1.

    ``y`` is the input and ``factors`` the 2N factors of a model of its
    delay embedding H(y), whose rows give the windows (as in
    :func:`hankelfill.embedding.inverse_mdt_tucker`).  ``visit(m, p)`` sees
    each projection p, in the embedded order-2N layout, with the factors of
    modes before m as earlier visits left them and the others as given;
    then the chain takes in ``factors[m]``.  Returns H(y) projected onto
    every factor, the last pair's last product.

    H(y) is never built.  The walk follows the plan of the factors' shapes
    (:func:`_chain_plan`).  Input mode n's run contracts every other input
    mode j with its pair matrix K_j (:func:`_pair_matrix`), with the factors
    the visits made for j < n and the given ones for j > n, in the plan's
    order, so none of its products outgrows the input or the copy that
    follows them: mode n embedded (:func:`_embed_mode`), the pair
    embedding, on which its two embedded modes are visited, 2n then 2n + 1.
    The update order and the C-order layout are those of the same chain
    over H(y); the sums run in another order.  1x1 identity factors are
    skipped, so at windows of 1, and on an order-1 input, every product is
    the one that chain makes, to the bit.

    The Gram route: a pair whose run ends in an L_n x O_n matrix T (mode n
    by the other modes' rank pairs) and that the plan sends on this route
    (``_PairStep.gram``) builds no pair embedding.  T, divided by 2^e under
    the range rule (``linalg._in_range``), gives S = T T^T, and
    ``visit_gram(m, g, e)`` sees, for m = 2n then 2n + 1, the Gram g of the
    projection's mode-m unfolding divided by 4^e, to rounding
    (:func:`_windowed_gram` of S by the other mode's factor, 2n's as its
    visit left it); a visitor that needs the projection's squared norm, the
    trace of g, takes 4^e back.  Its new arrays are T's copy, S (L_n^2) and
    the Gram's tau_n W_n L_n products, none larger than the pair embedding,
    tau_n W_n O_n.  On the last input mode, the return is T contracted with
    the pair matrix of the visited factors.  Other pairs (windows of 1, a
    window of the whole mode, O_n < L_n) go as above.  So every walk, the
    sweep's and the mode ranking's, takes the plan's routes.
    """
    order = y.ndim
    if len(factors) != 2 * order:
        raise ValueError(f"an order-{order} input needs 2 x {order} factors, got {len(factors)}")
    plan = _chain_plan(tuple([u.shape[0] for u in factors]), tuple([u.shape[1] for u in factors]))
    if y.shape != plan.lengths:
        raise ValueError(f"input shape {y.shape} does not match the model's windows: "
                         f"factor rows {tuple(u.shape[0] for u in factors)}")
    prefix = np.ascontiguousarray(y, dtype=np.float64)
    kernels = [None] * order  # pair matrices, of the given factors until a run updates them
    for n, step in enumerate(plan.steps):
        t = prefix
        for j in step.contract:
            if kernels[j] is None:
                kernels[j] = _pair_matrix(factors[2 * j], factors[2 * j + 1])
            if not is_unit_factor(kernels[j]):
                t = mode_multiply(t, kernels[j].T, j)
        if step.gram:
            length = plan.lengths[n]
            matrix = np.moveaxis(t.reshape(step.left, length, -1), 1, 0)
            matrix, power = _in_range(matrix.reshape(length, -1))
            s = matrix @ matrix.T
            del matrix  # T's copy goes before the Gram products are made
            visit_gram(2 * n, _windowed_gram(s, factors[2 * n + 1], step.tau), power)
            visit_gram(2 * n + 1, _windowed_gram(s, factors[2 * n], step.width), power)
        else:
            z = _embed_mode(t, n, step.tau, step.width).reshape(step.embedded)
            if step.tau != 1:
                u_window = factors[2 * n + 1]
                visit(2 * n, z if is_unit_factor(u_window)
                      else mode_multiply(z, u_window.T, 2 * n + 1))
            if not is_unit_factor(factors[2 * n]):
                z = mode_multiply(z, factors[2 * n].T, 2 * n)
            if step.width != 1:
                visit(2 * n + 1, z)
        if n + 1 < order:
            kernels[n] = _pair_matrix(factors[2 * n], factors[2 * n + 1])
            if step.shrinks and not is_unit_factor(kernels[n]):
                prefix = mode_multiply(prefix, kernels[n].T, n)
        elif step.gram:
            z = mode_multiply(t, _pair_matrix(factors[2 * n], factors[2 * n + 1]).T, n)
            z = z.reshape(plan.ranks)
        elif not is_unit_factor(factors[2 * n + 1]):
            z = mode_multiply(z, factors[2 * n + 1].T, 2 * n + 1)
    return z


def als_sweep(y: np.ndarray, model: TuckerModel) -> TuckerModel:
    """One ALS cycle on the delay embedding H(y) of a complete input y.

    ``model`` fits H(y); its factor rows give the windows.  Every factor is
    updated once, then the core.  Mode m's update projects H(y) onto all
    other (already updated) factors and keeps the top-R_m left singular
    vectors of the mode-m unfolding (:func:`leading_singular_vectors`, which
    completes them where R_m exceeds the projected width); modes of size 1
    keep their identity factor.  The residual ||H(y) - reconstruction||^2
    never increases.  The projections come from y through one chain
    (:func:`_leave_one_out`), whose last product is the core; the embedded
    tensor is never built.  A windowed pair on the chain's Gram route
    (:func:`_chain_plan`) builds no projection either: its two updates
    take the top-R_m eigenvectors of the Gram the chain forms from its
    input mode's L_n x L_n Gram, the eigensolve of
    :func:`leading_singular_vectors` on a wide unfolding.
    """
    factors = list(model.factors)

    def update(m, p):
        factors[m] = leading_singular_vectors(unfold(p, m), model.ranks[m])

    def update_from_gram(m, g, power):
        factors[m] = _top_eigenvectors(g, model.ranks[m])

    core = _leave_one_out(np.asarray(y), factors, update, update_from_gram)
    return TuckerModel(core, factors)


def _input_space_imputation(t: np.ndarray, q: np.ndarray, taus: Sequence[int]):
    """The fill of one run, as ``impute(model) -> (y, F, e)``.

    ``t`` and ``q`` are the input and its mask, ``taus`` the windows.  Each
    call maps the model's embedded tensor X back, e = H^+ X, fills the input
    y = where(q, t, e) in one input-sized buffer of the run and returns it,
    with the cost F = ||H(y) - X||^2 and e in the input's shape; the ALS
    sweep reads y, not H(y).  The y step is the least-squares fill of that
    cost for a fixed X, since H^T H is the diagonal D of duplication counts;
    so the loop is block-coordinate descent on F, and F never increases.

    F takes no embedded-sized pass: with orthonormal factors ||X||^2 is the
    core's squared norm, and H^T = D H^+, so
    F = sum_observed D (t - e)^2 + (||core||^2 - sum D e^2).  The second
    term is X's squared distance from the Hankel tensors, clamped at zero
    against rounding.  At windows of 1, H is a reshape and every X is
    Hankel, so the term is zero and F is the masked cost, to the rounding of
    its own sum rather than of ||X||^2.  The map-back is
    :func:`inverse_mdt_tucker`, which does not reconstruct the model.
    Besides the map-back's own arrays, e among them, a call allocates
    nothing: the run holds y, D and one input-sized scratch array.
    """
    weights = duplication_weights(t.shape, taus).ravel()
    y = np.where(q, t, 0.0)
    flat = y.reshape(-1)
    sums = np.empty(y.size)
    missing = ~q.ravel()
    plain = all(tau == 1 for tau in taus)

    def impute(model: TuckerModel):
        # e is the map-back's own array; sums = H^T X = D e
        e = inverse_mdt_tucker(model.core, model.factors).reshape(-1)
        np.multiply(weights, e, out=sums)
        np.copyto(flat, e, where=missing)
        off_hankel = 0.0
        if not plain:
            core = model.core.reshape(-1)
            off_hankel = max(float(core @ core - e @ sums), 0.0)
        r = np.subtract(flat, e, out=sums)  # t - e where observed, e - e = +0 elsewhere
        np.square(r, out=r)
        value = float(r @ weights) + off_hankel
        return y, value, e.reshape(t.shape)

    return impute
