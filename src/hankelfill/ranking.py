"""Rank-growth policy: schedules, stopping thresholds, and which mode grows.

Fitting starts every mode at the first entry of its rank sequence (rank one
under the default doubling sequences).  Whenever the cost plateaus, the
mode whose projected residual is largest grows to the next entry of its
sequence (:func:`select_increment_mode`); every mode's residual is one
formula in the energy of the chain's projection onto the other factors
(:func:`mode_residuals`), on either of the chain's routes.  Then the
factor is padded with fresh orthonormal columns and the core with zeros
(:func:`pad_model`, so the reconstruction is untouched), and sweeping
resumes from that warm start.  The schedule is an immutable value: the
model's ranks are the only record of how far each sequence has advanced.
The run stops when the cost drops below the noise threshold, the sequences
are exhausted, or the sweep budget runs out (:class:`StoppingCriteria`).
The sweep loop that applies this policy is
:func:`hankelfill.pipeline.recover`; the size guard that refuses a fit
whose largest array is too large lives here too
(:func:`_checked_largest_array`).  It counts closed forms: per input mode,
what the chain builds for its pair on the route the ranks pick (the pair
embedding, or the Gram route's chain product and the Gram products or
transforms of its windowed Grams' form), then the core, the pair matrices
and their padded window factors, the factor matrices and the input.  It
reads the routes, the forms and every shape the chain makes from the
chain's plans at the start and final ranks (``completion._chain_plan``,
the one home of the route rule, the form rule and the shapes), which the
sweep and a rank event's scoring walk too, and adds the core and the
factor matrices from the ranks.  The forms bound every array of
a fit, because the chain contracts the modes that grow last, and a rank
event's scoring walks the chain on the sweep's routes.  At full ranks the
guard first refuses an embedded tensor above the cap
(:func:`_checked_embedded_count`), the one check that CLI ``embed``, which
writes that tensor, meets.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import _integer, _integers, check_shape
from .completion import TuckerModel, _chain_plan, _leave_one_out
from .embedding import _embeds_nothing, embedded_observed_energy
from .linalg import complete_orthonormal_basis

# Stopping thresholds as fractions of the observed energy, used when the
# caller does not supply absolute values.
DEFAULT_EPSILON_REL = 1e-4
DEFAULT_TOL_REL = 1e-6
DEFAULT_MAX_TOTAL_SWEEPS = 10_000

# The most elements the largest array of a run may hold (1.5 GiB of float64).
_ELEMENT_CAP = 200_000_000


@dataclass(frozen=True)
class RankSchedule:
    """Per-mode rank sequences, each strictly increasing.

    A fit's progress along them is its model's ranks.
    """

    sequences: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self.sequences, Iterable):
            raise ValueError(f"ranks must be integer sequences, got {self.sequences!r}")
        sequences = tuple(_integers(seq, "ranks") for seq in self.sequences)
        for m, seq in enumerate(sequences):
            if not seq:
                raise ValueError(f"mode {m} has an empty rank sequence")
            if any(b <= a for a, b in zip(seq, seq[1:])):
                raise ValueError(f"mode {m} sequence {seq} is not strictly increasing")
        object.__setattr__(self, "sequences", sequences)

    @property
    def order(self) -> int:
        return len(self.sequences)


@dataclass
class StoppingCriteria:
    """Thresholds for the rank-increment loop.

    epsilon: terminal cost threshold (squared Frobenius units).
    tol: plateau detector |f_after - f_before| <= tol triggers an increment.
    Each is a real number, nonnegative and finite in float64, else a
    ValueError, and is stored as a float.
    """

    epsilon: float
    tol: float
    max_total_sweeps: int = DEFAULT_MAX_TOTAL_SWEEPS

    def __post_init__(self):
        # NaN never fires; inf ends at the random start or makes every sweep a plateau
        if not all(isinstance(v, numbers.Real) and 0 <= v <= sys.float_info.max
                   for v in (self.epsilon, self.tol)):
            raise ValueError(f"epsilon and tol must be nonnegative and finite numbers, got "
                             f"epsilon={self.epsilon!r}, tol={self.tol!r}")
        self.epsilon, self.tol = float(self.epsilon), float(self.tol)
        self.max_total_sweeps = _integer(self.max_total_sweeps, "max_total_sweeps")
        if self.max_total_sweeps < 1:
            raise ValueError("max_total_sweeps must be >= 1")


def default_stopping_criteria(values: np.ndarray, mask: np.ndarray, taus: Sequence[int],
                              epsilon_rel: float = DEFAULT_EPSILON_REL) -> StoppingCriteria:
    """Thresholds scaled to the observed energy, so they transfer across data scales.

    ``values``/``mask`` are the input before embedding with windows ``taus``;
    the energy is that of the observed part of the embedded tensor (see
    :func:`embedded_observed_energy`).  All-ones windows give the plain
    observed energy of ``values``.  epsilon is ``epsilon_rel`` and tol
    DEFAULT_TOL_REL times that energy, with DEFAULT_MAX_TOTAL_SWEEPS; change
    any of them with ``dataclasses.replace``.  An ``epsilon_rel`` that is
    not a real number, or negative, NaN or infinite, is a ValueError.
    """
    if not (isinstance(epsilon_rel, numbers.Real) and 0 <= epsilon_rel < math.inf):
        raise ValueError(f"epsilon_rel must be nonnegative and finite, got {epsilon_rel!r}")
    energy = embedded_observed_energy(values, mask, taus)
    return StoppingCriteria(epsilon=epsilon_rel * energy, tol=DEFAULT_TOL_REL * energy)


def default_rank_sequences(embedded_shape: Sequence[int]) -> RankSchedule:
    """Doubling sequences 1, 2, 4, ... capped at each mode size.

    Early increments stay small where the spectrum falls fastest; singleton
    modes get the one-element sequence (1,).
    """
    shape = check_shape(embedded_shape)
    sequences = []
    for j in shape:
        seq = [1]
        while seq[-1] * 2 < j:
            seq.append(seq[-1] * 2)
        if seq[-1] < j:
            seq.append(j)
        sequences.append(tuple(seq))
    return RankSchedule(tuple(sequences))


def mode_residuals(y: np.ndarray, model: TuckerModel) -> list[float]:
    """Residual energy visible through every factor except one.

    ``y`` is the input filled from ``model``'s map-back and ``model`` fits
    its embedding H(y), so H(y) - x, x the model's reconstruction, is the
    residual whose squared norm is the cost;
    value_m = ||(H(y) - x) projected onto all factors but mode m||^2,
    a proxy for how much cost reduction a rank bump on mode m can buy.  y
    runs through the chain of :func:`als_sweep`, on the same routes, which
    builds neither H(y) nor x.  Let p_m be the projection of H(y) onto
    every factor but mode m's, c = U_m^T p_m the chain's last product and
    G the core.  The precondition is orthonormal factors, which every fit
    keeps: then x projects to G times U_m on mode m, and one formula scores
    every mode,
    value_m = ||p_m - G x_m U_m||^2 = ||c - G||^2 + max(||p_m||^2 - ||c||^2, 0),
    with ||p_m||^2 = p_m . p_m on the chain's projection route and the
    trace of the Gram on its Gram route; a mode of size 1, which the chain
    does not visit, has ||p_m|| = ||c||.  The difference cancels two sums
    of the size of ||p_m||^2 and is clamped at zero against that rounding,
    so a value is within 4 sum(J) eps (||H(y)|| + ||G||)^2 of the direct
    difference over H(y), J the embedded shape, not equal to it.
    """
    energies = {}

    def energy(m, p):
        energies[m] = float(np.vdot(p, p))

    def gram_energy(m, g):
        energies[m] = float(np.trace(g))

    c = _leave_one_out(np.asarray(y), model.factors, energy, gram_energy).ravel()
    d = c - model.core.ravel()
    whole, last = float(d @ d), float(c @ c)
    return [whole + max(energies.get(m, last) - last, 0.0) for m in range(model.core.ndim)]


def _checked_embedded_count(shape: Sequence[int]) -> int:
    """Elements of the embedded tensor of ``shape``; a ValueError above _ELEMENT_CAP.

    CLI ``embed`` writes that tensor, and a fit at full ranks holds its
    count in the core, so both meet this refusal, which no choice of ranks
    can lift.
    """
    count = math.prod(shape)
    if count > _ELEMENT_CAP:
        raise ValueError(f"embedded tensor would hold {count} elements (a roughly "
                         f"{math.prod(shape[::2])}x expansion of the input via windows "
                         f"{tuple(shape[::2])}); the cap is {_ELEMENT_CAP}. Reduce the windows.")
    return count


def _checked_largest_array(shape: Sequence[int], ranks: Sequence[int],
                           start: Sequence[int] | None = None) -> int:
    """Elements of the largest array of a fit at ``ranks``; a ValueError above _ELEMENT_CAP.

    ``ranks`` are the fit's final ranks and ``start`` its first ones, the
    final ones by default (a fixed-rank fit).  Closed forms on the embedded
    ``shape``, with L_n = tau_n + W_n - 1, P_n = R_2n R_2n+1 and
    O_n = prod_{j != n} P_j, counted in float64s.  The guard reads the
    routes, the windowed Grams' forms, L_n, P_n, O_n, the FFT lengths n_n
    and the pair embeddings' shapes from the chain's plans at ``ranks``
    and ``start`` (``completion._chain_plan``, built uncached, so a fit's
    own stages still make one plan each), and works out none of them:

    - per input mode n, what the chain (``completion._leave_one_out``)
      builds for its pair.  On the plan's Gram route that is the chain's
      L_n x O_n product T and its copy, L_n O_n, and the windowed Grams'
      arrays.  On their matmul form those are two products of
      tau_n W_n L_n each.  On their FFT form they are n_n x (n_n/2 + 1)
      complex transforms, 2 n_n (n_n/2 + 1) float64s each, and n_n x n_n
      real inverses, fewer; n_n is the least 5-smooth length >= L_n.  At
      n_n = L_n these are no larger than the matmul form's products:
      tau_n W_n = L_n + (tau_n - 1)(W_n - 1), so L_n <= tau_n W_n, and
      2 L_n (L_n/2 + 1) <= tau_n W_n L_n, as (tau_n - 1)(W_n - 1) is at
      least 1, and at least 2 where L_n is even.  A pair that is on the
      FFT form at the final ranks but not at ``start`` may take the matmul
      form at an earlier stage, so both forms are counted for it.  The Gram
      S_n (L_n^2 <= L_n O_n) and the pair's Grams are smaller.  Off the
      route it is the pair embedding (``completion._embed_mode``),
      tau_n W_n O_n: a copy of the chain's product on a windowed pair, and
      on a pair that embeds nothing (``embedding._embeds_nothing``) a view
      of it, which that count covers too, as the product has its size;
    - the core, prod R_m: the chain's last product, a random start's and a
      rank increment's;
    - on order >= 2, the pair matrices K_n (``embedding._pair_matrix``),
      L_n x P_n, which the chain and the map-back build, and, where the
      pair embeds something, the window factor that ``_pair_matrix`` pads
      with tau_n - 1 zero rows on each side, (W_n + 2 tau_n - 2) x R_2n+1,
      which exceeds K_n where R_2n = 1;
    - the factor matrices, J_m x R_m (a random start's Gaussian block and
      the QR that pads a factor);
    - the input, prod L_n: the fill's y, e and scratch array.

    Every other array of a fit is no larger than one of these.  The chain
    contracts the pair matrices that grow their mode last, so before mode
    n's pair its products shrink from the input, then grow up to T, and T
    is no larger than the pair embedding ((tau_n - 1)(W_n - 1) >= 0); a
    visit's products are no larger than the pair embedding, the map-back's
    no larger than the core or the input.  Every walk of the chain, a rank
    event's scoring (``mode_residuals``) as well as the sweep, takes the
    same route and form on the same pair.  The ranks of a run only grow,
    so the forms at the schedule's final ranks bound the earlier ones: a
    pair on the route earlier is on it at the end, and a pair off it
    earlier had O_n < L_n, so its pair embedding was below tau_n W_n L_n.
    The form rule's cost of the matmul form grows with the ranks too, so a
    pair on the FFT form at ``start`` is on it at every stage.  At full
    ranks the core is the embedded tensor's count, which
    :func:`_checked_embedded_count` refuses first, and no form but a pair
    matrix, its padded window factor (there no larger than K_n) or a factor
    matrix exceeds it.  Those three can exceed the embedded tensor.
    """
    if tuple(ranks) == tuple(shape):
        _checked_embedded_count(shape)
    plan = _chain_plan.__wrapped__(tuple(shape), tuple(ranks))
    first = plan if start is None else _chain_plan.__wrapped__(tuple(shape), tuple(start))
    embeddings, routed, kernels, padded = [0], [], [], []
    for n, (step, length) in enumerate(zip(plan.steps, plan.lengths)):
        if step.gram:
            routed.append((length * step.other, "a chain product",
                           f"{length} x {step.other} on input mode {n}"))
            if not first.steps[n].fft:
                routed.append((step.tau * step.width * length, "a Gram product",
                               f"{step.tau} x {step.width} x {length} on input mode {n}"))
            if step.fft:
                columns = step.fft // 2 + 1
                routed.append((2 * step.fft * columns, "a Gram's transform",
                               f"{step.fft} x {columns} complex on input mode {n}"))
        else:
            embeddings.append(math.prod(step.embedded))
        kernels.append((length * step.pair, n, f"{length} x {step.pair} on input mode {n}"))
        if not _embeds_nothing(step.tau, step.width):  # else K_n is a factor as it is
            rows, r = step.width + 2 * step.tau - 2, ranks[2 * n + 1]
            padded.append((rows * r, "a padded window factor", f"{rows} x {r} on input mode {n}"))
    arrays = [(max(embeddings), "a pair embedding", ""), *routed,
              (math.prod(ranks), "a core", " x ".join(map(str, ranks)))]
    factor, m = max((j * r, m) for m, (j, r) in enumerate(zip(shape, ranks)))
    arrays.append((factor, "a factor matrix", f"{shape[m]} x {ranks[m]} on mode {m}"))
    if len(plan.steps) > 1:
        kernel, _, detail = max(kernels)  # ties go to the last mode
        arrays.append((kernel, "a pair matrix", detail))
        if padded:
            arrays.append(max(padded, key=lambda f: f[0]))  # ties go to the first
    arrays.append((math.prod(plan.lengths), "an input-sized array", f"the input, {plan.lengths}"))
    for size, name, detail in arrays:
        if size > _ELEMENT_CAP:
            detail = f" ({detail})" if detail else ""
            raise ValueError(f"a fit at ranks {tuple(ranks)} would build {name} of {size} "
                             f"elements{detail}; the cap is {_ELEMENT_CAP}. Reduce the "
                             f"windows or the ranks.")
    return max(size for size, _, _ in arrays)


def _growable(schedule: RankSchedule, ranks: Sequence[int]) -> list[int]:
    """Modes whose rank is below the end of their sequence."""
    return [m for m, (seq, r) in enumerate(zip(schedule.sequences, ranks)) if r < seq[-1]]


def select_increment_mode(residuals: Sequence[float], schedule: RankSchedule,
                          ranks: Sequence[int]) -> int:
    """Pick the mode to grow at the current ``ranks``: largest residual among growable modes.

    A mode must be below the end of its sequence, and is skipped while its
    current rank already reaches the product of the other modes' ranks (a
    Tucker core cannot use rank beyond that bound, so growing it cannot
    reduce the cost; unchecked, such no-op increments re-trigger the plateau
    detector and cascade one mode to saturation).  If the bound excludes
    every growable mode, as at the all-ones start, plain headroom applies.
    Ties go to the lowest mode index.
    """
    if not len(residuals) == len(ranks) == schedule.order:
        raise ValueError(f"{len(residuals)} residuals and {len(ranks)} ranks "
                         f"for {schedule.order} modes")
    headroom = _growable(schedule, ranks)
    if not headroom:
        raise ValueError("schedule exhausted: every mode is at its final rank")
    total = int(np.prod(ranks, dtype=np.int64))
    eligible = [m for m in headroom if ranks[m] < total // ranks[m]]
    if not eligible:
        eligible = headroom
    best = max(residuals[m] for m in eligible)
    return min(m for m in eligible if residuals[m] == best)


def pad_model(model: TuckerModel, mode: int, new_rank: int, seed) -> TuckerModel:
    """Warm start at a higher rank: extend one factor, zero-pad the core.

    The added factor columns are :func:`complete_orthonormal_basis` of the
    factor by a seeded Gaussian block; the matching core slices are zero, so
    the padded model reconstructs exactly the same tensor as the input model.
    """
    u = model.factors[mode]
    rows, r_old = u.shape
    if not r_old < new_rank <= rows:
        raise ValueError(f"new rank {new_rank} out of range ({r_old}, {rows}] on mode {mode}")
    extra = np.random.default_rng(seed).standard_normal((rows, new_rank - r_old))
    factors = list(model.factors)
    factors[mode] = complete_orthonormal_basis(u, extra)
    pad_shape = list(model.core.shape)
    pad_shape[mode] = new_rank - r_old
    core = np.concatenate([model.core, np.zeros(pad_shape)], axis=mode)
    return TuckerModel(core, factors)
