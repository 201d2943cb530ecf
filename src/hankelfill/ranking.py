"""Rank-increment driver: grows multilinear ranks mode by mode.

Fitting starts every mode at the first entry of its rank sequence (rank one
under the default doubling sequences).  Whenever the cost plateaus, the
mode whose projected residual is largest grows to the next entry of its
sequence, the factor is padded with fresh orthonormal columns and the core
with zeros (so the reconstruction is untouched), and sweeping resumes from
that warm start.  The schedule is an immutable value: the model's ranks are
the only record of how far each sequence has advanced.  The run stops when
the cost drops below the noise threshold, the sequences are exhausted, or
the sweep budget runs out.

A run holds one full-size buffer, the fill, and each sweep's imputation
writes the next fill into the one the ALS sweep has just read.  It imputes
in one of two places.  In input space (given the windows), it maps the
model back to the input, fills the input's missing entries with that, and
copies the filled input's embedding into the fill; the cost
F = ||H(y) - X||^2 is summed on input-sized arrays, of which the run holds
two and each sweep makes one, and no masked pass runs
(:func:`_input_space_imputation`).  In embedded space (the paper's fill,
given embedded data), it reconstructs the model into the fill, and one
masked pass over cache-sized blocks sums the masked cost and fills the
reconstruction in place (:func:`_impute`).  A plateau ranks the modes from
the fill, through the ALS sweep's projection chain, and rebuilds nothing.

This is the package's only sweep loop.  A fixed-rank fit is a schedule of
one-element sequences: it has nothing to grow, so a plateau ends it with
status ``schedule_exhausted``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import check_shape, mode_multiply
from .completion import CostTrace, TuckerModel, _leave_one_out, als_sweep, cost, init_model
from .embedding import (duplication_counts, embedded_observed_energy, embedded_shape,
                        inverse_mdt_tucker, mdt)
from .linalg import complete_orthonormal_basis

# Terminal statuses of a rank-increment run.
CONVERGED = "converged"            # cost reached epsilon
SCHEDULE_EXHAUSTED = "schedule_exhausted"  # every sequence at its last entry, epsilon not reached
SWEEP_BUDGET = "sweep_budget"      # max_total_sweeps spent

# Stopping thresholds as fractions of the observed energy, used when the
# caller does not supply absolute values.
DEFAULT_EPSILON_REL = 1e-4
DEFAULT_TOL_REL = 1e-6
DEFAULT_MAX_TOTAL_SWEEPS = 10_000


@dataclass(frozen=True)
class RankSchedule:
    """Per-mode rank sequences, each strictly increasing.

    A fit's progress along them is its model's ranks.
    """

    sequences: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sequences = tuple(tuple(int(r) for r in seq) for seq in self.sequences)
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
    """

    epsilon: float
    tol: float
    max_total_sweeps: int = DEFAULT_MAX_TOTAL_SWEEPS

    def __post_init__(self):
        # NaN never fires; inf ends at the random start or makes every sweep a plateau
        if not (0 <= self.epsilon < math.inf and 0 <= self.tol < math.inf):
            raise ValueError(f"epsilon and tol must be nonnegative and finite, got "
                             f"epsilon={self.epsilon}, tol={self.tol}")
        try:
            sweeps = operator.index(self.max_total_sweeps)
        except TypeError:
            raise ValueError(f"max_total_sweeps must be an integer, got "
                             f"{self.max_total_sweeps!r}") from None
        if sweeps < 1:
            raise ValueError("max_total_sweeps must be >= 1")


def default_stopping_criteria(values: np.ndarray, mask: np.ndarray, taus: Sequence[int],
                              epsilon_rel: float = DEFAULT_EPSILON_REL) -> StoppingCriteria:
    """Thresholds scaled to the observed energy, so they transfer across data scales.

    ``values``/``mask`` are the input before embedding with windows ``taus``;
    the energy is that of the observed part of the embedded tensor (see
    :func:`embedded_observed_energy`).  All-ones windows give the plain
    observed energy of ``values``.  epsilon is ``epsilon_rel`` and tol
    DEFAULT_TOL_REL times that energy, with DEFAULT_MAX_TOTAL_SWEEPS; change
    any of them with ``dataclasses.replace``.  A negative, NaN or infinite
    ``epsilon_rel`` is a ValueError.
    """
    if not 0 <= epsilon_rel < math.inf:
        raise ValueError(f"epsilon_rel must be nonnegative and finite, got {epsilon_rel}")
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


def mode_residuals(z: np.ndarray, model: TuckerModel) -> list[float]:
    """Residual energy visible through every factor except one.

    ``z`` is the fill made from ``model``'s reconstruction x, so z - x is
    the residual whose squared norm is the cost (the masked residual under
    the paper's fill, H(y) - x under the input-space fill);
    value_m = ||(z - x) projected onto all factors but mode m||^2,
    a proxy for how much cost reduction a rank bump on mode m can buy.  With
    orthonormal factors that projection of x is the core times U_m on mode m,
    so x is never built: z runs through the chain of :func:`als_sweep`.  A
    mode of size 1 sees the whole projection, the chain's last prefix less
    the core.
    """
    z = np.asarray(z, dtype=np.float64)
    values = [0.0] * z.ndim

    def score(m, y):
        d = (y - mode_multiply(model.core, model.factors[m], m)).ravel()
        values[m] = float(d @ d)

    d = (_leave_one_out(z, model.factors, score) - model.core).ravel()
    whole = float(d @ d)
    return [whole if j == 1 else v for j, v in zip(z.shape, values)]


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


@dataclass
class RankIncrementResult:
    model: TuckerModel
    cost_trace: CostTrace
    # (sweep index at which the increment fired, mode, new rank)
    rank_history: list[tuple[int, int, int]]
    status: str


# The masked pass walks the tensor in blocks of at most this many elements.
# A block of the reconstruction, of the data's strided view and of the
# scratch difference (256 KiB each in float64), plus its mask, stays in a
# core's L2 cache, so the difference, its cost and the fill reread it from
# cache and not from memory; and the one scratch array of a run stays small.
_BLOCK_ELEMENTS = 2**15


def _blocks(shape: Sequence[int]):
    """Index tuples that tile an array of ``shape``, each block at most _BLOCK_ELEMENTS.

    The trailing axes whose sizes multiply to at most the block stay whole;
    the axis before them is cut into runs, and the axes before that are
    taken one index at a time, so a block of a C-contiguous array is
    contiguous.
    """
    k, inner = len(shape) - 1, 1
    while k > 0 and inner * shape[k] <= _BLOCK_ELEMENTS:
        inner *= shape[k]
        k -= 1
    step = _BLOCK_ELEMENTS // inner
    for lead in itertools.product(*map(range, shape[:k])):
        for start in range(0, shape[k], step):
            yield lead + (slice(start, start + step),)


def _impute(t_h: np.ndarray, q_h: np.ndarray, model: TuckerModel, scratch: np.ndarray,
            out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """The sweep's one masked pass: the fill z = where(q_h, t_h, x) and the masked cost.

    The model's reconstruction x is written into ``out`` (a new array when
    None), then one pass over blocks (see :func:`_blocks`) keeps each block
    of x in the flat ``scratch`` (as long as the largest block), fills the
    block in place, so z is x, and turns the scratch into the block's masked
    difference z - x = where(q_h, t_h - x, 0), whose squared norm it adds to
    the cost.  The cost is the sum over blocks, which only the summation
    order tells from the whole tensor's; the arrays read in the pass are all
    contiguous but the strided t_h and q_h, each once.
    A reconstruction that is the model's own core (every factor a 1x1
    identity) is copied first, so the fill never writes into the model.
    """
    x = model.reconstruct(out=out)
    if np.may_share_memory(x, model.core):
        x = x.copy()
    total = 0.0
    for block in _blocks(x.shape):
        xb = x[block]
        diff = scratch[:xb.size].reshape(xb.shape)
        np.copyto(diff, xb)
        np.copyto(xb, t_h[block], where=q_h[block])
        # z - x: t - x where observed, x - x = +0 elsewhere
        np.subtract(xb, diff, out=diff)
        total += cost(diff)
    return x, total


# The input-space fill maps a model of at most this many embedded entries
# back by reconstructing it into the fill and averaging the duplicates with
# one np.bincount over a run-long int64 source index.  That index is as
# large as the fill, so the bound is set by memory: at 2**15 entries it
# holds 256 KiB, like the masked pass's scratch.  Larger models go through
# inverse_mdt_tucker, which builds nothing embedded-sized.  Speed alone
# would allow more: on one x86_64 core (BLAS on 1 thread) the bincount
# map-back takes 0.13-0.40x inverse_mdt_tucker's time on 1-D signals up to
# 7e4 entries and 0.46-0.84x on 3-channel images up to 5e4, and crosses it
# near 1e5 entries on images (1.3x at 1.2e5).
_BINCOUNT_ELEMENTS = 2**15


def _input_space_imputation(t: np.ndarray, q: np.ndarray, taus: Sequence[int]):
    """The input-space fill of one run, as ``impute(model, out=None) -> (z, F)``.

    ``t`` and ``q`` are the input and its mask, ``taus`` the windows.  Each
    call maps the model's embedded tensor X back, e = H^+ X, fills the input
    y = where(q, t, e) in one input-sized buffer of the run, copies H(y)
    into ``out`` (a new embedded-sized array when None) through one
    :func:`mdt` view of y made here, and returns it with the cost
    F = ||H(y) - X||^2.  The y step is the least-squares fill of that cost
    for a fixed X, since H^T H is the diagonal D of duplication counts; so
    the loop is block-coordinate descent on F, and F never increases.

    F takes no full-size pass: with orthonormal factors ||X||^2 is the
    core's squared norm, and H^T = D H^+, so
    F = sum_observed D (t - e)^2 + (||core||^2 - sum D e^2).  The second
    term is X's squared distance from the Hankel tensors, clamped at zero
    against rounding.  The map-back follows one rule by size: an embedded
    tensor of at most _BINCOUNT_ELEMENTS entries is reconstructed into
    ``out`` and its duplicates averaged by one ``np.bincount`` over its
    source indices; every larger model goes through
    :func:`inverse_mdt_tucker`, which does not reconstruct it.  Besides the
    map-back's own result, a call allocates nothing: the run holds y and D,
    and the fill, free until H(y) goes into it, is the call's scratch.
    """
    shape = embedded_shape(t.shape, taus)
    weights = np.ones(())
    for length, tau in zip(t.shape, shape[::2]):
        weights = np.multiply.outer(weights, duplication_counts(length, tau))
    weights = weights.ravel()
    y = np.where(q, t, 0.0)
    y_h = mdt(y, taus)
    y = y.reshape(-1)
    missing = ~q.ravel()
    source = None
    if math.prod(shape) <= _BINCOUNT_ELEMENTS:
        source = mdt(np.arange(y.size).reshape(t.shape), taus).ravel()

    def impute(model: TuckerModel, out: np.ndarray | None = None):
        if out is None:
            out = np.empty(shape)
        # sums = H^T X = D e; the map-back returns one of the two, and the
        # other goes into the head of the fill (no smaller than the input)
        head = out.reshape(-1)[:y.size]
        if source is None:
            e = inverse_mdt_tucker(model.core, model.factors).reshape(-1)
            sums = np.multiply(weights, e, out=head)
        else:
            sums = np.bincount(source, model.reconstruct(out=out).reshape(-1),
                               minlength=y.size)
            e = np.divide(sums, weights, out=head)
        np.copyto(y, e, where=missing)
        core = model.core.reshape(-1)
        off_hankel = max(float(core @ core - e @ sums), 0.0)
        r = np.subtract(y, e, out=sums)  # t - e where observed, e - e = +0 elsewhere
        np.square(r, out=r)
        value = float(r @ weights) + off_hankel
        np.copyto(out, y_h)
        return out, value

    return impute


def complete_with_rank_increment(t: np.ndarray, q: np.ndarray,
                                 schedule: RankSchedule,
                                 criteria: StoppingCriteria,
                                 seed=0, taus: Sequence[int] | None = None
                                 ) -> RankIncrementResult:
    """Complete a tensor by Tucker fitting in embedded space with automatic rank growth.

    Without ``taus``, ``t`` and ``q`` are the embedded data and mask, and
    each sweep imputes them in embedded space (the paper's fill, see
    :func:`_impute`): the cost is the masked cost.  With ``taus``, ``t`` and
    ``q`` are the input and its mask, the model fits H(t) (``mdt`` with
    windows ``taus``), and each sweep imputes the input (see
    :func:`_input_space_imputation`): the cost is F = ||H(y) - X||^2, which
    also counts the disagreement of the model's windows on the missing
    entries.  Either way ``schedule`` covers the embedded modes.

    Each sweep imputes the missing entries from the current model and runs
    one :func:`als_sweep`; when two consecutive costs differ by at most
    ``criteria.tol``, one mode's rank is advanced (see
    :func:`select_increment_mode`) and the model is padded in place of a cold
    restart.  Stops as soon as the cost is <= ``criteria.epsilon``,
    returning status ``converged``; running out of rank headroom or sweeps
    gives ``schedule_exhausted`` / ``sweep_budget`` instead of an error.  A
    q with no observed entry, or a random start whose cost overflows
    float64, is a ValueError; all-zero observed data are fitted exactly by
    the zero model, returned at sweep 0.

    The cost trace spans the whole run and is monotonically non-increasing,
    including across increments (padding preserves the reconstruction).
    """
    t = np.asarray(t, dtype=np.float64)
    q = np.asarray(q, dtype=bool)
    if t.shape != q.shape:
        raise ValueError(f"data shape {t.shape} differs from mask shape {q.shape}")
    shape = t.shape if taus is None else embedded_shape(t.shape, taus)
    if schedule.order != len(shape):
        raise ValueError(f"schedule covers {schedule.order} modes, tensor has {len(shape)}")
    for m, seq in enumerate(schedule.sequences):
        if seq[-1] > shape[m]:
            raise ValueError(f"mode {m} sequence tops out at {seq[-1]} but the mode "
                             f"has size {shape[m]}")
    if not q.any():
        raise ValueError("the mask observes no entry: there is nothing to fit")

    model = init_model(tuple(seq[0] for seq in schedule.sequences), shape, seed)
    if taus is None:
        impute = functools.partial(_impute, t, q,
                                   scratch=np.empty(min(_BLOCK_ELEMENTS, t.size)))
        zero = not t.any()
    else:
        impute = _input_space_imputation(t, q, taus)
        zero = not t[q].any()
    if zero:
        model = TuckerModel(np.zeros_like(model.core), model.factors)
    with np.errstate(over="ignore", invalid="ignore"):
        z, f_before = impute(model)
    if not math.isfinite(f_before):  # the cost never increases: this covers every sweep
        raise ValueError("the cost of the random start overflows float64; "
                         "rescale the data")
    trace: CostTrace = [(0, f_before)]
    history: list[tuple[int, int, int]] = []
    if f_before <= criteria.epsilon:
        return RankIncrementResult(model, trace, history, CONVERGED)

    status = SWEEP_BUDGET
    pads = 0
    for sweep in range(1, criteria.max_total_sweeps + 1):
        model = als_sweep(z, model)
        # The sweep has read the fill for the last time: the next fill goes
        # into it, so it is the run's one full-size buffer.
        z, f_after = impute(model, out=z)
        trace.append((sweep, f_after))
        if f_after <= criteria.epsilon:
            status = CONVERGED
            break
        if abs(f_after - f_before) <= criteria.tol:
            if not _growable(schedule, model.ranks):
                status = SCHEDULE_EXHAUSTED
                break
            mode = select_increment_mode(mode_residuals(z, model), schedule, model.ranks)
            new_rank = next(k for k in schedule.sequences[mode] if k > model.ranks[mode])
            pads += 1
            model = pad_model(model, mode, new_rank, seed=(seed, pads))
            history.append((sweep, mode, new_rank))
        # Padding leaves the reconstruction (hence the cost) unchanged, so the
        # post-pad reference cost equals f_after either way.
        f_before = f_after
    return RankIncrementResult(model, trace, history, status)
