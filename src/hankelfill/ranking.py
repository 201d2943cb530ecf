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

The loop fits the embedding H(t) of an input t with mask q, given one
window per input mode, and imputes the input, not the embedded tensor: each
sweep maps the model X back, e = H^+ X, fills the input's missing entries
with it, y = where(q, t, e), and the next ALS sweep fits X to H(y) reading
y itself.  The cost is F = ||H(y) - X||^2, summed on input-sized arrays
(:func:`_input_space_imputation`).  The fill is input-sized, the ALS sweep
and a plateau's mode ranking embed one mode pair at a time, and the
map-back builds nothing embedded either, so a run holds no embedded-sized
buffer.  Plain Tucker completion of a tensor is the case of
windows of 1, where H is a reshape and the fill is where(q, t, X).

This is the package's only sweep loop.  A fixed-rank fit is a schedule of
one-element sequences: it has nothing to grow, so a plateau ends it with
status ``schedule_exhausted``.  Every run, direct or through
:func:`hankelfill.pipeline.recover`, returns one :class:`RecoveryReport`,
which also names a run of fully missing slices that no window bridges.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import check_shape, mode_multiply
from .completion import CostTrace, TuckerModel, _leave_one_out, als_sweep, init_model
from .embedding import (duplication_weights, embedded_observed_energy, embedded_shape,
                        inverse_mdt_tucker)
from .linalg import complete_orthonormal_basis
from .masks import unbridged_gap

# Terminal statuses of a rank-increment run.
CONVERGED = "converged"            # cost reached epsilon
SCHEDULE_EXHAUSTED = "schedule_exhausted"  # every sequence at its last entry, epsilon not reached
SWEEP_BUDGET = "sweep_budget"      # max_total_sweeps spent

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
        try:
            sequences = tuple(tuple(operator.index(r) for r in seq) for seq in self.sequences)
        except TypeError:
            raise ValueError(f"ranks must be integer sequences, got {self.sequences!r}") from None
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


def mode_residuals(y: np.ndarray, model: TuckerModel) -> list[float]:
    """Residual energy visible through every factor except one.

    ``y`` is the input filled from ``model``'s map-back and ``model`` fits
    its embedding H(y), so H(y) - x, x the model's reconstruction, is the
    residual whose squared norm is the cost;
    value_m = ||(H(y) - x) projected onto all factors but mode m||^2,
    a proxy for how much cost reduction a rank bump on mode m can buy.  With
    orthonormal factors that projection of x is the core times U_m on mode m,
    so x is never built: y runs through the chain of :func:`als_sweep`, which
    builds no H(y) either.  A mode of size 1 sees the whole projection, the
    chain's last product less the core.
    """
    values = [0.0] * model.core.ndim

    def score(m, p):
        d = (p - mode_multiply(model.core, model.factors[m], m)).ravel()
        values[m] = float(d @ d)

    d = (_leave_one_out(np.asarray(y), model.factors, score) - model.core).ravel()
    whole = float(d @ d)
    return [whole if u.shape[0] == 1 else v for u, v in zip(model.factors, values)]


def _chain_arrays(shape: Sequence[int], ranks: Sequence[int]):
    """(elements, name, detail) of each array a fit's chain builds besides its pair embeddings.

    In the order of ``completion._leave_one_out`` on the embedded ``shape``,
    with L_n = tau_n + W_n - 1 and P_n = R_2n R_2n+1.  For each input mode n
    but the last, the products that contract the later input modes j > n
    with their pair matrices K_j, L_j x P_j, each product from the previous
    one, the first from the prefix, and every K_j made as mode 0 first uses
    it; then K_n and the next prefix, with modes 0..n contracted.  A mode
    of length 1 takes no product.  The chain's other arrays (the products by
    mode n's factors, the core) are no larger than mode n's pair embedding.
    """
    lengths = [a + b - 1 for a, b in zip(shape[::2], shape[1::2])]
    pairs = [a * b for a, b in zip(ranks[::2], ranks[1::2])]

    def kernel(n):
        return (lengths[n] * pairs[n], "a pair matrix",
                f"{lengths[n]} x {pairs[n]} on input mode {n}")

    prefix = list(lengths)
    for n in range(len(pairs) - 1):
        dims = list(prefix)
        for j in range(n + 1, len(pairs)):
            if n == 0:
                yield kernel(j)
            if lengths[j] > 1:
                dims[j] = pairs[j]
                yield (math.prod(dims), "an intermediate product",
                       f"shape {tuple(dims)}, projecting onto input mode {n}")
        yield kernel(n)
        if lengths[n] > 1:
            prefix[n] = pairs[n]
            yield (math.prod(prefix), "an intermediate product",
                   f"shape {tuple(prefix)}, the prefix of input modes 0..{n}")


def _checked_largest_array(shape: Sequence[int], ranks: Sequence[int], fit: bool = True) -> int:
    """Elements of the largest array of a fit at ``ranks``; a ValueError above _ELEMENT_CAP.

    The sweep's chain builds pair embeddings (``completion._embed_mode``)
    with every other input mode contracted: max_n tau_n W_n prod_{j != n} R_2j R_2j+1
    on the embedded ``shape``, which at full ranks is the embedded tensor's
    count.  ``fit=False`` counts these alone, which at full ranks is the
    embedded tensor that CLI ``embed`` writes.  A fit also builds its factor
    matrices, J_m x R_m (a random start's Gaussian block and the QR that
    pads a factor), and the rest of the chain, counted array by array in
    its own order (:func:`_chain_arrays`): on order >= 2 every pair matrix
    K_n (``embedding._pair_matrix``), L_n x R_2n R_2n+1 with
    L_n = tau_n + W_n - 1, which the map-back builds too, and the products
    that contract the other input modes, which grow where a rank pair
    exceeds its mode's length.  Each can exceed the embedded tensor.
    """
    pairs = [a * b for a, b in zip(ranks[::2], ranks[1::2])]
    count = max(shape[2 * n] * shape[2 * n + 1] * math.prod(pairs[:n] + pairs[n + 1:])
                for n in range(len(pairs)))
    if count > _ELEMENT_CAP and tuple(ranks) == tuple(shape):
        raise ValueError(f"embedded tensor would hold {count} elements (a roughly "
                         f"{math.prod(shape[::2])}x expansion of the input via windows "
                         f"{shape[::2]}); the cap is {_ELEMENT_CAP}. Reduce the windows.")
    if count > _ELEMENT_CAP:
        raise ValueError(f"a fit at ranks {tuple(ranks)} would build a pair embedding of "
                         f"{count} elements; the cap is {_ELEMENT_CAP}. Reduce the windows "
                         f"or the ranks.")
    if not fit:
        return count
    factor, m = max((j * r, m) for m, (j, r) in enumerate(zip(shape, ranks)))
    arrays = [(factor, "a factor matrix", f"{shape[m]} x {ranks[m]} on mode {m}")]
    for size, name, detail in arrays + list(_chain_arrays(shape, ranks)):
        if size > _ELEMENT_CAP:
            raise ValueError(f"a fit at ranks {tuple(ranks)} would build {name} of {size} "
                             f"elements ({detail}); the cap is {_ELEMENT_CAP}. Reduce the "
                             f"windows or the ranks.")
        count = max(count, size)
    return count


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
class RecoveryReport:
    """Outputs of one run of the sweep loop.

    ``estimate`` is the last fill's map-back H^+ X, in the input's shape
    (the model's before a pad that followed that fill, which leaves it
    unchanged).  ``rank_history`` lists (sweep index at which an increment
    fired, mode, new rank).  ``wall_time_s`` spans the loop from entry to
    exit.  ``unbridged_gap`` is (mode, run length) of the longest run of
    fully missing slices that no window bridges, or None (see
    :func:`hankelfill.masks.unbridged_gap`); the fit then has nothing to say
    about those slices, whatever its status.
    """

    model: TuckerModel
    estimate: np.ndarray
    cost_trace: CostTrace
    rank_history: list[tuple[int, int, int]]
    status: str
    wall_time_s: float
    unbridged_gap: tuple[int, int] | None

    @property
    def ranks(self) -> tuple[int, ...]:
        """The final model's ranks."""
        return self.model.ranks


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


def complete_with_rank_increment(t: np.ndarray, q: np.ndarray, taus: Sequence[int],
                                 schedule: RankSchedule, criteria: StoppingCriteria,
                                 seed=0) -> RecoveryReport:
    """Complete a tensor by Tucker fitting in embedded space with automatic rank growth.

    ``t`` and ``q`` are the input and its mask, and ``taus`` one window per
    input mode: the model X fits H(t), ``mdt`` with windows ``taus``, and
    ``schedule`` covers its embedded modes.  Each sweep imputes the input
    (see :func:`_input_space_imputation`), so the cost is
    F = ||H(y) - X||^2, which also counts the disagreement of the model's
    windows on the missing entries.  Windows of 1 give plain Tucker
    completion of ``t``: embedded mode 2n + 1 is input mode n, the even
    modes have size 1, and F is the masked cost ||q * (t - X)||^2.

    Each sweep imputes the missing entries from the current model and runs
    one :func:`als_sweep`; when two consecutive costs differ by at most
    ``criteria.tol``, one mode's rank is advanced (see
    :func:`select_increment_mode`) and the model is padded in place of a cold
    restart.  Stops as soon as the cost is <= ``criteria.epsilon``,
    returning status ``converged``; running out of rank headroom or sweeps
    gives ``schedule_exhausted`` / ``sweep_budget`` instead of an error.  A
    q with no observed entry, a NaN or infinite observed value, or a random
    start whose cost overflows float64, is a ValueError; all-zero observed
    data are fitted exactly by the zero model, returned at sweep 0.  The
    report's ``estimate`` is the last fill's map-back e = H^+ X.  A fit whose
    largest array at the final ranks is too large is refused first.  After
    these checks the mask is read for a run of fully missing slices that no
    window bridges (:func:`hankelfill.masks.unbridged_gap`), which the
    report names.

    The cost trace spans the whole run and is monotonically non-increasing,
    including across increments (padding preserves the reconstruction).
    """
    started = time.perf_counter()
    t = np.asarray(t, dtype=np.float64)
    q = np.asarray(q, dtype=bool)
    if t.shape != q.shape:
        raise ValueError(f"data shape {t.shape} differs from mask shape {q.shape}")
    shape = embedded_shape(t.shape, taus)
    if schedule.order != len(shape):
        raise ValueError(f"schedule covers {schedule.order} modes, tensor has {len(shape)}")
    for m, seq in enumerate(schedule.sequences):
        if seq[-1] > shape[m]:
            raise ValueError(f"mode {m} sequence tops out at {seq[-1]} but the mode "
                             f"has size {shape[m]}")
    _checked_largest_array(shape, [seq[-1] for seq in schedule.sequences])
    if not q.any():
        raise ValueError("the mask observes no entry: there is nothing to fit")
    if not np.isfinite(t[q]).all():
        raise ValueError("observed values must be finite (no NaN/Inf)")
    gap = unbridged_gap(q, taus)

    model = init_model(tuple(seq[0] for seq in schedule.sequences), shape, seed)
    if not t[q].any():
        model = TuckerModel(np.zeros_like(model.core), model.factors)
    impute = _input_space_imputation(t, q, taus)
    with np.errstate(over="ignore", invalid="ignore"):
        y, f_before, estimate = impute(model)
    if not math.isfinite(f_before):  # the cost never increases: this covers every sweep
        raise ValueError("the cost of the random start overflows float64; "
                         "rescale the data")
    trace: CostTrace = [(0, f_before)]
    history: list[tuple[int, int, int]] = []
    if f_before <= criteria.epsilon:
        return RecoveryReport(model, estimate, trace, history, CONVERGED,
                              time.perf_counter() - started, gap)

    status = SWEEP_BUDGET
    pads = 0
    for sweep in range(1, criteria.max_total_sweeps + 1):
        del estimate  # the sweep peaks without it; the next fill makes the next one
        model = als_sweep(y, model)
        y, f_after, estimate = impute(model)
        trace.append((sweep, f_after))
        if f_after <= criteria.epsilon:
            status = CONVERGED
            break
        if abs(f_after - f_before) <= criteria.tol:
            if not _growable(schedule, model.ranks):
                status = SCHEDULE_EXHAUSTED
                break
            mode = select_increment_mode(mode_residuals(y, model), schedule, model.ranks)
            new_rank = next(k for k in schedule.sequences[mode] if k > model.ranks[mode])
            pads += 1
            model = pad_model(model, mode, new_rank, seed=(seed, pads))
            history.append((sweep, mode, new_rank))
        # Padding leaves the reconstruction (hence the cost) unchanged, so the
        # post-pad reference cost equals f_after either way.
        f_before = f_after
    return RecoveryReport(model, estimate, trace, history, status,
                          time.perf_counter() - started, gap)
