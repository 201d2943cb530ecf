"""End-to-end recovery: embed, complete in embedded space, invert.

The three steps are (1) multi-way delay embedding of the data, (2) Tucker
completion of the embedded tensor by the rank-increment loop (fixed ranks
are one-element rank sequences), and (3) the inverse embedding of the
fitted model back to the input shape.  Step 2 imputes the input, not the
embedded tensor: each sweep maps the model X back, e = H^+ X, fills the
input's missing entries with it, y = where(q, t, e), and the next ALS sweep
fits X to H(y) reading y itself (:func:`hankelfill.completion.als_sweep`).
The cost is F = ||H(y) - X||^2, summed on input-sized arrays
(:func:`hankelfill.completion._input_space_imputation`), so every window
agrees on a missing entry and steps 1 and 2 never build the embedded
tensor.  Step 3 is the loop's last map-back of the model, which takes the
Tucker model back directly (:func:`hankelfill.embedding.inverse_mdt_tucker`),
so the completed embedded tensor is never built either.  Observed entries
also pass through the model, so the output is everywhere the model's
explanation of the data rather than a patchwork of input and fill.  Plain
Tucker completion of a tensor is the case of windows of 1, where H is a
reshape and the fill is where(q, t, X).

:func:`recover` is the package's only sweep loop.  When the cost plateaus
it grows one mode's rank by the policy of :mod:`hankelfill.ranking`; a
fixed-rank fit is a schedule of one-element sequences, which has nothing to
grow, so a plateau ends it with status ``schedule_exhausted``.  Every run
returns one :class:`RecoveryReport`, which also names a run of fully
missing slices that no window bridges
(:func:`hankelfill.masks.unbridged_gap`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .completion import CostTrace, TuckerModel, _input_space_imputation, als_sweep, init_model
from .core import _integer, as_mask
from .embedding import embedded_shape
from .masks import unbridged_gap
from .ranking import (RankSchedule, StoppingCriteria, _checked_largest_array, _growable,
                      default_rank_sequences, default_stopping_criteria, mode_residuals,
                      pad_model, select_increment_mode)

# Terminal statuses of a run.
CONVERGED = "converged"            # cost reached epsilon
SCHEDULE_EXHAUSTED = "schedule_exhausted"  # every sequence at its last entry, epsilon not reached
SWEEP_BUDGET = "sweep_budget"      # max_total_sweeps spent


@dataclass
class RecoveryReport:
    """Outputs of one run of the sweep loop.

    ``estimate`` is the last fill's map-back H^+ X, in the input's shape
    (the model's before a pad that followed that fill, which leaves it
    unchanged).  ``rank_history`` lists (sweep index at which an increment
    fired, mode, new rank).  ``wall_time_s`` spans the whole call, from
    entry to exit.  ``unbridged_gap`` is (mode, run length) of the longest
    run of fully missing slices that no window bridges, or None (see
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


def recover(data: np.ndarray, mask: np.ndarray, taus: Sequence[int],
            schedule: RankSchedule | Sequence[int] | None = None,
            criteria: StoppingCriteria | None = None, seed: int = 0) -> RecoveryReport:
    """Complete a tensor by Tucker fitting in embedded space with automatic rank growth.

    ``data`` and ``mask`` are the input t and its mask q, and ``taus`` one
    window per input mode: the model X fits H(t), ``mdt`` with windows
    ``taus``.  ``schedule`` covers the embedded modes: a
    :class:`RankSchedule`, None for the default doubling sequences, or a
    plain tuple of ints, fixed embedded ranks run as one-element sequences.
    ``criteria`` defaults to thresholds relative to the observed energy
    (:func:`default_stopping_criteria`).  Windows of 1 give plain Tucker
    completion of t: embedded mode 2n + 1 is input mode n, the even modes
    have size 1, and F is the masked cost ||q * (t - X)||^2.

    Each sweep imputes the missing entries from the current model and runs
    one :func:`als_sweep`; when two consecutive costs differ by at most
    ``criteria.tol``, one mode's rank is advanced (see
    :func:`select_increment_mode`) and the model is padded in place of a cold
    restart.  Stops as soon as the cost is <= ``criteria.epsilon``,
    returning status ``converged``; running out of rank headroom or sweeps
    gives ``schedule_exhausted`` / ``sweep_budget`` instead of an error.

    A ``seed`` that is not a nonnegative integer is refused before anything
    else, and a fit whose largest array at the final ranks is too large
    before the observed values are read.  ``mask`` is read by the one mask
    rule, :func:`hankelfill.core.as_mask`: nonzero is observed, and a mask
    holding NaN or +-Inf (neither observed nor missing; only a float mask
    can) is refused, as is one whose shape is not the data's.  Complex
    data, a mask with no observed entry, a NaN or infinite observed value,
    nonzero observed data whose largest magnitude is below 2^-511 (about
    1.5e-154, whose square is not a normal float64), or a random start
    whose cost overflows float64, is a ValueError too; a value at a missing
    entry is never read.  All-zero observed data are fitted exactly by the
    zero model, returned at sweep 0.  After these checks the mask is read
    for a run of fully missing slices that no window bridges, which the
    report names.

    The report's ``estimate`` is the last fill's map-back e = H^+ X, in the
    input's shape and guaranteed finite; score it with
    :mod:`hankelfill.metrics`.  The cost trace spans the whole run and is
    monotonically non-increasing, including across increments (padding
    preserves the reconstruction).
    """
    started = time.perf_counter()
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    t = np.asarray(data)
    if t.dtype.kind == "c":
        raise ValueError(f"data must be real, got {t.dtype}; fit the real and imaginary "
                         f"parts apart")
    t = t.astype(np.float64, copy=False)
    q = as_mask(mask, t.shape)
    shape = embedded_shape(t.shape, taus)
    taus = shape[::2]
    if schedule is None:
        schedule = default_rank_sequences(shape)
    elif not isinstance(schedule, RankSchedule):
        schedule = RankSchedule(tuple((r,) for r in schedule))
    if schedule.order != len(shape):
        raise ValueError(f"schedule covers {schedule.order} modes, tensor has {len(shape)}")
    for m, seq in enumerate(schedule.sequences):
        if seq[-1] > shape[m]:
            raise ValueError(f"mode {m} sequence tops out at {seq[-1]} but the mode "
                             f"has size {shape[m]}")
    _checked_largest_array(shape, [seq[-1] for seq in schedule.sequences])
    if not q.any():
        raise ValueError("the mask observes no entry: there is nothing to fit")
    peak = float(np.abs(t[q]).max())  # NaN if any observed value is NaN
    if not math.isfinite(peak):
        raise ValueError("observed values must be finite (no NaN/Inf)")
    if 0 < peak < 2.0**-511:
        # its square is not a normal float64: the energy, the thresholds and
        # the cost would all read 0, and any estimate would pass as converged
        raise ValueError(f"the observed energy of the data underflows float64 (largest "
                         f"observed magnitude {peak:.3g}, below 2^-511); rescale the data")
    if criteria is None:
        criteria = default_stopping_criteria(t, q, taus)
    gap = unbridged_gap(q, taus)

    model = init_model(tuple(seq[0] for seq in schedule.sequences), shape, seed)
    if not peak:
        model = TuckerModel(np.zeros_like(model.core), model.factors)
    impute = _input_space_imputation(t, q, taus)
    with np.errstate(over="ignore", invalid="ignore"):
        y, f_before, estimate = impute(model)
    if not math.isfinite(f_before):  # the cost never increases: this covers every sweep
        raise ValueError("the cost of the random start overflows float64; "
                         "rescale the data")
    trace: CostTrace = [(0, f_before)]
    history: list[tuple[int, int, int]] = []
    status = SWEEP_BUDGET
    sweeps = range(1, criteria.max_total_sweeps + 1)
    if f_before <= criteria.epsilon:
        status, sweeps = CONVERGED, ()
    for sweep in sweeps:
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
            model = pad_model(model, mode, new_rank, seed=(seed, len(history) + 1))
            history.append((sweep, mode, new_rank))
        # Padding leaves the reconstruction (hence the cost) unchanged, so the
        # post-pad reference cost equals f_after either way.
        f_before = f_after
    if not np.all(np.isfinite(estimate)):
        raise RuntimeError("recovery produced non-finite values")
    return RecoveryReport(model, estimate, trace, history, status,
                          time.perf_counter() - started, gap)
