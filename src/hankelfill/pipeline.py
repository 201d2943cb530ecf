"""End-to-end recovery: embed, complete in embedded space, invert.

The three steps are (1) multi-way delay embedding of the data, (2) Tucker
completion of the embedded tensor by the rank-increment loop (fixed ranks
are one-element rank sequences), and (3) the inverse embedding of the
fitted model back to the input shape.  Step 2 imputes the input, not the
embedded tensor: it fills the missing entries from the model's map-back
and sweeps on the filled input's embedding, so every window agrees on a
missing entry; the sweep reads the filled input and embeds one mode pair
at a time, so steps 1 and 2 never build the embedded tensor.  Step 3 is
the loop's last map-back of the model, which takes the Tucker model back
directly (:func:`hankelfill.embedding.inverse_mdt_tucker`), so the
completed embedded tensor is never built either.  Observed entries also pass
through the model, so the output is everywhere the model's explanation of
the data rather than a patchwork of input and fill.  Before step 1, the
mask alone is checked for a run of fully missing slices that no window
bridges (see :func:`unbridged_gap`); the report names it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .completion import CostTrace
from .core import as_mask, as_tensor
from .embedding import embedded_shape
from .masks import longest_missing_runs
from .ranking import (RankSchedule, StoppingCriteria, _checked_largest_array,
                      complete_with_rank_increment, default_rank_sequences,
                      default_stopping_criteria)

def checked_embedded_shape(shape: Sequence[int], taus: Sequence[int]) -> tuple[int, ...]:
    """The embedded shape under windows ``taus``, refused if that tensor exceeds the size cap."""
    embedded = embedded_shape(shape, taus)
    _checked_largest_array(embedded, embedded, fit=False)
    return embedded


@dataclass
class RecoveryRequest:
    """Inputs of one recovery run.

    ``schedule`` is a :class:`RankSchedule` of embedded-space rank
    sequences, None for the default doubling sequences, or a plain tuple of
    ints: fixed embedded ranks, run as one-element sequences.  Every run
    obeys ``criteria``, which defaults to thresholds relative to the observed
    energy.
    """

    data: np.ndarray
    mask: np.ndarray
    taus: tuple[int, ...]
    schedule: RankSchedule | Sequence[int] | None = None
    criteria: StoppingCriteria | None = None
    seed: int = 0


@dataclass
class RecoveryReport:
    """Outputs of one recovery run.

    ``unbridged_gap`` is (mode, run length) of the longest run of fully
    missing slices that no window bridges, or None (see
    :func:`unbridged_gap`); the fit then has nothing to say about those
    slices, whatever its status.
    """

    estimate: np.ndarray
    ranks: tuple[int, ...]
    cost_trace: CostTrace
    rank_history: list[tuple[int, int, int]]
    status: str
    wall_time_s: float
    unbridged_gap: tuple[int, int] | None = None


def unbridged_gap(mask: np.ndarray, taus: Sequence[int]) -> tuple[int, int] | None:
    """(mode, run) of the longest run of fully missing slices that no window bridges.

    Read from the mask alone, with no embedding (see
    :func:`hankelfill.masks.longest_missing_runs`).  A run on a mode with
    window 1 is never bridged: nothing links the slices of that mode.  The
    input fill of :func:`recover` bridges any run on a mode with a longer
    window.  Ties go to the lowest mode; None when every run is bridged.
    """
    worst = None
    for mode, (run, tau) in enumerate(zip(longest_missing_runs(mask), taus)):
        if run and tau == 1:
            if worst is None or run > worst[1]:
                worst = (mode, run)
    return worst


def recover(req: RecoveryRequest) -> RecoveryReport:
    """Run the full pipeline and return the estimate plus run diagnostics.

    The estimate has the input shape and is guaranteed finite; score it
    with :mod:`hankelfill.metrics`.  The report's ranks are the final
    model's.  A run whose largest array would be too large, or whose mask
    observes no entry, is rejected by the sweep loop; observed data that are all
    zero give an all-zero estimate, ``converged`` at sweep 0.
    """
    started = time.perf_counter()
    data = as_tensor(req.data)
    mask = as_mask(req.mask)
    if data.shape != mask.shape:
        raise ValueError(f"data shape {data.shape} differs from mask shape {mask.shape}")
    embedded = embedded_shape(data.shape, req.taus)
    taus = embedded[::2]
    gap = unbridged_gap(mask, taus)

    criteria = req.criteria or default_stopping_criteria(data, mask, taus)
    if req.schedule is None:
        schedule = default_rank_sequences(embedded)
    elif isinstance(req.schedule, RankSchedule):
        schedule = req.schedule
    else:
        schedule = RankSchedule(tuple((r,) for r in req.schedule))
    result = complete_with_rank_increment(data, mask, taus, schedule, criteria, seed=req.seed)
    if not np.all(np.isfinite(result.estimate)):
        raise RuntimeError("recovery produced non-finite values")

    return RecoveryReport(estimate=result.estimate, ranks=result.model.ranks,
                          cost_trace=result.cost_trace,
                          rank_history=result.rank_history, status=result.status,
                          wall_time_s=time.perf_counter() - started, unbridged_gap=gap)
