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
the data rather than a patchwork of input and fill.  :func:`recover` fills
in the defaults and returns the loop's own
:class:`~hankelfill.ranking.RecoveryReport`, which also names a run of
fully missing slices that no window bridges
(:func:`hankelfill.masks.unbridged_gap`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import as_mask, as_tensor
from .embedding import embedded_shape
from .ranking import (RankSchedule, RecoveryReport, StoppingCriteria, _checked_largest_array,
                      complete_with_rank_increment, default_rank_sequences,
                      default_stopping_criteria)

def checked_embedded_shape(shape: Sequence[int], taus: Sequence[int]) -> tuple[int, ...]:
    """The embedded shape under windows ``taus``, refused if that tensor exceeds the size cap."""
    embedded = embedded_shape(shape, taus)
    _checked_largest_array(embedded, embedded, fit=False)
    return embedded


def recover(data: np.ndarray, mask: np.ndarray, taus: Sequence[int],
            schedule: RankSchedule | Sequence[int] | None = None,
            criteria: StoppingCriteria | None = None, seed: int = 0) -> RecoveryReport:
    """Run the full pipeline and return the estimate plus run diagnostics.

    ``taus`` holds one window per mode of ``data``.  ``schedule`` is a
    :class:`RankSchedule` of embedded-space rank sequences, None for the
    default doubling sequences, or a plain tuple of ints: fixed embedded
    ranks, run as one-element sequences.  ``criteria`` defaults to
    thresholds relative to the observed energy.  The report is the sweep
    loop's (:func:`complete_with_rank_increment`); its wall time covers the
    loop alone.  The estimate has the input shape and is guaranteed finite;
    score it with :mod:`hankelfill.metrics`.  A run whose largest array
    would be too large, or whose mask observes no entry, is rejected by the
    sweep loop; observed data that are all zero give an all-zero estimate,
    ``converged`` at sweep 0.
    """
    data = as_tensor(data)
    mask = as_mask(mask)
    if data.shape != mask.shape:
        raise ValueError(f"data shape {data.shape} differs from mask shape {mask.shape}")
    embedded = embedded_shape(data.shape, taus)
    taus = embedded[::2]

    criteria = criteria or default_stopping_criteria(data, mask, taus)
    if schedule is None:
        schedule = default_rank_sequences(embedded)
    elif not isinstance(schedule, RankSchedule):
        schedule = RankSchedule(tuple((r,) for r in schedule))
    report = complete_with_rank_increment(data, mask, taus, schedule, criteria, seed=seed)
    if not np.all(np.isfinite(report.estimate)):
        raise RuntimeError("recovery produced non-finite values")
    return report
