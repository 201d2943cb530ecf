"""Tensor completion in delay-embedded space.

Recovers missing entries, including whole missing slices, of N-way tensors:
the data is lifted to a higher-order Hankel tensor by a multi-way delay
embedding, a low-multilinear-rank Tucker model is fitted to the observed
entries (monotone imputation + ALS, with automatic rank growth), and the fit
is mapped back by the least-squares inverse embedding.  :func:`recover` runs
it; the lower-level pieces are imported from their own modules.
"""

from .completion import TuckerModel
from .embedding import embedded_shape, inverse_mdt, mdt
from .fileio import read_image, read_mask, read_tensor, write_image, write_mask, write_tensor
from .masks import make_mask
from .metrics import mean_ssim, psnr, snr, ssim_map
from .pipeline import CONVERGED, SCHEDULE_EXHAUSTED, SWEEP_BUDGET, RecoveryReport, recover
from .ranking import (RankSchedule, StoppingCriteria, default_rank_sequences,
                      default_stopping_criteria)
from .signals import damped_sine, linear_interpolate_gaps

__version__ = "0.1.0"

__all__ = [
    "CONVERGED", "SCHEDULE_EXHAUSTED", "SWEEP_BUDGET",
    "RankSchedule", "RecoveryReport", "StoppingCriteria", "TuckerModel",
    "damped_sine", "default_rank_sequences", "default_stopping_criteria",
    "embedded_shape", "inverse_mdt", "linear_interpolate_gaps", "make_mask", "mdt",
    "mean_ssim", "psnr", "read_image", "read_mask", "read_tensor", "recover", "snr",
    "ssim_map", "write_image", "write_mask", "write_tensor",
]
