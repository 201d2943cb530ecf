"""Tensor completion in delay-embedded space.

Recovers missing entries, including whole missing slices, of N-way tensors:
the data is lifted to a higher-order Hankel tensor by a multi-way delay
embedding, a low-multilinear-rank Tucker model is fitted to the observed
entries (monotone imputation + ALS, with automatic rank growth), and the fit
is mapped back by the least-squares inverse embedding.
"""

from .completion import CostTrace, TuckerModel, als_sweep, init_model
from .core import (Shape, as_mask, as_tensor, check_shape, mode_multiply, multilinear_product,
                   unfold)
from .embedding import (duplication_counts, embedded_observed_energy, embedded_shape,
                        inverse_mdt, mdt)
from .fileio import read_image, read_mask, read_tensor, write_image, write_mask, write_tensor
from .linalg import apply_sign_convention, leading_singular_vectors
from .masks import make_mask
from .metrics import mean_ssim, psnr, snr, ssim_map
from .pipeline import recover
from .ranking import (CONVERGED, SCHEDULE_EXHAUSTED, SWEEP_BUDGET, RankSchedule,
                      RecoveryReport, StoppingCriteria,
                      complete_with_rank_increment, default_rank_sequences,
                      default_stopping_criteria, mode_residuals, pad_model,
                      select_increment_mode)
from .signals import damped_sine, linear_interpolate_gaps

__version__ = "0.1.0"

__all__ = [
    "CONVERGED", "SCHEDULE_EXHAUSTED", "SWEEP_BUDGET",
    "CostTrace", "RankSchedule", "RecoveryReport", "Shape",
    "StoppingCriteria", "TuckerModel",
    "als_sweep", "apply_sign_convention", "as_mask", "as_tensor",
    "check_shape", "complete_with_rank_increment", "damped_sine", "default_rank_sequences",
    "default_stopping_criteria", "duplication_counts",
    "embedded_observed_energy", "embedded_shape", "init_model",
    "inverse_mdt", "leading_singular_vectors",
    "linear_interpolate_gaps", "make_mask", "mdt", "mean_ssim",
    "mode_multiply", "mode_residuals", "multilinear_product", "pad_model", "psnr",
    "read_image", "read_mask", "read_tensor", "recover", "select_increment_mode", "snr",
    "ssim_map", "unfold", "write_image", "write_mask", "write_tensor",
]
