"""The public surface of ``hankelfill``: what ``__all__`` exports.

The size check is deliberate: a change that grows or shrinks the API has to
update it, and say why.  The API is what a caller of ``recover`` and the
CLI's file and metric helpers need; lower-level pieces are imported from
their own modules.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import hankelfill

REMOVED = ("tucker_complete", "FitConfig", "FIXED_RANK", "hadamard", "frobenius_norm",
           "squeeze_modes", "cost", "mdt_mask", "EmbeddingSpec", "ScheduleExhaustedError",
           "delay_embed_vector", "inverse_delay_embed_vector", "fold", "SsimParams",
           "generate_signal", "RecoveryRequest", "RankIncrementResult", "auxiliary_fill",
           "complete_with_rank_increment", "als_sweep", "init_model", "CostTrace",
           "mode_residuals", "pad_model", "select_increment_mode", "mode_multiply",
           "multilinear_product", "unfold", "check_shape", "Shape", "as_mask", "as_tensor",
           "leading_singular_vectors", "apply_sign_convention", "duplication_counts",
           "embedded_observed_energy")

README = Path(__file__).resolve().parents[1] / "README.md"

# Settings that no caller outside the tests used.
REMOVED_PARAMETERS = {
    hankelfill.recover: ("ground_truth", "peak"),
    hankelfill.default_stopping_criteria: ("tol_rel", "max_total_sweeps"),
    hankelfill.ssim_map: ("params",),
    hankelfill.mean_ssim: ("params",),
}


def test_names_are_unique():
    assert len(hankelfill.__all__) == len(set(hankelfill.__all__))


def test_every_name_resolves():
    missing = [name for name in hankelfill.__all__ if not hasattr(hankelfill, name)]
    assert missing == []


def test_removed_names_stay_gone():
    assert [name for name in REMOVED if name in hankelfill.__all__] == []
    assert [name for name in REMOVED if hasattr(hankelfill, name)] == []


def test_removed_settings_stay_gone():
    for func, names in REMOVED_PARAMETERS.items():
        assert set(names).isdisjoint(inspect.signature(func).parameters), func.__name__
    assert "metrics" not in {f.name for f in dataclasses.fields(hankelfill.RecoveryReport)}
    assert not hasattr(hankelfill.RecoveryReport, "terminal_ranks")


def test_size():
    assert len(hankelfill.__all__) == 26


def test_every_name_is_documented_in_the_readme():
    text = README.read_text()
    assert [name for name in hankelfill.__all__
            if not re.search(rf"\b{re.escape(name)}\b", text)] == []
