"""The public surface of ``hankelfill``: what ``__all__`` exports.

The size check is deliberate: a change that grows or shrinks the API has to
update it, and say why.
"""

import dataclasses
import inspect

import hankelfill

REMOVED = ("tucker_complete", "FitConfig", "FIXED_RANK", "hadamard", "frobenius_norm",
           "squeeze_modes", "cost", "mdt_mask", "EmbeddingSpec", "ScheduleExhaustedError",
           "delay_embed_vector", "inverse_delay_embed_vector", "fold", "SsimParams",
           "generate_signal", "RecoveryRequest", "RankIncrementResult", "auxiliary_fill")

# Settings that no caller outside the tests used.
REMOVED_PARAMETERS = {
    hankelfill.recover: ("ground_truth", "peak"),
    hankelfill.default_stopping_criteria: ("tol_rel", "max_total_sweeps"),
    hankelfill.ssim_map: ("params",),
    hankelfill.mean_ssim: ("params",),
    hankelfill.as_tensor: ("shape",),
    hankelfill.as_mask: ("shape",),
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
    assert len(hankelfill.__all__) == 44
