"""The public surface of ``hankelfill``: what ``__all__`` exports.

The size check is deliberate: a change that grows or shrinks the API has to
update it, and say why.
"""

import hankelfill

REMOVED = ("tucker_complete", "FitConfig", "FIXED_RANK", "hadamard", "frobenius_norm",
           "squeeze_modes", "cost", "mdt_mask", "EmbeddingSpec", "ScheduleExhaustedError")


def test_names_are_unique():
    assert len(hankelfill.__all__) == len(set(hankelfill.__all__))


def test_every_name_resolves():
    missing = [name for name in hankelfill.__all__ if not hasattr(hankelfill, name)]
    assert missing == []


def test_removed_names_stay_gone():
    assert [name for name in REMOVED if name in hankelfill.__all__] == []
    assert [name for name in REMOVED if hasattr(hankelfill, name)] == []


def test_size():
    assert len(hankelfill.__all__) == 51
