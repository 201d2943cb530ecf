"""Properties of the single sweep loop on plain tensors (windows of 1), rank
padding, memory, and reconstruct counts.

Fixed ranks are one-element rank sequences, so every fit in the package runs
through ``complete_with_rank_increment``; the properties of its cost trace
and rank events over random inputs, windows and schedules are in
``test_input_fill.py``.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hankelfill import (CONVERGED, SCHEDULE_EXHAUSTED, SWEEP_BUDGET, RankSchedule,
                        RecoveryRequest, StoppingCriteria, TuckerModel, default_rank_sequences,
                        embedded_shape, init_model, pad_model, recover)
from hankelfill import ranking
from helpers import masked_cost, plain_loop, texture_image, traced_peak


@st.composite
def loop_cases(draw, max_size=5):
    order = draw(st.integers(2, 4))
    shape = tuple(draw(st.lists(st.integers(1, max_size), min_size=order, max_size=order)))
    kind = draw(st.sampled_from(["fixed", "doubling", "drawn"]))
    if kind == "fixed":
        schedule = RankSchedule(tuple((draw(st.integers(1, j)),) for j in shape))
    elif kind == "doubling":
        schedule = default_rank_sequences(shape)
    else:
        schedule = RankSchedule(tuple(
            tuple(sorted(draw(st.sets(st.integers(1, j), min_size=1, max_size=j))))
            for j in shape))
    missing = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8]))
    tol_rel = draw(st.sampled_from([0.0, 1e-6, 1e-3, 1e-1]))
    return shape, schedule, missing, tol_rel, draw(st.integers(0, 2**32 - 1))


def run(case):
    """Plain Tucker completion of the case, with every model the loop made.

    The models are the loop's own, on the embedded modes; at windows of 1
    each reconstructs to the tensor's shape by a reshape.
    """
    shape, schedule, missing, tol_rel, seed = case
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(shape)
    q = rng.random(shape) >= missing
    assume(q.any())  # an empty mask is an error (test_ranking.py), not a fit
    energy = float(t[q] @ t[q])
    criteria = StoppingCriteria(epsilon=0.0, tol=tol_rel * energy, max_total_sweeps=15)
    models = []

    def recording(make):
        def wrapped(*args, **kwargs):
            models.append(make(*args, **kwargs))
            return models[-1]
        return wrapped

    saved = ranking.init_model, ranking.als_sweep
    ranking.init_model, ranking.als_sweep = map(recording, saved)
    try:
        result = plain_loop(t, q, schedule, criteria, seed=seed)
    finally:
        ranking.init_model, ranking.als_sweep = saved
    return t, q, result, models


@settings(max_examples=80, deadline=None)
@given(case=loop_cases())
def test_cost_never_increases_across_sweeps_and_increments(case):
    *_, result, _ = run(case)
    costs = [f for _, f in result.cost_trace]
    slack = 1e-12 * costs[0]
    assert all(after <= before + slack for before, after in zip(costs, costs[1:]))
    assert [s for s, _ in result.cost_trace] == list(range(len(costs)))
    assert result.status in (CONVERGED, SCHEDULE_EXHAUSTED, SWEEP_BUDGET)


@settings(max_examples=60, deadline=None)
@given(case=loop_cases(max_size=4))
def test_cost_trace_is_the_masked_sum_of_each_sweeps_model(case):
    # At windows of 1 the loop's cost F is the masked cost; the oracle sums
    # the observed entries only, for the model that sweep made (before any
    # padding).
    t, q, result, models = run(case)
    assert len(models) == len(result.cost_trace)
    for model, (_, value) in zip(models, result.cost_trace):
        oracle = masked_cost(t, q, model.reconstruct().reshape(t.shape))
        assert abs(value - oracle) <= 1e-13 * oracle


@settings(max_examples=80, deadline=None)
@given(shape=st.lists(st.integers(2, 6), min_size=2, max_size=4),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_pad_model_leaves_reconstruction_unchanged(shape, data, seed):
    ranks = tuple(data.draw(st.integers(1, j - 1)) for j in shape)
    mode = data.draw(st.integers(0, len(shape) - 1))
    new_rank = data.draw(st.integers(ranks[mode] + 1, shape[mode]))
    model = init_model(ranks, shape, seed)
    padded = pad_model(model, mode, new_rank, seed=seed + 1)
    assert padded.ranks[mode] == new_rank
    before = model.reconstruct()
    after = padded.reconstruct()
    # the added core slices are zero; only the GEMM summation order may differ
    np.testing.assert_allclose(after, before, rtol=0,
                               atol=1e-13 * max(1.0, float(np.abs(before).max())))


# A 64x64x3 image with half its pixels missing, windows (16, 16, 1): the
# embedded tensor has 16*49*16*49*1*3 elements, 14.1 MiB.
TAUS, RANKS = (16, 16, 1), (4, 8, 4, 8, 1, 3)


def image_case():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 64, 3))
    q = rng.random(x.shape) >= 0.5
    return x, q, StoppingCriteria(0.0, 0.0, 3)


def in_copies(nbytes, shape, taus):
    """A byte count in copies of the float64 embedded tensor."""
    return nbytes / (8 * math.prod(embedded_shape(shape, taus)))


def test_recover_holds_under_one_and_a_half_embedded_copies():
    # No full-size buffer: the fill is input-sized, and the ALS sweep reads
    # it, embedding one mode pair at a time.  The largest array is a pair
    # embedding with every other input mode contracted, 16x49x(4*8*3) here.
    # Measured: 0.088 copies.
    x, q, criteria = image_case()
    request = RecoveryRequest(x, q, TAUS, schedule=RANKS, criteria=criteria, seed=0)
    report, peak = traced_peak(lambda: recover(request))
    assert report.cost_trace[-1][0] == 3
    assert in_copies(peak, x.shape, TAUS) <= 0.11


def test_an_input_space_plateau_holds_no_more_than_a_sweep():
    # A rank-growing run ranks the modes at each plateau through the ALS
    # sweep's projection chain, so it adds no full-size array: only the
    # fill's input-sized map-back, which the run keeps as its estimate until
    # the next sweep.  Measured: 0.043 copies.
    x, q, _ = image_case()
    energy = float(x[q] @ x[q])
    request = RecoveryRequest(x, q, TAUS, criteria=StoppingCriteria(0.0, 1e-2 * energy, 6),
                              seed=0)
    report, peak = traced_peak(lambda: recover(request))
    assert report.rank_history == [(5, 2, 2), (6, 3, 2)]
    assert in_copies(peak, x.shape, TAUS) <= 0.06


@pytest.mark.parametrize("shape, taus, ranks, copies", [
    ((64, 64, 3), (2, 2, 1), (2, 8, 2, 8, 1, 3), 2.124),
    ((40000,), (2,), (2, 2), 6.571),
])
def test_the_input_fill_at_small_windows_holds_little_beyond_the_papers(shape, taus, ranks,
                                                                        copies):
    # At windows of 2 the input is a quarter (image) or half (signal) of the
    # embedded tensor, so input-sized arrays weigh: the fill holds y, the
    # duplication counts and a scratch array for the run, each map-back
    # makes one more, and a signal's window factor (39999 x 2) is as large
    # as the embedded tensor.  Measured: image 2.124 embedded copies, signal
    # 6.571.
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape)
    q = rng.random(shape) >= 0.5
    request = RecoveryRequest(x, q, taus, schedule=ranks,
                              criteria=StoppingCriteria(0.0, 0.0, 3), seed=0)
    report, peak = traced_peak(lambda: recover(request))
    assert report.cost_trace[-1][0] == 3
    assert in_copies(peak, shape, taus) <= copies + 0.02


def test_the_papers_setting_holds_a_tenth_of_an_embedded_copy():
    # The paper's image setting: 256x256x3 at windows (32, 32, 1), whose
    # embedded tensor holds 155.5 million entries (1.16 GiB).  With fixed
    # ranks (8, 16, 8, 16, 1, 3) the largest array is the first pair
    # embedding, 32x225x(8*16*3).  Measured: 0.028 copies (34 MiB) for 2
    # sweeps in 0.3 s on one x86_64 core.
    x = texture_image(256)
    q = np.broadcast_to(np.random.default_rng(0).random((256, 256, 1)) >= 0.5, x.shape)
    taus = (32, 32, 1)
    request = RecoveryRequest(x, q, taus, schedule=(8, 16, 8, 16, 1, 3),
                              criteria=StoppingCriteria(0.0, 0.0, 2), seed=0)
    report, peak = traced_peak(lambda: recover(request))
    assert report.cost_trace[-1][0] == 2
    assert in_copies(peak, x.shape, taus) <= 0.1


def test_reconstruct_runs_once_per_sweep_and_never_at_a_plateau(monkeypatch):
    # One reconstruct for the start and one per sweep, each into the fill; the
    # plateaus (eight rank events here) rank the modes without rebuilding x.
    calls = []
    reconstruct = TuckerModel.reconstruct

    def counting(model):
        calls.append(model.ranks)
        return reconstruct(model)

    monkeypatch.setattr(TuckerModel, "reconstruct", counting)
    rng = np.random.default_rng(5)
    t = rng.standard_normal((4, 5, 6))
    q = rng.random(t.shape) >= 0.3
    energy = float(t[q] @ t[q])
    result = plain_loop(t, q, default_rank_sequences(t.shape),
                        StoppingCriteria(0.0, 1e-2 * energy, 40), seed=0)
    assert len(result.rank_history) == 8
    assert len(calls) == len(result.cost_trace)
