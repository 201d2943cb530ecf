"""Properties of the single sweep loop on plain tensors (windows of 1), rank
padding, memory, and reconstruct counts.

Fixed ranks are one-element rank sequences, so every fit in the package runs
through ``complete_with_rank_increment``; the properties of its cost trace
and rank events over random inputs, windows and schedules are in
``test_input_fill.py``.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hankelfill import (CONVERGED, SCHEDULE_EXHAUSTED, SWEEP_BUDGET, RankSchedule,
                        RecoveryRequest, StoppingCriteria, TuckerModel, default_rank_sequences,
                        embedded_shape, init_model, pad_model, recover)
from hankelfill import ranking
from helpers import masked_cost, plain_loop


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
# embedded tensor has 16*49*16*49*1*3 elements, 4.4 MiB.
TAUS, RANKS = (16, 16, 1), (4, 8, 4, 8, 1, 3)


def image_case():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 64, 3))
    q = rng.random(x.shape) >= 0.5
    return x, q, StoppingCriteria(0.0, 0.0, 3)


def traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_recover_holds_under_one_and_a_half_embedded_copies():
    # The fill is the one full-size buffer: each sweep's fill goes into the
    # one its ALS sweep has just read, and the embedded filled input is a
    # strided view over a source-sized array.  The ALS sweep adds its
    # projections (a third of a copy here).  Measured: 1.340 copies.
    x, q, criteria = image_case()
    request = RecoveryRequest(x, q, TAUS, schedule=RANKS, criteria=criteria, seed=0)
    report, peak = traced_peak(lambda: recover(request))
    assert report.cost_trace[-1][0] == 3
    assert peak <= 1.367 * 8 * math.prod(embedded_shape(x.shape, TAUS))


def test_an_input_space_plateau_holds_no_more_than_a_sweep():
    # A rank-growing run ranks the modes at each plateau from the fill,
    # through the ALS sweep's projection chain, so it adds no full-size
    # array: only the fill's input-sized map-back, which the run keeps as
    # its estimate until the next sweep.  Measured: 1.088 copies stopped one
    # sweep before the second plateau, 1.092 with it.
    x, q, _ = image_case()
    energy = float(x[q] @ x[q])
    request = RecoveryRequest(x, q, TAUS, criteria=StoppingCriteria(0.0, 1e-2 * energy, 6),
                              seed=0)
    report, peak = traced_peak(lambda: recover(request))
    assert report.rank_history == [(5, 2, 2), (6, 3, 2)]
    assert peak <= 1.102 * 8 * math.prod(embedded_shape(x.shape, TAUS))


@pytest.mark.parametrize("shape, taus, ranks, copies", [
    ((64, 64, 3), (2, 2, 1), (2, 8, 2, 8, 1, 3), 3.741),
    ((40000,), (2,), (2, 2), 7.074),
])
def test_the_input_fill_at_small_windows_holds_little_beyond_the_papers(shape, taus, ranks,
                                                                        copies):
    # At windows of 2 the input is a quarter (image) or half (signal) of the
    # embedded tensor, so input-sized arrays weigh.  The fill holds y and the
    # duplication counts for the run, uses the head of the fill as scratch,
    # and each sweep's map-back makes one more, which the run keeps as its
    # estimate but drops before the next ALS sweep.  Nothing holds under 1.5
    # embedded copies here: the ALS sweep's projections peak at about 4
    # (image) and 7 (signal) copies.  Measured: image 3.741 embedded copies,
    # signal 7.074; the paper's embedded-space fill peaked at 4.141 and
    # 6.920.
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape)
    q = rng.random(shape) >= 0.5
    request = RecoveryRequest(x, q, taus, schedule=ranks,
                              criteria=StoppingCriteria(0.0, 0.0, 3), seed=0)
    report, peak = traced_peak(lambda: recover(request))
    assert report.cost_trace[-1][0] == 3
    assert peak <= (copies + 0.02) * 8 * math.prod(embedded_shape(shape, taus))


def test_reconstruct_runs_once_per_sweep_and_never_at_a_plateau(monkeypatch):
    # One reconstruct for the start and one per sweep, each into the fill; the
    # plateaus (eight rank events here) rank the modes without rebuilding x.
    calls = []
    reconstruct = TuckerModel.reconstruct

    def counting(model, out=None):
        calls.append(model.ranks)
        return reconstruct(model, out=out)

    monkeypatch.setattr(TuckerModel, "reconstruct", counting)
    rng = np.random.default_rng(5)
    t = rng.standard_normal((4, 5, 6))
    q = rng.random(t.shape) >= 0.3
    energy = float(t[q] @ t[q])
    result = plain_loop(t, q, default_rank_sequences(t.shape),
                        StoppingCriteria(0.0, 1e-2 * energy, 40), seed=0)
    assert len(result.rank_history) == 8
    assert len(calls) == len(result.cost_trace)
