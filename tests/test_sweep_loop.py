"""Properties of the single sweep loop on plain tensors (windows of 1), rank
padding, memory, and reconstruct counts.

Fixed ranks are one-element rank sequences, so every fit in the package runs
through ``recover``; the properties of its cost trace
and rank events over random inputs, windows and schedules are in
``test_input_fill.py``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hankelfill import (CONVERGED, SCHEDULE_EXHAUSTED, SWEEP_BUDGET, RankSchedule,
                        StoppingCriteria, TuckerModel, damped_sine, default_rank_sequences,
                        embedded_shape, recover)
from hankelfill import completion, pipeline
from hankelfill.completion import als_sweep, init_model
from hankelfill.ranking import pad_model
from helpers import in_copies, masked_cost, plain_loop, texture_image, traced_peak


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

    saved = pipeline.init_model, pipeline.als_sweep
    pipeline.init_model, pipeline.als_sweep = map(recording, saved)
    try:
        result = plain_loop(t, q, schedule, criteria, seed=seed)
    finally:
        pipeline.init_model, pipeline.als_sweep = saved
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


def test_recover_holds_under_one_and_a_half_embedded_copies():
    # No full-size buffer: the fill is input-sized, and the ALS sweep reads
    # it, embedding one mode pair at a time.  Both windowed pairs take the
    # sweep's Gram route here (O_n = 4*8*3 = 96 >= L_n = 64), which embeds
    # neither: its largest array is the Gram's 16x49x64 product, below the
    # 16x49x(4*8*3) pair embedding that the projection route builds.
    # Measured: 0.069 copies (0.087 on the projection route).
    x, q, criteria = image_case()
    report, peak = traced_peak(lambda: recover(x, q, TAUS, schedule=RANKS, criteria=criteria,
                                               seed=0))
    assert report.cost_trace[-1][0] == 3
    assert in_copies(peak, x.shape, TAUS) <= 0.08


def test_an_input_space_plateau_holds_no_more_than_a_sweep():
    # A rank-growing run ranks the modes at each plateau through the ALS
    # sweep's projection chain, so it adds no full-size array: only the
    # fill's input-sized map-back, which the run keeps as its estimate until
    # the next sweep.  Its ranks stay low, so every pair takes the
    # projection route.  Measured: 0.029 copies.
    x, q, _ = image_case()
    energy = float(x[q] @ x[q])
    criteria = StoppingCriteria(0.0, 1e-2 * energy, 6)
    report, peak = traced_peak(lambda: recover(x, q, TAUS, criteria=criteria, seed=0))
    assert report.rank_history == [(5, 2, 2), (6, 3, 2)]
    assert in_copies(peak, x.shape, TAUS) <= 0.035


def test_a_plateau_on_the_gram_route_holds_no_more_than_a_fixed_rank_run():
    # Four rank events, every sweep a plateau, from (4, 8, 4, 8, 1, 3) to
    # (8, 16, 8, 16, 1, 3); both windowed pairs take the Gram route
    # throughout (O_n >= 4*8*3 = 96 against L_n = 64).  The rank events
    # score the modes on the sweep's routes, so the run holds what a
    # fixed-rank run at its final ranks holds, to the interpreter's own
    # small objects.  Measured: 0.1416 copies, 0.1414 at fixed ranks; 0.386
    # when the rank events embedded every pair.
    x, q, _ = image_case()
    energy = float(x[q] @ x[q])
    schedule = RankSchedule(((4, 8), (8, 16), (4, 8), (8, 16), (1,), (3,)))
    report, peak = traced_peak(lambda: recover(x, q, TAUS, schedule,
                                               StoppingCriteria(0.0, 10 * energy, 6), seed=0))
    assert len(report.rank_history) == 4
    assert report.ranks == (8, 16, 8, 16, 1, 3)
    fixed, fixed_peak = traced_peak(lambda: recover(x, q, TAUS, schedule=report.ranks,
                                                    criteria=StoppingCriteria(0.0, 0.0, 3),
                                                    seed=0))
    assert fixed.cost_trace[-1][0] == 3
    assert peak <= 1.01 * fixed_peak


@pytest.mark.parametrize("shape, taus, ranks, copies", [
    ((64, 64, 3), (2, 2, 1), (2, 8, 2, 8, 1, 3), 1.501),
    ((40000,), (2,), (2, 2), 6.571),
])
def test_the_input_fill_at_small_windows_holds_little_beyond_the_papers(shape, taus, ranks,
                                                                        copies):
    # At windows of 2 the input is a quarter (image) or half (signal) of the
    # embedded tensor, so input-sized arrays weigh: the fill holds y, the
    # duplication counts and a scratch array for the run, each map-back
    # makes one more, and a signal's window factor (39999 x 2) is as large
    # as the embedded tensor.  Measured: image 1.501 embedded copies, signal
    # 6.571.
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape)
    q = rng.random(shape) >= 0.5
    criteria = StoppingCriteria(0.0, 0.0, 3)
    report, peak = traced_peak(lambda: recover(x, q, taus, schedule=ranks, criteria=criteria,
                                               seed=0))
    assert report.cost_trace[-1][0] == 3
    assert in_copies(peak, shape, taus) <= copies + 0.02


def test_the_papers_setting_holds_a_tenth_of_an_embedded_copy():
    # The paper's image setting: 256x256x3 at windows (32, 32, 1), whose
    # embedded tensor holds 155.5 million entries (1.16 GiB).  With fixed
    # ranks (8, 16, 8, 16, 1, 3) both windowed pairs take the sweep's Gram
    # route (O_n = 8*16*3 = 384 >= L_n = 256), so no pair embedding is
    # built: the largest arrays are the Gram's 32x225x256 product and the
    # input-sized ones.  Measured: 0.021 copies (25 MiB) for 2 sweeps, 0.028
    # on the projection route, whose first pair embedding is
    # 32x225x(8*16*3).
    x = texture_image(256)
    q = np.broadcast_to(np.random.default_rng(0).random((256, 256, 1)) >= 0.5, x.shape)
    taus = (32, 32, 1)
    criteria = StoppingCriteria(0.0, 0.0, 2)
    report, peak = traced_peak(lambda: recover(x, q, taus, schedule=(8, 16, 8, 16, 1, 3),
                                               criteria=criteria, seed=0))
    assert report.cost_trace[-1][0] == 2
    assert in_copies(peak, x.shape, taus) <= 0.025


def test_a_papers_setting_sweep_at_wide_rank_pairs_holds_a_fortieth_of_an_embedded_copy():
    # The same image at ranks (8, 64, 8, 64, 1, 3): both windowed pairs take
    # the Gram route (O_n = 8*64*3 = 1536 >= L_n = 256).  On the projection
    # route one sweep built the 32x225x1536 pair embedding and its
    # projection, 0.116 copies (138 MiB).  Measured: 0.020 copies (24 MiB).
    x = texture_image(256)
    taus = (32, 32, 1)
    model = init_model((8, 64, 8, 64, 1, 3), embedded_shape(x.shape, taus), 0)
    swept, peak = traced_peak(lambda: als_sweep(x, model))
    assert swept.ranks == model.ranks
    assert in_copies(peak, x.shape, taus) <= 0.025


def test_no_sweep_fill_or_plateau_reconstructs_the_model(monkeypatch):
    # No fill reconstructs the model: each maps it back through
    # inverse_mdt_tucker, and the plateaus (eight rank events here) rank the
    # modes through the sweep's chain, without building x either.
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
    assert calls == []


@pytest.mark.parametrize("case", ["signal", "image"])
def test_each_rank_stage_plans_its_chain_once(case):
    # The chain's plan is made the first time a walk meets a stage's ranks;
    # the stage's other sweeps and the rank event that ends it, which
    # scores the modes at the same ranks, read it.  So a default-schedule
    # run makes one plan per stage, and a second identical run makes none.
    # A plan keyed by something that never compares equal would be made on
    # every walk.
    if case == "signal":  # the benchmark's 1-D gap fill: 61 sweeps, 2 rank events
        t, taus = damped_sine(200, decay=0.005, omega=0.55), (50,)
        q = np.ones(t.shape, bool)
        q[85:115] = False
    else:  # 83 sweeps, 10 rank events
        t, taus = texture_image(16)[:, :, 0], (4, 4)
        q = np.ones(t.shape, bool)
        q[:, 6:8] = False
    completion._chain_plan.cache_clear()
    report = recover(t, q, taus)
    assert report.status == CONVERGED and report.rank_history
    stages = 1 + len(report.rank_history)
    walks = report.cost_trace[-1][0] + len(report.rank_history)
    assert completion._chain_plan.cache_info()[:2] == (walks - stages, stages)  # hits, misses
    again = recover(t, q, taus)
    assert again.rank_history == report.rank_history
    assert completion._chain_plan.cache_info()[:2] == (2 * walks - stages, stages)
