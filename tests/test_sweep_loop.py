"""Properties of the single sweep loop, under fixed and growing rank schedules.

Fixed ranks are one-element rank sequences, so every fit in the package runs
through ``complete_with_rank_increment``; these properties hold for both.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hankelfill import (CONVERGED, SCHEDULE_EXHAUSTED, SWEEP_BUDGET, RankSchedule,
                        RecoveryRequest, StoppingCriteria, TuckerModel, als_sweep,
                        complete_with_rank_increment, default_rank_sequences, embedded_shape,
                        init_model, mdt, pad_model, recover)
from hankelfill import ranking
from hankelfill.completion import cost
from helpers import fixed_rank_fit, masked_cost


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
    shape, schedule, missing, tol_rel, seed = case
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(shape)
    q = rng.random(shape) >= missing
    assume(q.any())  # an empty mask is an error (test_ranking.py), not a fit
    energy = float(t[q] @ t[q])
    criteria = StoppingCriteria(epsilon=0.0, tol=tol_rel * energy, max_total_sweeps=15)
    return schedule, t, q, complete_with_rank_increment(t, q, schedule, criteria, seed=seed)


@settings(max_examples=80, deadline=None)
@given(case=loop_cases())
def test_cost_never_increases_across_sweeps_and_increments(case):
    *_, result = run(case)
    costs = [f for _, f in result.cost_trace]
    slack = 1e-12 * costs[0]
    assert all(after <= before + slack for before, after in zip(costs, costs[1:]))
    assert [s for s, _ in result.cost_trace] == list(range(len(costs)))
    assert result.status in (CONVERGED, SCHEDULE_EXHAUSTED, SWEEP_BUDGET)


@settings(max_examples=80, deadline=None)
@given(case=loop_cases())
def test_every_rank_event_lands_on_its_sequence(case):
    schedule, _, _, result = run(case)
    cursors = [0] * schedule.order
    last_sweep = 0
    for sweep, mode, new_rank in result.rank_history:
        assert sweep > last_sweep
        cursors[mode] += 1
        assert new_rank == schedule.sequences[mode][cursors[mode]]
        last_sweep = sweep
    expected = tuple(seq[k] for seq, k in zip(schedule.sequences, cursors))
    assert result.model.ranks == expected
    if all(len(seq) == 1 for seq in schedule.sequences):
        assert result.rank_history == []


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


@settings(max_examples=60, deadline=None)
@given(case=loop_cases(max_size=4))
def test_cost_trace_is_the_masked_sum_of_each_sweeps_model(case):
    # The loop takes each cost from its imputation pass, over the whole tensor;
    # the oracle sums the observed entries only, for the model that sweep made
    # (before any padding).  Both add the same nonnegative squares, at most
    # 4**4 of them, in different orders.
    models = []

    def recording(make):
        def wrapped(*args, **kwargs):
            models.append(make(*args, **kwargs))
            return models[-1]
        return wrapped

    saved = ranking.init_model, ranking.als_sweep
    ranking.init_model, ranking.als_sweep = map(recording, saved)
    try:
        _, t, q, result = run(case)
    finally:
        ranking.init_model, ranking.als_sweep = saved
    assert len(models) == len(result.cost_trace)
    for model, (_, value) in zip(models, result.cost_trace):
        oracle = masked_cost(t, q, model.reconstruct())
        assert abs(value - oracle) <= 1e-13 * oracle


@settings(max_examples=80, deadline=None)
@given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=4), data=st.data(),
       block=st.sampled_from([1, 2, 3, 7, 16, 2**15]), seed=st.integers(0, 2**32 - 1))
def test_imputation_is_the_fill_and_cost(shape, data, block, seed):
    # The masked pass walks the tensor in blocks, shrunk here so that most
    # tensors span several, through one scratch array per run.  As in the
    # loop, the first model is reconstructed into a new array and the next,
    # its ALS sweep, into the previous fill (which is that model's core when
    # every mode has size 1).  Each pass must give exactly the fill
    # where(q, t, x) and a cost that only the summation order tells from the
    # masked sum.
    shape = tuple(shape)
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(shape)
    q = rng.random(shape) < data.draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    ranks = tuple(data.draw(st.integers(1, j)) for j in shape)
    model, z = init_model(ranks, shape, seed), None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranking, "_BLOCK_ELEMENTS", block)
        scratch = np.empty(block)
        for _ in range(2):
            core = model.core.copy()
            x = model.reconstruct().copy()
            z, value = ranking._impute(t, q, model, scratch, out=z)
            np.testing.assert_array_equal(model.core, core)
            np.testing.assert_array_equal(z, np.where(q, t, x))
            expected = np.where(q, t - x, 0.0)
            assert abs(value - cost(expected)) <= 1e-13 * cost(expected)
            model = als_sweep(z, model)


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


def test_loop_holds_under_one_and_a_half_embedded_copies_besides_its_inputs():
    # The fill is the one full-size buffer: each model is reconstructed into
    # the fill its ALS sweep has just read, and the cost comes from a blocked
    # pass with a 256 KiB scratch.  The ALS sweep adds its projections (a
    # third of a copy here).  Measured: 1.350 copies (2.332 with a run-long
    # residual buffer and a new reconstruction every sweep).
    x, q, criteria = image_case()
    t_h, q_h = mdt(np.where(q, x, 0.0), TAUS), mdt(q, TAUS)
    result, peak = traced_peak(lambda: fixed_rank_fit(t_h, q_h, RANKS, criteria, seed=0))
    assert result.cost_trace[-1][0] == 3
    assert peak <= 1.360 * t_h.nbytes


def test_recover_holds_under_one_and_a_half_embedded_copies():
    # The embedded data and mask are strided views over source-sized arrays,
    # so the whole pipeline peaks where its loop does.  Measured: 1.357
    # copies (3.457 when the embedding copied both) with the paper's fill,
    # 1.340 with the input-space fill.
    x, q, criteria = image_case()
    request = RecoveryRequest(x, q, TAUS, schedule=RANKS, criteria=criteria, seed=0)
    report, peak = traced_peak(lambda: recover(request))
    assert report.cost_trace[-1][0] == 3
    assert peak <= 1.367 * 8 * math.prod(embedded_shape(x.shape, TAUS))


def test_a_plateau_holds_no_more_than_a_sweep():
    # A rank-growing run ranks the modes at each plateau from the fill, through
    # the ALS sweep's projection chain, so it adds no full-size array.  This
    # is the paper's fill, the loop on the embedded data and mask.  At these
    # low ranks the sweeps peak at 1.085 copies (the same run stopped one
    # sweep before its plateau); with the plateau, measured: 1.085 copies
    # (1.092 through recover, which also held the zero-filled input; 2.092
    # when the plateau rebuilt the masked residual beside the fill).
    x, q, _ = image_case()
    energy = float(x[q] @ x[q])
    t_h, q_h = mdt(np.where(q, x, 0.0), TAUS), mdt(q, TAUS)
    result, peak = traced_peak(lambda: complete_with_rank_increment(
        t_h, q_h, default_rank_sequences(t_h.shape), StoppingCriteria(0.0, 1e-2 * energy, 6),
        seed=0))
    assert result.rank_history == [(6, 2, 2)]
    assert peak <= 1.102 * t_h.nbytes


def test_an_input_space_plateau_holds_no_more_than_a_sweep():
    # The same through recover, whose input-space fill takes another
    # trajectory: it maps the model back without reconstructing it, into an
    # input-sized buffer, and then copies H(y) into the one full-size buffer.
    # Measured: 1.082 copies stopped one sweep before the second plateau,
    # 1.085 with it.
    x, q, _ = image_case()
    energy = float(x[q] @ x[q])
    request = RecoveryRequest(x, q, TAUS, criteria=StoppingCriteria(0.0, 1e-2 * energy, 6),
                              seed=0)
    report, peak = traced_peak(lambda: recover(request))
    assert report.rank_history == [(5, 2, 2), (6, 3, 2)]
    assert peak <= 1.102 * 8 * math.prod(embedded_shape(x.shape, TAUS))


@pytest.mark.parametrize("shape, taus, ranks, extra_inputs", [
    ((64, 64, 3), (2, 2, 1), (2, 8, 2, 8, 1, 3), 0.0),
    ((40000,), (2,), (2, 2), 0.5),
])
def test_the_input_fill_at_small_windows_holds_little_beyond_the_papers(shape, taus, ranks,
                                                                        extra_inputs):
    # At windows of 2 the input is a quarter (image) or half (signal) of the
    # embedded tensor, so input-sized arrays weigh.  The input fill holds y
    # and the duplication counts for the run, uses the head of the fill as
    # scratch, and each sweep's map-back makes one more; the paper's fill
    # holds the zero-filled data and a block scratch.  Neither holds under
    # 1.5 embedded copies here: the ALS sweep's projections peak at about 4
    # (image) and 7 (signal) copies with either fill.  Measured, recover over
    # the paper's loop: image 3.741 against 4.141 embedded copies (-1.55
    # input copies), signal 7.074 against 6.920 (+0.31 input copies); the
    # signal's was 9.58 with a run-long scratch and a duplication_counts
    # that stacked four input-sized arrays.
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape)
    q = rng.random(shape) >= 0.5
    criteria = StoppingCriteria(0.0, 0.0, 3)
    schedule = RankSchedule(tuple((r,) for r in ranks))
    _, paper = traced_peak(lambda: complete_with_rank_increment(
        mdt(np.where(q, x, 0.0), taus), mdt(q, taus), schedule, criteria, seed=0))
    request = RecoveryRequest(x, q, taus, schedule=ranks, criteria=criteria, seed=0)
    report, peak = traced_peak(lambda: recover(request))
    assert report.cost_trace[-1][0] == 3
    assert peak <= paper + extra_inputs * x.nbytes


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
    result = complete_with_rank_increment(t, q, default_rank_sequences(t.shape),
                                          StoppingCriteria(0.0, 1e-2 * energy, 40), seed=0)
    assert len(result.rank_history) == 8
    assert len(calls) == len(result.cost_trace)
