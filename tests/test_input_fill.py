"""The input-space fill: y = where(q, t, H^+ X), then a sweep on z = H(y).

The loop is block-coordinate descent on F(X, y) = ||H(y) - X||^2 over the
Tucker model X and the missing entries of y; these properties pin that down
and the cheap way the loop takes F.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hankelfill import (CONVERGED, SCHEDULE_EXHAUSTED, SWEEP_BUDGET, RankSchedule,
                        StoppingCriteria, TuckerModel, complete_with_rank_increment,
                        default_rank_sequences, embedded_shape, init_model, inverse_mdt, mdt)
from hankelfill import ranking


@st.composite
def input_cases(draw, max_size=7):
    order = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, max_size), min_size=order, max_size=order)))
    taus = tuple(draw(st.integers(1, j)) for j in shape)
    embedded = embedded_shape(shape, taus)
    if draw(st.booleans()):
        schedule = default_rank_sequences(embedded)
    else:
        schedule = RankSchedule(tuple(
            tuple(sorted(draw(st.sets(st.integers(1, j), min_size=1, max_size=j))))
            for j in embedded))
    missing = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8]))
    tol_rel = draw(st.sampled_from([0.0, 1e-6, 1e-3, 1e-1]))
    return shape, taus, schedule, missing, tol_rel, draw(st.integers(0, 2**32 - 1))


def data(shape, missing, seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(shape)
    q = rng.random(shape) >= missing
    assume(q.any())  # an empty mask is an error, not a fit
    return t, q


def direct_cost(t, q, taus, model):
    """F = ||H(y) - X||^2 at the fill y = where(q, t, inverse_mdt(X)), at full size."""
    x = model.reconstruct()
    y = np.where(q, t, inverse_mdt(x))
    d = (mdt(y, taus) - x).ravel()
    return float(d @ d), y


def run(case):
    """The loop on the case, with every model it made: the start, then each sweep's."""
    shape, taus, schedule, missing, tol_rel, seed = case
    t, q = data(shape, missing, seed)
    criteria = StoppingCriteria(epsilon=0.0, tol=tol_rel * float(t[q] @ t[q]),
                                max_total_sweeps=15)
    models = []

    def recording(make):
        def wrapped(*args, **kwargs):
            models.append(make(*args, **kwargs))
            return models[-1]
        return wrapped

    saved = ranking.init_model, ranking.als_sweep
    ranking.init_model, ranking.als_sweep = map(recording, saved)
    try:
        result = complete_with_rank_increment(t, q, taus, schedule, criteria, seed=seed)
    finally:
        ranking.init_model, ranking.als_sweep = saved
    assert len(models) == len(result.cost_trace)
    return t, q, result, models


def norm2(a):
    return float(np.ravel(a) @ np.ravel(a))


@settings(max_examples=80, deadline=None)
@given(case=input_cases())
def test_cost_never_increases_across_sweeps_and_increments(case):
    # F's rounding error is relative to ||X||^2 = ||core||^2, not to F: its
    # off-Hankel term cancels two sums of that size.  A missing entry keeps
    # the random start's value until a window links it to data, so ||X||^2
    # can far exceed the data's energy and F; the slack scales with it.
    *_, result, models = run(case)
    costs = [f for _, f in result.cost_trace]
    slack = 1e-12 * (costs[0] + max(norm2(model.core) for model in models))
    assert all(after <= before + slack for before, after in zip(costs, costs[1:]))
    assert [s for s, _ in result.cost_trace] == list(range(len(costs)))
    assert result.status in (CONVERGED, SCHEDULE_EXHAUSTED, SWEEP_BUDGET)


@settings(max_examples=80, deadline=None)
@given(case=input_cases())
def test_every_rank_event_lands_on_its_sequence(case):
    schedule = case[2]
    *_, result, _ = run(case)
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


@settings(max_examples=60, deadline=None)
@given(case=input_cases(max_size=6))
def test_cost_trace_is_the_full_size_cost_of_each_sweeps_model(case):
    # The loop sums F without a full-size pass: the observed misfit weighted
    # by duplication counts, plus ||core||^2 - sum D e^2.  The oracle builds
    # H(y) and X.  The second term cancels two sums of the size of ||X||^2,
    # so the bound is relative to that scale and to ||H(y)||^2; the worst
    # seen over 3000 random cases was 1.3e-15 of it.
    t, q, result, models = run(case)
    taus = case[1]
    for model, (_, value) in zip(models, result.cost_trace):
        oracle, y = direct_cost(t, q, taus, model)
        assert abs(value - oracle) <= 1e-13 * (norm2(model.core) + norm2(mdt(y, taus)))


@settings(max_examples=60, deadline=None)
@given(case=input_cases(max_size=6))
def test_the_estimate_is_the_last_fills_map_back(case):
    # The run returns the map-back e = H^+ X that its last fill computed,
    # for the last model a sweep made; a pad after that fill leaves the
    # model's map-back unchanged up to rounding.
    t, q, result, models = run(case)
    assert result.estimate.shape == t.shape
    last = inverse_mdt(models[-1].reconstruct())
    scale = max(1.0, np.abs(last).max())
    np.testing.assert_allclose(result.estimate, last, rtol=0, atol=1e-12 * scale)
    final = inverse_mdt(result.model.reconstruct())
    np.testing.assert_allclose(result.estimate, final, rtol=0, atol=1e-12 * scale)


@settings(max_examples=80, deadline=None)
@given(case=input_cases(max_size=6), data_=st.data())
def test_the_fill_is_the_least_squares_fill_for_a_fixed_model(case, data_):
    # For a fixed X, y = where(q, t, H^+ X) minimizes ||H(y') - X||^2 over
    # every y' that agrees with t on q: the dense least-squares solution over
    # the missing entries matches it, and no perturbation of them does better.
    shape, taus, _, missing, _, seed = case
    t, q = data(shape, missing, seed)
    embedded = embedded_shape(shape, taus)
    ranks = tuple(data_.draw(st.integers(1, j)) for j in embedded)
    model = init_model(ranks, embedded, seed)
    z, value, e = ranking._input_space_imputation(t, q, taus)(model)
    x = model.reconstruct()
    y = np.where(q, t, inverse_mdt(x))
    scale = max(1.0, np.abs(x).max())
    np.testing.assert_allclose(e, inverse_mdt(x), rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(z, mdt(y, taus), rtol=0, atol=1e-12 * scale)

    # H as a dense matrix: column i is H of the i-th unit input
    h = np.stack([mdt(np.eye(t.size)[i].reshape(shape), taus).ravel()
                  for i in range(t.size)], axis=1)
    free = ~q.ravel()
    rhs = x.ravel() - h[:, ~free] @ t.ravel()[~free]
    best = y.ravel().copy()
    if free.any():
        best[free] = np.linalg.lstsq(h[:, free], rhs, rcond=None)[0]
    np.testing.assert_allclose(best, y.ravel(), rtol=0,
                               atol=1e-10 * max(1.0, np.abs(x).max()))

    def cost_at(fill):
        d = h @ fill - x.ravel()
        return float(d @ d)

    floor = cost_at(y.ravel())
    hy = h @ y.ravel()
    assert abs(value - floor) <= 1e-13 * (float(x.ravel() @ x.ravel()) + float(hy @ hy))
    rng = np.random.default_rng(seed + 1)
    for _ in range(5):
        other = y.ravel().copy()
        other[free] += rng.standard_normal(int(free.sum())) * rng.choice([1e-6, 1e-2, 1.0])
        assert cost_at(other) >= floor - 1e-12 * max(1.0, floor)


def count_reconstructs(monkeypatch):
    calls = []
    reconstruct = TuckerModel.reconstruct

    def counting(model, out=None):
        calls.append(model.ranks)
        return reconstruct(model, out=out)

    monkeypatch.setattr(TuckerModel, "reconstruct", counting)
    return calls


def growing_run(shape, taus):
    rng = np.random.default_rng(3)
    t = rng.standard_normal(shape)
    q = rng.random(shape) >= 0.3
    energy = float(t[q] @ t[q])
    return complete_with_rank_increment(t, q, taus,
                                        default_rank_sequences(embedded_shape(shape, taus)),
                                        StoppingCriteria(0.0, 1e-2 * energy, 12), seed=0)


def test_a_large_fill_never_reconstructs_the_model(monkeypatch):
    # Above _BINCOUNT_ELEMENTS the model maps back through inverse_mdt_tucker:
    # no sweep, fill or plateau builds the embedded reconstruction.
    shape, taus = (40, 40), (10, 10)
    assert np.prod(embedded_shape(shape, taus)) > ranking._BINCOUNT_ELEMENTS
    calls = count_reconstructs(monkeypatch)
    result = growing_run(shape, taus)
    assert result.rank_history  # plateaus ran too
    assert len(result.cost_trace) > 1
    assert calls == []


def test_a_small_fill_reconstructs_once_per_fill(monkeypatch):
    # At or below _BINCOUNT_ELEMENTS the reconstruction, written into the fill,
    # is averaged back by one bincount: one reconstruct per fill, none at a
    # plateau.
    shape, taus = (12, 9), (4, 3)
    assert np.prod(embedded_shape(shape, taus)) <= ranking._BINCOUNT_ELEMENTS
    calls = count_reconstructs(monkeypatch)
    result = growing_run(shape, taus)
    assert result.rank_history
    assert len(calls) == len(result.cost_trace)


@pytest.mark.parametrize("shape, taus", [((12, 9), (4, 3)), ((40, 40), (10, 10))])
def test_both_map_backs_give_the_same_run(monkeypatch, shape, taus):
    # The size rule only picks how H^+ X is taken: forcing the other map-back
    # changes the run by rounding, not by its trajectory.
    runs = []
    for block in (0, 10**9):
        monkeypatch.setattr(ranking, "_BINCOUNT_ELEMENTS", block)
        runs.append(growing_run(shape, taus))
    (a, b) = runs
    assert a.rank_history == b.rank_history and a.status == b.status
    fa, fb = (np.array([f for _, f in r.cost_trace]) for r in runs)
    np.testing.assert_allclose(fa, fb, rtol=1e-9)


def test_all_zero_observed_data_converge_at_sweep_zero():
    t = np.zeros((10, 6))
    t[2:4] = 5.0  # missing, so never read
    q = np.ones(t.shape, bool)
    q[2:4] = False
    result = complete_with_rank_increment(t, q, (4, 3), default_rank_sequences((4, 7, 3, 4)),
                                          StoppingCriteria(0.0, 0.0))
    assert result.cost_trace == [(0, 0.0)]
    assert not result.model.core.any()


def test_schedule_is_checked_against_the_embedded_shape():
    t, q = np.ones((10, 6)), np.ones((10, 6), bool)
    with pytest.raises(ValueError, match="schedule covers 2 modes, tensor has 4"):
        complete_with_rank_increment(t, q, (4, 3), default_rank_sequences((10, 6)),
                                     StoppingCriteria(0.0, 0.0))
    with pytest.raises(ValueError, match="mode 1 sequence tops out at 8"):
        complete_with_rank_increment(t, q, (4, 3), RankSchedule(((1,), (8,), (1,), (1,))),
                                     StoppingCriteria(0.0, 0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_observed_value_is_one_error(bad):
    # With thresholds of the caller's own no energy is taken before the
    # loop, so the loop itself names the value before sweep 0; a non-finite
    # value at a missing entry is never read.
    t = np.sin(0.3 * np.arange(40.0))
    q = np.ones(40, bool)
    q[20:25] = False
    t[22] = bad
    result = complete_with_rank_increment(t, q, (8,), default_rank_sequences((8, 33)),
                                          StoppingCriteria(0.0, 0.0, 5))
    assert np.isfinite(result.estimate).all()
    t[3] = bad
    with pytest.raises(ValueError, match=r"observed values must be finite \(no NaN/Inf\)"):
        complete_with_rank_increment(t, q, (8,), default_rank_sequences((8, 33)),
                                     StoppingCriteria(0.0, 0.0, 5))
