import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hankelfill import (CONVERGED, SCHEDULE_EXHAUSTED, SWEEP_BUDGET, RankSchedule,
                        StoppingCriteria, TuckerModel, als_sweep, complete_with_rank_increment,
                        default_rank_sequences, default_stopping_criteria, embedded_shape,
                        init_model, pad_model, select_increment_mode)
from hankelfill import completion, ranking
from hankelfill.ranking import _checked_largest_array
from helpers import (is_non_increasing, orthonormality_defect, plain_loop,
                     plain_mode_residuals, planted_tucker, random_mask, relative_criteria,
                     traced_peak)


class TestStoppingCriteria:
    @pytest.mark.parametrize("epsilon, tol", [(float("nan"), 1.0), (1.0, float("nan")),
                                              (-1.0, 1.0), (1.0, -1e-300),
                                              (float("inf"), 1.0), (1.0, float("inf"))])
    def test_negative_or_nan_threshold_rejected(self, epsilon, tol):
        # an infinite epsilon would stop at the random start as "converged"
        with pytest.raises(ValueError, match="must be nonnegative and finite"):
            StoppingCriteria(epsilon=epsilon, tol=tol)

    @pytest.mark.parametrize("budget", [2.5, 2.0, "3", None])
    def test_non_integer_sweep_budget_rejected(self, budget):
        # a float budget used to pass here and stop the loop with a TypeError
        with pytest.raises(ValueError, match="max_total_sweeps must be an integer"):
            StoppingCriteria(0.0, 0.0, budget)

    @pytest.mark.parametrize("epsilon_rel", [float("nan"), float("inf"), -1.0])
    def test_default_criteria_reject_a_bad_epsilon_rel(self, epsilon_rel):
        # the error names the argument the caller set, not the scaled epsilon
        with pytest.raises(ValueError, match=r"epsilon_rel must be nonnegative and finite"):
            default_stopping_criteria(np.ones(8), np.ones(8, bool), (2,),
                                      epsilon_rel=epsilon_rel)

    def test_integer_sweep_budget_of_any_integer_type_accepted(self):
        assert StoppingCriteria(0.0, 0.0, np.int64(3)).max_total_sweeps == 3
        with pytest.raises(ValueError, match=">= 1"):
            StoppingCriteria(0.0, 0.0, 0)


class TestDefaultRankSequences:
    def test_doubling_to_32(self):
        sched = default_rank_sequences((32,))
        assert sched.sequences[0] == (1, 2, 4, 8, 16, 32)

    def test_singleton_mode(self):
        sched = default_rank_sequences((1, 5))
        assert sched.sequences[0] == (1,)

    def test_doubling_then_cap_225(self):
        sched = default_rank_sequences((225,))
        assert sched.sequences[0] == (1, 2, 4, 8, 16, 32, 64, 128, 225)

    def test_non_power_cap(self):
        sched = default_rank_sequences((3,))
        assert sched.sequences[0] == (1, 2, 3)


class TestRankSchedule:
    def test_rejects_non_increasing_sequence(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RankSchedule(((1, 2, 2),))

    def test_is_immutable(self):
        # a run's progress lives in its model's ranks, never in the schedule
        sched = RankSchedule([[1, 2]])
        assert sched.sequences == ((1, 2),)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sched.sequences = ((1,),)


class TestModeResiduals:
    def test_zero_when_fit_is_exact(self):
        # an exact fit leaves a zero masked residual
        factors = [np.eye(s, 2) for s in (5, 6, 4)]
        model = TuckerModel(np.zeros((2, 2, 2)), factors)
        assert plain_mode_residuals(np.zeros((5, 6, 4)), model) == [0.0, 0.0, 0.0]

    def test_identity_factors_give_plain_residual(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((4, 5, 3))
        x = rng.standard_normal((4, 5, 3))
        q = random_mask(t.shape, 0.4, seed=3)
        factors = [np.eye(s) for s in t.shape]
        masked = float((((t - x) * q) ** 2).sum())
        model = TuckerModel(np.zeros(t.shape), factors)
        for value in plain_mode_residuals(np.where(q, t - x, 0.0), model):
            assert value == pytest.approx(masked, rel=1e-12)

    def test_matches_einsum_oracle(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((5, 4, 6))
        x = rng.standard_normal((5, 4, 6))
        q = random_mask(t.shape, 0.5, seed=5)
        factors = [rng.standard_normal((5, 2)), rng.standard_normal((4, 3)),
                   rng.standard_normal((6, 2))]
        r = np.where(q, t - x, 0.0)
        u0, u1, u2 = factors
        oracle = [
            float((np.einsum("abc,bj,ck->ajk", r, u1, u2) ** 2).sum()),
            float((np.einsum("abc,ai,ck->ibk", r, u0, u2) ** 2).sum()),
            float((np.einsum("abc,ai,bj->ijc", r, u0, u1) ** 2).sum()),
        ]
        model = TuckerModel(np.zeros((2, 3, 2)), factors)
        np.testing.assert_allclose(plain_mode_residuals(r, model), oracle, rtol=1e-10)


class TestSelectIncrementMode:
    def test_argmax_with_headroom(self):
        sched = RankSchedule(((1, 2), (1, 2), (1, 2)))
        assert select_increment_mode([5.0, 9.0, 2.0], sched, (1, 1, 1)) == 1

    def test_tie_break_lowest_index(self):
        sched = RankSchedule(((1, 2), (1, 2), (1, 2)))
        assert select_increment_mode([9.0, 9.0, 2.0], sched, (1, 1, 1)) == 0

    def test_saturated_mode_excluded(self):
        sched = RankSchedule(((1, 2), (1, 2), (1, 2)))
        assert select_increment_mode([5.0, 9.0, 2.0], sched, (1, 2, 1)) == 0

    def test_all_saturated_raises(self):
        sched = RankSchedule(((1,), (2,)))
        with pytest.raises(ValueError, match="exhausted"):
            select_increment_mode([1.0, 2.0], sched, (1, 2))

    def test_representability_guard_blocks_runaway_mode(self):
        # ranks (2, 1, 1): mode 0 already exceeds the product of the others,
        # so even with the largest residual it must not be grown again
        sched = RankSchedule(((1, 2, 4), (1, 2), (1, 2)))
        assert select_increment_mode([100.0, 5.0, 2.0], sched, (2, 1, 1)) == 1

    def test_guard_falls_back_at_all_ones(self):
        sched = RankSchedule(((1, 2), (1, 2), (1, 2)))
        # at (1, 1, 1) every mode sits on the bound; plain argmax applies
        assert select_increment_mode([1.0, 5.0, 2.0], sched, (1, 1, 1)) == 1


class TestPadModel:
    def test_reconstruction_preserved(self):
        model = init_model((2, 2), (6, 7), seed=0)
        before = model.reconstruct()
        padded = pad_model(model, 0, 4, seed=1)
        np.testing.assert_allclose(padded.reconstruct(), before, atol=1e-12)

    def test_padded_factor_orthonormal(self):
        model = init_model((2, 3, 2), (6, 7, 5), seed=2)
        padded = pad_model(model, 1, 6, seed=3)
        assert padded.factors[1].shape == (7, 6)
        assert orthonormality_defect(padded.factors[1]) < 1e-10

    def test_existing_columns_untouched(self):
        model = init_model((1, 2), (4, 5), seed=4)
        padded = pad_model(model, 0, 2, seed=5)
        assert padded.factors[0].shape == (4, 2)
        np.testing.assert_array_equal(padded.factors[0][:, :1], model.factors[0])

    def test_core_zero_padded(self):
        model = init_model((2, 2), (6, 7), seed=6)
        padded = pad_model(model, 1, 3, seed=7)
        assert padded.core.shape == (2, 3)
        np.testing.assert_array_equal(padded.core[:, :2], model.core)
        np.testing.assert_array_equal(padded.core[:, 2], 0.0)

    def test_rank_bounds(self):
        model = init_model((2, 2), (6, 7), seed=8)
        with pytest.raises(ValueError, match="out of range"):
            pad_model(model, 0, 2, seed=9)  # not an increase
        with pytest.raises(ValueError, match="out of range"):
            pad_model(model, 0, 7, seed=9)  # exceeds rows


class TestCompleteWithRankIncrement:
    def test_planted_model_recovered(self):
        t = planted_tucker((8, 8, 8), (1, 3, 2), data_seed=10)
        q = random_mask(t.shape, 0.2, seed=11)
        criteria = relative_criteria(t, q, (1, 1, 1), epsilon_rel=1e-12, tol_rel=1e-10)
        result = plain_loop(t, q, default_rank_sequences(t.shape), criteria, seed=5)
        assert result.status == CONVERGED
        assert all(r >= p for r, p in zip(result.model.ranks, (1, 3, 2)))
        x = result.model.reconstruct()
        hidden = ~q
        rel = np.linalg.norm((x - t)[hidden]) / np.linalg.norm(t[hidden])
        assert rel < 1e-4

    def test_generous_epsilon_returns_at_rank_one(self):
        t = planted_tucker((6, 6, 6), (2, 2, 2), data_seed=12)
        q = random_mask(t.shape, 0.1, seed=13)
        observed_energy = float(t[q] @ t[q])
        criteria = StoppingCriteria(epsilon=10 * observed_energy, tol=1e-9)
        result = plain_loop(t, q, default_rank_sequences(t.shape), criteria, seed=0)
        assert result.status == CONVERGED
        assert result.model.ranks == (1, 1, 1)
        assert len(result.cost_trace) == 1  # initial cost already below epsilon

    def test_trace_monotone_across_increments(self):
        t = planted_tucker((7, 6, 5), (2, 2, 2), data_seed=14)
        q = random_mask(t.shape, 0.3, seed=15)
        criteria = relative_criteria(t, q, (1, 1, 1), epsilon_rel=1e-10, tol_rel=1e-8)
        result = plain_loop(t, q, default_rank_sequences(t.shape), criteria, seed=1)
        assert result.rank_history  # at least one increment happened
        assert is_non_increasing(result.cost_trace)

    def test_ranks_nondecreasing_and_on_sequence(self):
        t = planted_tucker((7, 6, 5), (2, 2, 2), data_seed=16)
        q = random_mask(t.shape, 0.3, seed=17)
        schedule = default_rank_sequences(t.shape)
        criteria = relative_criteria(t, q, (1, 1, 1), epsilon_rel=1e-10, tol_rel=1e-8)
        result = plain_loop(t, q, schedule, criteria, seed=2)
        ranks = [1, 1, 1]
        for _, mode, new_rank in result.rank_history:
            assert new_rank > ranks[mode]
            assert new_rank in schedule.sequences[mode]
            ranks[mode] = new_rank
        assert tuple(ranks) == result.model.ranks

    def test_increments_only_after_plateau(self):
        t = planted_tucker((7, 6, 5), (2, 2, 2), data_seed=18)
        q = random_mask(t.shape, 0.3, seed=19)
        criteria = relative_criteria(t, q, (1, 1, 1), epsilon_rel=1e-10, tol_rel=1e-8)
        result = plain_loop(t, q, default_rank_sequences(t.shape), criteria, seed=3)
        costs = dict(result.cost_trace)
        for sweep, _, _ in result.rank_history:
            assert abs(costs[sweep] - costs[sweep - 1]) <= criteria.tol

    def test_schedule_exhausted_status(self):
        rng = np.random.default_rng(20)
        t = rng.standard_normal((6, 6, 6))  # full-rank noise, unreachable epsilon
        q = random_mask(t.shape, 0.2, seed=21)
        schedule = RankSchedule(((1, 2), (1, 2), (1, 2)))
        criteria = StoppingCriteria(epsilon=0.0, tol=1e-3, max_total_sweeps=500)
        result = plain_loop(t, q, schedule, criteria, seed=4)
        assert result.status == SCHEDULE_EXHAUSTED
        assert result.model.ranks == (2, 2, 2)

    def test_sweep_budget_status(self):
        rng = np.random.default_rng(22)
        t = rng.standard_normal((6, 6, 6))
        q = random_mask(t.shape, 0.2, seed=23)
        criteria = StoppingCriteria(epsilon=0.0, tol=0.0, max_total_sweeps=5)
        result = plain_loop(t, q, default_rank_sequences(t.shape), criteria, seed=5)
        assert result.status == SWEEP_BUDGET
        assert result.cost_trace[-1][0] == 5

    def test_input_schedule_not_mutated(self):
        t = planted_tucker((6, 6, 6), (2, 2, 2), data_seed=24)
        q = random_mask(t.shape, 0.3, seed=25)
        schedule = default_rank_sequences(t.shape)
        before = dataclasses.replace(schedule)
        criteria = default_stopping_criteria(t, q, (1, 1, 1), epsilon_rel=1e-8)
        result = plain_loop(t, q, schedule, criteria, seed=6)
        assert result.rank_history  # the run grew some rank
        assert schedule == before

    def test_empty_mask_rejected(self):
        # with nothing observed every model has cost 0; the loop must not
        # return its random start as converged
        t = np.arange(30.0).reshape(5, 6)
        with pytest.raises(ValueError, match="mask observes no entry"):
            plain_loop(t, np.zeros(t.shape, bool), default_rank_sequences(t.shape),
                       StoppingCriteria(epsilon=0.0, tol=0.0), seed=0)

    def test_sequence_exceeding_mode_size_rejected(self):
        t = np.zeros((4, 4))
        q = np.ones((4, 4), bool)
        with pytest.raises(ValueError, match="tops out"):
            plain_loop(t, q, RankSchedule(((1, 5), (1, 2))),
                       StoppingCriteria(epsilon=0.0, tol=0.0), seed=0)


@st.composite
def fixed_rank_cases(draw):
    order = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=order, max_size=order)))
    taus = tuple(draw(st.integers(1, i)) for i in shape)
    ranks = tuple(draw(st.integers(1, j)) for j in embedded_shape(shape, taus))
    return shape, taus, ranks, draw(st.integers(0, 2**32 - 1))


_BUILDERS = ("_embed_mode", "_pair_matrix", "mode_multiply", "complete_orthonormal_basis")


def recorded_sizes(run):
    """``run()``'s result and the sizes of the arrays ``completion`` builds meanwhile.

    Records the pair embeddings, the pair matrices, every mode product of
    the chain and every factor matrix.
    """
    sizes = []
    saved = [getattr(completion, name) for name in _BUILDERS]

    def recording(build):
        def wrapper(*args):
            z = build(*args)
            sizes.append(z.size)
            return z
        return wrapper

    for name, build in zip(_BUILDERS, saved):
        setattr(completion, name, recording(build))
    try:
        result = run()
    finally:
        for name, build in zip(_BUILDERS, saved):
            setattr(completion, name, build)
    return result, sizes


@settings(max_examples=100, deadline=None)
@given(case=fixed_rank_cases())
def test_the_guard_counts_the_largest_pair_embedding_a_sweep_builds(case):
    shape, taus, ranks, seed = case
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(shape)
    q = rng.random(shape) >= 0.3
    assume(q.any())
    # a model seed apart from the data's: on one entry the same draws fit exactly
    result, sizes = recorded_sizes(lambda: complete_with_rank_increment(
        t, q, taus, RankSchedule(tuple((r,) for r in ranks)), StoppingCriteria(0.0, 0.0, 1),
        seed=seed + 1))
    assert result.cost_trace[-1][0] == 1
    assert max(sizes) == _checked_largest_array(embedded_shape(shape, taus), ranks)


@pytest.mark.parametrize("taus, ranks, where", [
    # K_1 contracts input mode 1 of the input into 420 rows before mode 2 is contracted
    ((1, 20, 1), (1, 1, 20, 21, 1, 1), r"shape \(40, 420, 40\), projecting onto input mode 0"),
    # the prefix contracts input mode 0 into 420 rows; modes 1 and 2 are still full
    ((20, 1, 1), (20, 21, 1, 1, 1, 1), r"shape \(420, 40, 40\), the prefix of input modes 0..0"),
], ids=["a later mode", "the prefix"])
def test_the_guard_counts_a_chain_product_that_outgrows_the_pair_embeddings(
        taus, ranks, where, monkeypatch):
    # (40, 40, 40): the pair embeddings hold 16,800 elements and the input
    # 64,000, but one rank pair of 420 exceeds its mode's length of 40, and
    # the chain contracts it while the other modes are still full
    shape = (40, 40, 40)
    embedded = embedded_shape(shape, taus)
    assert _checked_largest_array(embedded, ranks, fit=False) == 16_800
    assert _checked_largest_array(embedded, ranks) == 672_000
    y = np.random.default_rng(2).standard_normal(shape)
    model = init_model(ranks, embedded, 0)
    _, sizes = recorded_sizes(lambda: als_sweep(y, model))
    assert max(sizes) == 672_000
    monkeypatch.setattr(ranking, "_ELEMENT_CAP", 671_999)
    with pytest.raises(ValueError, match=f"intermediate product of 672000 elements \\({where}"):
        _checked_largest_array(embedded, ranks)


@settings(max_examples=200, deadline=None)
@given(shape=st.lists(st.integers(1, 400), min_size=1, max_size=4), data=st.data())
def test_at_default_schedules_the_guard_counts_the_embedded_tensor_and_the_pair_matrices(
        shape, data):
    # the doubling sequences end at the mode sizes, so a request without
    # explicit ranks is judged on its embedded element count, its largest
    # factor matrix, J_m x J_m at full ranks, and, on order >= 2, its
    # largest pair matrix, L_n x tau_n W_n; the chain's products are no
    # larger than the embedded tensor at full ranks
    taus = tuple(data.draw(st.integers(1, i)) for i in shape)
    embedded = embedded_shape(shape, taus)
    final = [seq[-1] for seq in default_rank_sequences(embedded).sequences]
    count = math.prod(embedded)
    factor = max(j * j for j in embedded)
    kernel = 0 if len(shape) == 1 else max(
        i * tau * (i - tau + 1) for i, tau in zip(shape, taus))
    if max(count, factor, kernel) <= 200_000_000:
        assert _checked_largest_array(embedded, final) == max(count, factor, kernel)
    elif count > 200_000_000:
        with pytest.raises(ValueError, match=f"embedded tensor would hold {count} elements"):
            _checked_largest_array(embedded, final)
    elif factor > 200_000_000:
        with pytest.raises(ValueError, match=f"factor matrix of {factor} elements"):
            _checked_largest_array(embedded, final)
    else:
        with pytest.raises(ValueError, match=f"pair matrix of {kernel} elements"):
            _checked_largest_array(embedded, final)
    # CLI embed writes the embedded tensor alone and counts nothing else
    if count <= 200_000_000:
        assert _checked_largest_array(embedded, final, fit=False) == count


def test_the_guard_counts_the_factor_matrices_and_allocates_nothing():
    # (40000,) at tau=2 embeds to 80k elements, but at ranks (2, 39999), where
    # the default doubling sequences end, the random start alone draws a
    # 39999 x 39999 Gaussian block (12.8 GB)
    t = np.sin(np.arange(40000.0) / 7)
    q = np.ones(40000, bool)
    embedded = embedded_shape((40000,), (2,))
    schedule = default_rank_sequences(embedded)
    assert [seq[-1] for seq in schedule.sequences] == [2, 39999]
    assert _checked_largest_array(embedded, (2, 39999), fit=False) == 79_998

    def refused():
        with pytest.raises(ValueError, match="factor matrix of 1599920001 elements "
                                             r"\(39999 x 39999 on mode 1\)"):
            complete_with_rank_increment(t, q, (2,), schedule, StoppingCriteria(0.0, 0.0))

    _, peak = traced_peak(refused)
    assert peak < 100_000


def test_the_guard_counts_the_pair_matrices_and_allocates_nothing():
    # (2000, 2) at tau=(500, 1) embeds to 1.5M elements, but the chain's K_0
    # is 2000 x 500 * 1501, 1.5e9 elements (12 GB); the pair embeddings alone
    # would pass
    embedded = embedded_shape((2000, 2), (500, 1))
    assert math.prod(embedded) == 1_501_000

    def refused():
        with pytest.raises(ValueError, match="pair matrix of 1501000000 elements "
                                             r"\(2000 x 750500 on input mode 0\)"):
            _checked_largest_array(embedded, embedded)

    _, peak = traced_peak(refused)
    assert peak < 100_000
    assert _checked_largest_array(embedded, embedded, fit=False) == 1_501_000


def test_a_sweep_at_full_ranks_peaks_near_the_guard_count():
    # (400, 2) at tau=(100, 1): the pair embeddings hold 60,200 elements,
    # K_0 12.04M.  K_0 is built in its final layout, so a traced sweep holds
    # it once and peaks just above the count (measured: 1.03x, 405x the
    # pair embeddings).
    shape, taus = (400, 2), (100, 1)
    embedded = embedded_shape(shape, taus)
    count = _checked_largest_array(embedded, embedded)
    assert count == 400 * 100 * 301
    rng = np.random.default_rng(0)
    y = rng.standard_normal(shape)
    model = init_model(embedded, embedded, 0)
    _, peak = traced_peak(lambda: als_sweep(y, model))
    assert peak <= 1.1 * 8 * count
