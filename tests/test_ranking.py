import contextlib
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hankelfill import (CONVERGED, SCHEDULE_EXHAUSTED, SWEEP_BUDGET, RankSchedule,
                        StoppingCriteria, TuckerModel, default_rank_sequences,
                        default_stopping_criteria, embedded_shape, mdt, recover)
from hankelfill import completion, ranking
from hankelfill.completion import als_sweep, init_model
from hankelfill.ranking import (_checked_embedded_count, _checked_largest_array, mode_residuals,
                               pad_model, select_increment_mode)
from helpers import (is_non_increasing, orthonormality_defect, plain_loop,
                     plain_mode_residuals, planted_tucker, random_mask, relative_criteria,
                     spied_numpy, traced_peak)


class TestStoppingCriteria:
    @pytest.mark.parametrize("epsilon, tol", [(float("nan"), 1.0), (1.0, float("nan")),
                                              (-1.0, 1.0), (1.0, -1e-300),
                                              (float("inf"), 1.0), (1.0, float("inf")),
                                              ("1", 0), (None, 0), (0, 10**400)])
    def test_negative_or_nan_threshold_rejected(self, epsilon, tol):
        # an infinite epsilon would stop at the random start as "converged";
        # a string or None was Python's raw TypeError, and an int beyond
        # float64 is as infinite as inf there
        with pytest.raises(ValueError, match="^epsilon and tol must be nonnegative and finite"):
            StoppingCriteria(epsilon=epsilon, tol=tol)

    @pytest.mark.parametrize("budget", [2.5, 2.0, "3", None])
    def test_non_integer_sweep_budget_rejected(self, budget):
        # a float budget used to pass here and stop the loop with a TypeError
        with pytest.raises(ValueError, match="max_total_sweeps must be an integer"):
            StoppingCriteria(0.0, 0.0, budget)

    @pytest.mark.parametrize("epsilon_rel", [float("nan"), float("inf"), -1.0, "x"])
    def test_default_criteria_reject_a_bad_epsilon_rel(self, epsilon_rel):
        # the error names the argument the caller set, not the scaled epsilon;
        # a string was Python's raw TypeError
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

    def test_a_full_rank_fit_on_the_gram_route_scores_zero_to_rounding_never_below(self):
        # At full ranks every factor is square, so the swept model fits H(y)
        # and every score is 0.  Both pairs take the Gram route (O_n = 16
        # and 18 against L_n = 8 and 7), where a score is ||c - G||^2 plus
        # ||p_m||^2 - ||c||^2: two equal sums that cancel to rounding of
        # either sign, so the difference is clamped at zero (unclamped, all
        # four scores here read about -1e-13).
        shape, taus = (8, 7), (3, 4)
        embedded = embedded_shape(shape, taus)
        y = np.random.default_rng(0).standard_normal(shape)
        model = als_sweep(y, init_model(embedded, embedded, 0))
        values = mode_residuals(y, model)
        eps = np.finfo(np.float64).eps
        bound = 4 * sum(embedded) * eps * (2 * np.linalg.norm(mdt(y, taus))) ** 2
        assert all(0 <= v <= bound for v in values)

    def test_matches_einsum_oracle(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((5, 4, 6))
        x = rng.standard_normal((5, 4, 6))
        q = random_mask(t.shape, 0.5, seed=5)
        # orthonormal, as every fit keeps its factors: the scores rest on it
        factors = [np.linalg.qr(rng.standard_normal(shape))[0]
                   for shape in ((5, 2), (4, 3), (6, 2))]
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
def fixed_rank_cases(draw, max_order=3):
    order = draw(st.integers(1, max_order))
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=order, max_size=order)))
    taus = tuple(draw(st.integers(1, i)) for i in shape)
    ranks = tuple(draw(st.integers(1, j)) for j in embedded_shape(shape, taus))
    return shape, taus, ranks, draw(st.integers(0, 2**32 - 1))


_BUILDERS = ("_embed_mode", "_pair_matrix", "mode_multiply", "complete_orthonormal_basis",
             "_windowed_gram", "_fft_windowed_gram", "np.moveaxis")

# The arrays a builder makes, from its arguments and result, where they are
# not its result: a windowed Gram reads the route's Gram S and makes a
# count x k x L product, its FFT form reads S's n x (n/2 + 1) complex
# transform, 2 n (n/2 + 1) float64s, makes one of its own and an n x n
# inverse, and a pair matrix of two windowed factors pads the window factor,
# W x r, with tau - 1 zero rows on each side.  The Gram route's copy of the
# chain's product T is the size of the view ``np.moveaxis`` returns
# (``helpers.spied_numpy``).
_MADE = {"_windowed_gram": lambda args, g: [args[0].size,
                                            args[2] * args[1].shape[0] * args[0].shape[0]],
         "_fft_windowed_gram": lambda args, g: [2 * args[0].size, args[0].shape[0]**2],
         "_pair_matrix": lambda args, k: [k.size] + (
             [(args[1].shape[0] + 2 * args[0].shape[0] - 2) * args[1].shape[1]]
             if min(args[0].shape[0], args[1].shape[0]) > 1 else [])}


def largest_pair_embedding(embedded, ranks):
    """max_n tau_n W_n O_n: the largest pair embedding at ``ranks``, were no pair routed."""
    pairs = [a * b for a, b in zip(ranks[::2], ranks[1::2])]
    return max(tau * width * math.prod(pairs[:n] + pairs[n + 1:])
               for n, (tau, width) in enumerate(zip(embedded[::2], embedded[1::2])))


def recorded_sizes(run, names=_BUILDERS, modules=(completion,)):
    """``run()``'s result and the sizes of the arrays ``names`` build in ``modules`` meanwhile.

    By default the pair embeddings, the pair matrices, every mode product of
    the chain, every factor matrix, and the Gram route's copy of T, S and
    Gram products.  A name ``np.<f>`` records numpy's ``f`` as ``modules``
    call it.  A name that no module holds is an error, so a builder that is
    renamed or deleted cannot drop out of the record unseen.
    """
    sizes = []
    spied = [name[3:] for name in names if name.startswith("np.")]
    saved = [(module, name, getattr(module, name))
             for module in modules for name in names if hasattr(module, name)]
    assert {name for _, name, _ in saved} | {"np." + name for name in spied} == set(names)

    def recording(name, build):
        def wrapper(*args):
            z = build(*args)
            sizes.extend(_MADE[name](args, z) if name in _MADE else [z.size])
            return z
        return wrapper

    for module, name, build in saved:
        setattr(module, name, recording(name, build))
    try:
        with contextlib.ExitStack() as stack:
            for module, name in itertools.product(modules, spied):
                stack.enter_context(spied_numpy(module, name, lambda z: sizes.append(z.size)))
            result = run()
    finally:
        for module, name, build in saved:
            setattr(module, name, build)
    return result, sizes


@settings(max_examples=100, deadline=None)
@given(case=fixed_rank_cases())
# both windowed pairs on the Gram route; the largest array is input mode
# 1's chain product, 12 x 45
@example(case=((12, 12, 3), (4, 4, 1), (3, 5, 2, 5, 1, 3), 0))
# full ranks, both pairs routed: the largest array is the core, the
# embedded tensor's count
@example(case=((6, 6), (3, 3), (3, 4, 3, 4), 0))
# R_0 = 1: the largest array is input mode 0's padded window factor,
# 10 x 4, above its pair matrix (7 x 4) and pair embedding (4 x 4 x 2)
@example(case=((7, 2), (4, 1), (1, 4, 1, 2), 0))
# pixel-128: both windowed pairs routed and on the FFT form, past the
# form rule's crossover; the largest arrays are the input, the core, input
# mode 2's pair embedding and the chain products, 49,152 elements each
@example(case=((128, 128, 3), (16, 16, 1), (8, 16, 8, 16, 1, 3), 0))
# input mode 0 on the FFT form with O_0 = L_0 = 128: the largest array is
# its Grams' 128 x 65 complex transforms, 16,640 float64s, above the input,
# T and the n x n inverses (16,384)
@example(case=((128, 128), (64, 1), (8, 8, 1, 128), 0))
def test_the_guard_counts_the_largest_pair_embedding_a_sweep_builds(case):
    shape, taus, ranks, seed = case
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(shape)
    q = rng.random(shape) >= 0.3
    assume(q.any())
    # a model seed apart from the data's: on one entry the same draws fit exactly.
    # The run adds what a rank event builds, mode_residuals on the fill
    # y = where(q, t, e), which takes the sweep's route on every pair
    def run():
        report = recover(t, q, taus, RankSchedule(tuple((r,) for r in ranks)),
                         StoppingCriteria(0.0, 0.0, 1), seed=seed + 1)
        mode_residuals(np.where(q, t, report.estimate), report.model)
        return report

    result, sizes = recorded_sizes(run)
    assert result.cost_trace[-1][0] == 1
    # the fill's y, e and scratch array are the input's size
    assert max(sizes + [t.size]) == _checked_largest_array(embedded_shape(shape, taus), ranks)


# (40, 40, 40) with one rank pair of 420 on a mode of length 40: its pair
# matrix grows that mode, so contracted while the other modes are still
# full it would build a product of 672,000 elements
_GROWING_PAIRS = [
    ((1, 20, 1), (1, 1, 20, 21, 1, 1)),  # a later mode's
    ((20, 1, 1), (20, 21, 1, 1, 1, 1)),  # the prefix's
]


@settings(max_examples=300, deadline=None)
@given(case=fixed_rank_cases(max_order=4))
@example(case=((40, 40, 40), *_GROWING_PAIRS[0], 0))
@example(case=((40, 40, 40), *_GROWING_PAIRS[1], 0))
def test_no_chain_product_outgrows_the_input_and_the_pair_embeddings(case):
    # the chain contracts the pair matrices that grow their mode last, so its
    # products shrink from the input, then grow up to a pair embedding
    shape, taus, ranks, seed = case
    embedded = embedded_shape(shape, taus)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(shape)
    model = init_model(ranks, embedded, seed)
    bound = max(y.size, largest_pair_embedding(embedded, ranks))
    for run in (lambda: als_sweep(y, model), lambda: mode_residuals(y, model)):
        _, sizes = recorded_sizes(run, ("_embed_mode", "mode_multiply"), (completion, ranking))
        assert max(sizes) <= bound


@pytest.mark.parametrize("taus, ranks", _GROWING_PAIRS, ids=["a later mode", "the prefix"])
def test_a_pair_matrix_that_grows_its_mode_is_contracted_last(taus, ranks):
    # the pair embeddings and that pair matrix hold 16,800 elements, the
    # input 64,000, and no array of the sweep holds more than 16,800
    shape = (40, 40, 40)
    embedded = embedded_shape(shape, taus)
    assert largest_pair_embedding(embedded, ranks) == 16_800
    assert _checked_largest_array(embedded, ranks) == 64_000
    y = np.random.default_rng(2).standard_normal(shape)
    model = init_model(ranks, embedded, 0)
    _, sizes = recorded_sizes(lambda: als_sweep(y, model))
    assert max(sizes) == 16_800


def test_the_guard_counts_the_matmul_form_a_stage_takes_before_the_fft_form():
    # (64, 64) at tau=12,1: the windowed pair is routed at every stage.  At
    # its start ranks (1, 1) its windowed Grams take the matmul form, two
    # products of 12 x 53 x 64 = 40,704 elements; at the final (8, 32) the
    # FFT form, whose transforms hold 4,224 float64s, and the fit's largest
    # arrays, the core (8 x 32 x 64) among them, hold 16,384
    shape, taus = (64, 64), (12, 1)
    embedded = embedded_shape(shape, taus)
    final, start = (8, 32, 1, 64), (1, 1, 1, 64)
    steps = [completion._chain_plan(embedded, ranks).steps[0] for ranks in (start, final)]
    assert [(step.gram, step.fft) for step in steps] == [(True, 0), (True, 64)]
    assert _checked_largest_array(embedded, final) == 16_384
    assert _checked_largest_array(embedded, final, start) == 40_704
    rng = np.random.default_rng(4)
    t = rng.standard_normal(shape)
    q = rng.random(shape) >= 0.3
    schedule = RankSchedule(((1, 8), (1, 32), (1,), (64,)))
    # every sweep a plateau: two rank events, then a sweep at the final ranks
    report, sizes = recorded_sizes(lambda: recover(t, q, taus, schedule,
                                                   StoppingCriteria(0.0, 1e300, 3), seed=1))
    assert report.ranks == final
    assert max(sizes) == 40_704


def test_the_guard_counts_the_input(monkeypatch):
    # every array but the fill's is within a cap between 16,800 and 64,000
    taus, ranks = _GROWING_PAIRS[0]
    monkeypatch.setattr(ranking, "_ELEMENT_CAP", 20_000)
    with pytest.raises(ValueError, match=r"input-sized array of 64000 elements "
                                         r"\(the input, \(40, 40, 40\)\)"):
        _checked_largest_array(embedded_shape((40, 40, 40), taus), ranks)


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
        assert _checked_embedded_count(embedded) == count


def test_the_guard_counts_the_factor_matrices_and_allocates_nothing():
    # (40000,) at tau=2 embeds to 80k elements, but at ranks (2, 39999), where
    # the default doubling sequences end, the random start alone draws a
    # 39999 x 39999 Gaussian block (12.8 GB)
    t = np.sin(np.arange(40000.0) / 7)
    q = np.ones(40000, bool)
    embedded = embedded_shape((40000,), (2,))
    schedule = default_rank_sequences(embedded)
    assert [seq[-1] for seq in schedule.sequences] == [2, 39999]
    assert _checked_embedded_count(embedded) == 79_998

    def refused():
        with pytest.raises(ValueError, match="factor matrix of 1599920001 elements "
                                             r"\(39999 x 39999 on mode 1\)"):
            recover(t, q, (2,), schedule, StoppingCriteria(0.0, 0.0))

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
    assert _checked_embedded_count(embedded) == 1_501_000


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
