import numpy as np
import pytest

from hankelfill import SWEEP_BUDGET, StoppingCriteria, TuckerModel, mdt
from hankelfill.completion import als_sweep, auxiliary_fill, cost, init_model
from hankelfill.core import mode_multiply
from hankelfill.linalg import apply_sign_convention
from helpers import (fixed_rank_fit, initial_cost, is_non_increasing, masked_cost,
                     orthonormality_defect, plain_als_sweep, planted_tucker, random_mask,
                     random_orthonormal)


class TestCost:
    """The cost of the masked residual z - x, with z the imputed tensor."""

    def test_zero_when_model_matches(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((3, 4))
        q = rng.random((3, 4)) > 0.5
        assert cost(auxiliary_fill(t, q, t) - t) == 0.0

    def test_zero_when_nothing_observed(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((3, 4))
        x = rng.standard_normal((3, 4))
        assert cost(auxiliary_fill(t, np.zeros((3, 4), bool), x) - x) == 0.0

    def test_matches_masked_loop_oracle(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((3, 4, 2))
        x = rng.standard_normal((3, 4, 2))
        q = rng.random((3, 4, 2)) > 0.4
        acc = 0.0
        for idx in np.ndindex(*t.shape):
            if q[idx]:
                acc += (t[idx] - x[idx]) ** 2
        assert cost(auxiliary_fill(t, q, x) - x) == pytest.approx(acc, rel=1e-12)


class TestAuxiliaryFill:
    def test_all_observed_returns_data(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((4, 4))
        x = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(auxiliary_fill(t, np.ones((4, 4), bool), x), t)

    def test_none_observed_returns_model(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((4, 4))
        x = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(auxiliary_fill(t, np.zeros((4, 4), bool), x), x)

    def test_mixed_mask_entrywise(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((3, 5))
        x = rng.standard_normal((3, 5))
        q = rng.random((3, 5)) > 0.5
        z = auxiliary_fill(t, q, x)
        for idx in np.ndindex(3, 5):
            assert z[idx] == (t[idx] if q[idx] else x[idx])

    def test_observed_entries_exact_during_fit(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((5, 5, 5))
        q = random_mask(t.shape, 0.5, 7)
        model = init_model((2, 2, 2), t.shape, seed=0)
        for _ in range(4):
            z = auxiliary_fill(t, q, model.reconstruct())
            np.testing.assert_array_equal(z[q], t[q])
            model = plain_als_sweep(z, model)


class TestInitModel:
    def test_all_ones_ranks_shapes(self):
        model = init_model((1, 1, 1), (4, 5, 6), seed=0)
        assert model.core.shape == (1, 1, 1)
        assert [u.shape for u in model.factors] == [(4, 1), (5, 1), (6, 1)]

    def test_same_seed_bitwise_identical(self):
        a = init_model((2, 3), (6, 7), seed=11)
        b = init_model((2, 3), (6, 7), seed=11)
        assert np.array_equal(a.core, b.core)
        for ua, ub in zip(a.factors, b.factors):
            assert np.array_equal(ua, ub)

    def test_factors_orthonormal(self):
        model = init_model((3, 2, 4), (8, 5, 9), seed=2)
        for u in model.factors:
            assert orthonormality_defect(u) < 1e-10

    def test_factors_are_the_seeded_gaussian_blocks_orthonormalized(self):
        # pins the seeded start: one Gaussian block per non-singleton mode, in
        # mode order, then the core, all from one stream
        shape, ranks = (8, 1, 5, 9), (3, 1, 2, 4)
        model = init_model(ranks, shape, seed=12)
        rng = np.random.default_rng(12)
        for u, j, r in zip(model.factors, shape, ranks):
            if j > 1:
                expected = apply_sign_convention(np.linalg.qr(rng.standard_normal((j, r)))[0])
                assert np.array_equal(u, expected)
        assert np.array_equal(model.core, rng.standard_normal(ranks))

    def test_singleton_mode_gets_identity(self):
        model = init_model((2, 1, 2), (5, 1, 4), seed=3)
        np.testing.assert_array_equal(model.factors[1], np.ones((1, 1)))

    def test_rank_exceeding_dimension(self):
        with pytest.raises(ValueError, match="out of range"):
            init_model((5,), (4,), seed=0)

    def test_non_integer_rank_is_an_error_not_truncated(self):
        # int(2.7) made this a rank-2 model
        with pytest.raises(ValueError, match="ranks must be integers"):
            init_model((2.7, 3), (5, 5), 0)


class TestAlsSweep:
    def residual(self, z, model):
        return float(np.linalg.norm(z - model.reconstruct())) ** 2

    def test_fixed_point_keeps_zero_residual(self):
        model = init_model((2, 2), (5, 6), seed=4)
        z = model.reconstruct()
        swept = plain_als_sweep(z, model)
        assert self.residual(z, swept) < 1e-20

    def test_exact_tucker_target_reached(self):
        z = planted_tucker((7, 6, 5), (2, 2, 2), data_seed=8)
        model = init_model((2, 2, 2), z.shape, seed=9)
        for _ in range(50):
            model = plain_als_sweep(z, model)
            if self.residual(z, model) < 1e-16:
                break
        assert self.residual(z, model) < 1e-8

    def test_single_sweep_never_increases_residual(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((5, 4, 6))
            z /= np.linalg.norm(z)
            model = init_model((2, 3, 2), z.shape, seed=seed + 1000)
            before = self.residual(z, model)
            after = self.residual(z, plain_als_sweep(z, model))
            assert after <= before + 1e-12

    def test_factors_stay_orthonormal(self):
        rng = np.random.default_rng(10)
        z = rng.standard_normal((6, 5, 4))
        model = init_model((3, 2, 2), z.shape, seed=0)
        for _ in range(5):
            model = plain_als_sweep(z, model)
            for u in model.factors:
                assert orthonormality_defect(u) < 1e-10

    def test_rank_above_projected_width_is_handled(self):
        # right after an increment a mode can ask for more vectors than the
        # projected unfolding is wide; the basis completion covers the gap
        rng = np.random.default_rng(11)
        z = rng.standard_normal((6, 5, 4))
        model = init_model((3, 1, 1), z.shape, seed=1)
        swept = plain_als_sweep(z, model)
        assert swept.factors[0].shape == (6, 3)
        assert orthonormality_defect(swept.factors[0]) < 1e-10

    def test_dimension_mismatch(self):
        model = init_model((2, 2), (5, 6), seed=0)
        with pytest.raises(ValueError, match="does not match"):
            plain_als_sweep(np.zeros((5, 7)), model)


class TestTuckerComplete:
    """Fixed-rank fits: the sweep loop on one-element rank sequences."""

    def test_fully_observed_planted_model_fits_exactly(self):
        t = planted_tucker((8, 8, 8), (2, 2, 2), data_seed=12)
        q = np.ones(t.shape, bool)
        tol = 1e-14 * max(1.0, initial_cost(t, q, (2, 2, 2), seed=1))
        result = fixed_rank_fit(t, q, (2, 2, 2), StoppingCriteria(0.0, tol, 200), seed=1)
        assert result.cost_trace[-1][1] < 1e-10
        assert is_non_increasing(result.cost_trace)

    def test_all_observed_equals_plain_als(self):
        # with a full mask the imputation is a no-op and the loop is plain ALS
        rng = np.random.default_rng(13)
        t = rng.standard_normal((6, 5, 4))
        q = np.ones(t.shape, bool)
        result = fixed_rank_fit(t, q, (2, 2, 2), StoppingCriteria(0.0, 0.0, 7), seed=3)
        assert result.status == SWEEP_BUDGET
        assert result.rank_history == []
        manual = init_model((2, 2, 2), t.shape, seed=3)
        for _ in range(7):
            np.testing.assert_array_equal(auxiliary_fill(t, q, manual.reconstruct()), t)
            manual = plain_als_sweep(t, manual)
        assert np.array_equal(result.model.core, manual.core)
        for a, b in zip(result.model.factors, manual.factors):
            assert np.array_equal(a, b)

    def test_hidden_entries_recovered(self):
        t = planted_tucker((8, 8, 8), (2, 2, 2), data_seed=14)
        q = random_mask(t.shape, 0.3, seed=15)
        tol = 1e-15 * max(1.0, initial_cost(t, q, (2, 2, 2), seed=2))
        result = fixed_rank_fit(t, q, (2, 2, 2), StoppingCriteria(0.0, tol, 3000), seed=2)
        x = result.model.reconstruct()
        hidden = ~q
        rel = np.linalg.norm((x - t)[hidden]) / np.linalg.norm(t[hidden])
        assert rel < 1e-6
        assert is_non_increasing(result.cost_trace)

    def test_trace_starts_at_sweep_zero(self):
        t = planted_tucker((5, 5, 5), (2, 2, 2), data_seed=17)
        q = random_mask(t.shape, 0.2, seed=18)
        result = fixed_rank_fit(t, q, (2, 2, 2), StoppingCriteria(0.0, 0.0, 10), seed=0)
        trace = result.cost_trace
        assert trace[0][0] == 0
        assert [s for s, _ in trace] == list(range(len(trace)))


class TestMajorization:
    def surrogate(self, t, q, x_new, x_old):
        masked = masked_cost(t, q, x_new)
        filled = float(((~q) * (x_old - x_new) ** 2).sum())
        return masked + filled

    def test_touches_cost_at_same_point(self):
        rng = np.random.default_rng(19)
        t = rng.standard_normal((4, 5, 3))
        q = random_mask(t.shape, 0.4, seed=20)
        x = init_model((2, 2, 2), t.shape, seed=21).reconstruct()
        assert self.surrogate(t, q, x, x) == pytest.approx(masked_cost(t, q, x), rel=1e-12)

    def test_dominates_cost_elsewhere(self):
        rng = np.random.default_rng(22)
        t = rng.standard_normal((4, 5, 3))
        q = random_mask(t.shape, 0.4, seed=23)
        for seed in range(10):
            x_new = init_model((2, 2, 2), t.shape, seed=seed).reconstruct()
            x_old = init_model((2, 2, 2), t.shape, seed=seed + 50).reconstruct()
            assert self.surrogate(t, q, x_new, x_old) >= masked_cost(t, q, x_new) - 1e-12


def test_reconstruction_invariant_under_orthogonal_rotation():
    rng = np.random.default_rng(24)
    model = init_model((2, 3, 2), (6, 7, 5), seed=25)
    rot = random_orthonormal(rng, 3, 3)
    rotated = TuckerModel(mode_multiply(model.core, rot, 1),
                          [model.factors[0], model.factors[1] @ rot.T, model.factors[2]])
    np.testing.assert_allclose(rotated.reconstruct(), model.reconstruct(), atol=1e-10)


@pytest.mark.parametrize("shape, taus", [((60,), (20,)), ((12, 10), (4, 3))])
def test_a_rank_one_sweep_is_one_power_step(shape, taus):
    # At ranks (1, ..., 1) each factor update is one step of the higher-order
    # power method on Z = H(y): u_m is Z contracted with every other factor,
    # those before m already updated, over its norm; the core is, up to sign,
    # the norm of the last contraction. On an order-1 input, u0 ~ Z u1 (the
    # start's u1), u1 ~ Z^T u0 and |core| = ||Z^T u0||.
    y = np.random.default_rng(26).standard_normal(shape)
    z = mdt(y, taus)
    model = init_model((1,) * z.ndim, z.shape, seed=27)
    swept = als_sweep(y, model)
    factors = [u[:, 0] for u in model.factors]
    for m in range(z.ndim):
        v = z
        for k in reversed(range(z.ndim)):  # from the last mode, so the indexes hold
            if k != m:
                v = np.tensordot(v, factors[k], axes=([k], [0]))
        u = swept.factors[m][:, 0]
        direction = v / np.linalg.norm(v)
        assert np.abs(u - np.sign(u @ v) * direction).max() <= 1e-13
        factors[m] = u
    assert abs(abs(swept.core.item()) - np.linalg.norm(v)) <= 1e-13 * np.linalg.norm(v)
