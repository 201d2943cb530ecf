import numpy as np
import pytest

from hankelfill import damped_sine, linear_interpolate_gaps, mdt


class TestDampedSine:
    def test_zero_amplitude_is_zero_vector(self):
        v = damped_sine(64, amplitude=0.0)
        np.testing.assert_array_equal(v, np.zeros(64))

    def test_matches_closed_form(self):
        v = damped_sine(10, amplitude=2.0, decay=0.1, omega=0.7, phase=0.2)
        t = np.arange(10.0)
        np.testing.assert_allclose(v, 2.0 * np.exp(-0.1 * t) * np.sin(0.7 * t + 0.2),
                                   atol=0)

    def test_noise_is_seeded(self):
        a = damped_sine(50, seed=5, noise=0.1)
        b = damped_sine(50, seed=5, noise=0.1)
        c = damped_sine(50, seed=6, noise=0.1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_hankel_rank_two(self):
        # a noiseless sinusoid embeds to a numerically rank-2 Hankel matrix
        v = damped_sine(120, decay=0.01, omega=0.6)
        h = mdt(v, (8,))
        sigma = np.linalg.svd(h, compute_uv=False)
        assert sigma[2] < 1e-8 * sigma[0]


class TestSineMixture:
    def test_mixture_hankel_rank_four(self):
        # two sinusoids embed to rank four: the ranks of the parts add
        v = (damped_sine(150, decay=0.0, omega=0.4)
             + damped_sine(150, amplitude=0.8, decay=0.0, omega=1.3))
        h = mdt(v, (10,))
        sigma = np.linalg.svd(h, compute_uv=False)
        assert sigma[4] < 1e-8 * sigma[0]
        assert sigma[3] > 1e-6 * sigma[0]


class TestValidation:
    def test_unknown_parameter(self):
        with pytest.raises(TypeError, match="wavelength"):
            damped_sine(10, wavelength=3)

    @pytest.mark.parametrize("noise", [-0.1, float("nan"), float("inf")])
    def test_a_negative_or_non_finite_noise_is_refused(self, noise):
        # NaN passed a bare noise < 0 test and returned a signal of NaNs
        with pytest.raises(ValueError, match=f"^noise std must be nonnegative and finite, "
                                             f"got {noise}$"):
            damped_sine(4, noise=noise)

    def test_bad_length(self):
        with pytest.raises(ValueError, match="length"):
            damped_sine(0)


class TestLinearInterpolateGaps:
    def test_fills_interior_gap_linearly(self):
        v = np.array([0.0, 1.0, 0.0, 0.0, 4.0])
        observed = np.array([True, True, False, False, True])
        out = linear_interpolate_gaps(v, observed)
        np.testing.assert_allclose(out, [0.0, 1.0, 2.0, 3.0, 4.0], atol=1e-12)

    def test_extends_edges_with_nearest_value(self):
        v = np.array([0.0, 5.0, 7.0, 0.0])
        observed = np.array([False, True, True, False])
        out = linear_interpolate_gaps(v, observed)
        np.testing.assert_allclose(out, [5.0, 5.0, 7.0, 7.0], atol=0)

    def test_observed_samples_pass_through(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(20)
        observed = rng.random(20) > 0.4
        observed[0] = True
        out = linear_interpolate_gaps(v, observed)
        np.testing.assert_array_equal(out[observed], v[observed])

    def test_all_missing_rejected(self):
        with pytest.raises(ValueError, match="no observed"):
            linear_interpolate_gaps(np.zeros(4), np.zeros(4, bool))
