import math

import numpy as np
import pytest

from hankelfill import mean_ssim, psnr, snr, ssim_map
from helpers import naive_ssim_map


class TestPsnr:
    def test_identical_inputs_give_inf(self):
        x = np.arange(12.0).reshape(3, 4)
        assert psnr(x, x, 255.0) == math.inf

    def test_full_scale_error_is_zero_db(self):
        ref = np.zeros((4, 4))
        est = np.full((4, 4), 255.0)
        assert psnr(ref, est, 255.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(0)
        ref = rng.uniform(0, 255, (6, 7))
        est = rng.uniform(0, 255, (6, 7))
        mse = np.mean((ref - est) ** 2)
        assert psnr(ref, est, 255.0) == pytest.approx(10 * np.log10(255.0**2 / mse),
                                                      abs=1e-10)

    def test_depends_only_on_difference_and_peak(self):
        rng = np.random.default_rng(1)
        ref = rng.uniform(0, 200, (5, 5))
        est = ref + rng.uniform(-10, 10, (5, 5))
        shifted = psnr(ref + 30.0, est + 30.0, 255.0)
        assert psnr(ref, est, 255.0) == pytest.approx(shifted, abs=1e-10)

    def test_invalid_peak(self):
        # a NaN peak would give a NaN score, an infinite one +inf dB
        for peak in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="peak must be positive and finite"):
                psnr(np.zeros((2, 2)), np.ones((2, 2)), peak)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            psnr(np.zeros((2, 2)), np.zeros((2, 3)), 255.0)


class TestSnr:
    def test_identical_inputs_give_inf(self):
        x = np.arange(1.0, 9.0)
        assert snr(x, x) == math.inf

    def test_zero_estimate_is_zero_db(self):
        rng = np.random.default_rng(2)
        ref = rng.standard_normal((4, 5))
        assert snr(ref, np.zeros_like(ref)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(3)
        ref = rng.standard_normal((6, 3))
        est = ref + 0.1 * rng.standard_normal((6, 3))
        expected = 10 * np.log10((ref**2).sum() / ((ref - est) ** 2).sum())
        assert snr(ref, est) == pytest.approx(expected, abs=1e-10)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            snr(np.zeros((3, 3)), np.ones((3, 3)))


class TestSsim:
    def test_identical_images_score_one(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 255, (16, 16))
        smap, score = ssim_map(x, x)
        assert score == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(smap, 1.0, atol=1e-12)

    def test_negated_zero_mean_pattern_scores_negative(self):
        # fast oscillation: local means vanish, so negation flips the
        # structure term without touching luminance
        i, j = np.meshgrid(np.arange(20), np.arange(20), indexing="ij")
        x = 100.0 * np.sin(3.0 * (i + j))
        _, score = ssim_map(x, -x)
        assert score < -0.9

    def test_matches_naive_oracle_gaussian(self):
        rng = np.random.default_rng(6)
        ref = rng.uniform(0, 255, (16, 16))
        est = np.clip(ref + rng.normal(0, 25, (16, 16)), 0, 255)
        smap, _ = ssim_map(ref, est)
        np.testing.assert_allclose(smap, naive_ssim_map(ref, est), atol=1e-8)

    def test_peak_scales_the_stabilizers(self):
        # scaling data and peak together leaves every SSIM term's ratio alone
        rng = np.random.default_rng(7)
        ref = rng.uniform(0, 1, (16, 16))
        est = np.clip(ref + rng.normal(0, 0.1, (16, 16)), 0, 1)
        smap, _ = ssim_map(ref, est, peak=1.0)
        np.testing.assert_allclose(smap, naive_ssim_map(ref, est, peak=1.0), atol=1e-8)
        np.testing.assert_allclose(smap, ssim_map(255 * ref, 255 * est)[0], rtol=1e-12)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(8)
        ref = rng.uniform(0, 255, (24, 24))
        est = rng.uniform(0, 255, (24, 24))
        smap, score = ssim_map(ref, est)
        assert -1.0 - 1e-9 <= smap.min() and smap.max() <= 1.0 + 1e-9
        assert -1.0 <= score <= 1.0

    def test_flat_windows_are_stable(self):
        # constant images have zero local variance; stabilizers handle it
        _, score = ssim_map(np.full((12, 12), 80.0), np.full((12, 12), 80.0))
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_image_smaller_than_window(self):
        with pytest.raises(ValueError, match="smaller than"):
            ssim_map(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_invalid_peak(self):
        for peak in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="peak must be positive and finite"):
                ssim_map(np.zeros((12, 12)), np.zeros((12, 12)), peak=peak)


class TestMeanSsim:
    def test_identical_tensors_score_one(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 255, (16, 16, 3))
        assert mean_ssim(x, x, slice_mode=2) == pytest.approx(1.0, abs=1e-12)

    def test_equals_mean_of_per_slice_scores(self):
        rng = np.random.default_rng(10)
        ref = rng.uniform(0, 255, (16, 16, 4))
        est = rng.uniform(0, 255, (16, 16, 4))
        per_slice = [ssim_map(ref[:, :, k], est[:, :, k])[1] for k in range(4)]
        assert mean_ssim(ref, est, slice_mode=2) == pytest.approx(np.mean(per_slice),
                                                                  rel=1e-12)

    def test_single_slice_equals_plain_ssim(self):
        rng = np.random.default_rng(11)
        ref = rng.uniform(0, 255, (16, 16, 1))
        est = rng.uniform(0, 255, (16, 16, 1))
        assert mean_ssim(ref, est, slice_mode=2) == pytest.approx(
            ssim_map(ref[:, :, 0], est[:, :, 0])[1], rel=1e-12)

    def test_permutation_invariant_over_slices(self):
        rng = np.random.default_rng(12)
        ref = rng.uniform(0, 255, (16, 16, 5))
        est = rng.uniform(0, 255, (16, 16, 5))
        perm = [3, 0, 4, 1, 2]
        assert mean_ssim(ref, est, 2) == pytest.approx(
            mean_ssim(ref[:, :, perm], est[:, :, perm], 2), rel=1e-12)

    def test_slice_mode_zero(self):
        rng = np.random.default_rng(13)
        ref = rng.uniform(0, 255, (3, 16, 16))
        est = rng.uniform(0, 255, (3, 16, 16))
        per_slice = [ssim_map(ref[k], est[k])[1] for k in range(3)]
        assert mean_ssim(ref, est, slice_mode=0) == pytest.approx(np.mean(per_slice),
                                                                  rel=1e-12)
