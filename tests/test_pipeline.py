import warnings

import numpy as np
import pytest

from hankelfill import (CONVERGED, SCHEDULE_EXHAUSTED, RecoveryRequest, StoppingCriteria,
                        damped_sine, make_mask, recover, snr)
from helpers import is_non_increasing, texture_image


def small_signal_request(**overrides):
    truth = damped_sine(120, decay=0.005, omega=0.55, phase=0.3)
    mask = np.ones(120, bool)
    mask[50:70] = False
    defaults = dict(data=truth, mask=mask, taus=(30,), seed=0)
    defaults.update(overrides)
    return truth, RecoveryRequest(**defaults)


class TestRecover:
    def test_fully_observed_low_rank_input_passes_through(self):
        truth = damped_sine(100, decay=0.01, omega=0.5)
        req = RecoveryRequest(data=truth, mask=np.ones(100, bool), taus=(20,),
                              schedule=(2, 2), seed=0)
        report = recover(req)
        assert report.status == CONVERGED
        assert np.linalg.norm(report.estimate - truth) <= 1e-6 * np.linalg.norm(truth)

    def test_fixed_ranks_obey_epsilon(self):
        # the rank-(2, 2) start already meets a huge epsilon: no sweep runs
        truth, req = small_signal_request(
            schedule=(2, 2), criteria=StoppingCriteria(epsilon=1e30, tol=1e30))
        report = recover(req)
        assert report.status == CONVERGED
        assert report.cost_trace[-1][0] == 0
        assert report.ranks == (2, 2)

    def test_fixed_ranks_stop_at_plateau(self):
        # nothing to grow: the first plateau ends the run at the given ranks
        truth, req = small_signal_request(
            schedule=(1, 1), criteria=StoppingCriteria(epsilon=0.0, tol=1e30))
        report = recover(req)
        assert report.status == SCHEDULE_EXHAUSTED
        assert report.cost_trace[-1][0] == 1
        assert report.rank_history == []

    def test_gap_recovery_beats_flat_fill(self):
        truth, req = small_signal_request()
        report = recover(req)
        gap = slice(50, 70)
        rmse = np.sqrt(np.mean((report.estimate[gap] - truth[gap]) ** 2))
        assert rmse < 0.05
        assert snr(truth, report.estimate) > 20.0

    def test_estimate_shape_and_finiteness(self):
        img = texture_image(24)
        mask = make_mask(img.shape, "slices", mode=1, start=10, count=3)
        report = recover(RecoveryRequest(data=img, mask=mask, taus=(4, 4, 1),
                                         schedule=(4, 8, 4, 8, 1, 3), seed=1))
        assert report.estimate.shape == img.shape
        assert np.all(np.isfinite(report.estimate))

    def test_embedded_shape_of_image_request(self):
        img = texture_image(64)
        mask = np.ones(img.shape, bool)
        report = recover(RecoveryRequest(data=img, mask=mask, taus=(8, 8, 1),
                                         schedule=(2, 2, 2, 2, 1, 2), seed=0))
        # embedded space is (8, 57, 8, 57, 1, 3); terminal ranks live there
        assert len(report.ranks) == 6
        assert report.estimate.shape == (64, 64, 3)

    def test_observed_entries_come_from_the_model(self):
        # a deliberately under-ranked fit cannot interpolate the observed data,
        # so the output must differ from the input there (no re-clamping)
        rng = np.random.default_rng(2)
        data = rng.standard_normal((40,))
        mask = np.ones(40, bool)
        mask[10:14] = False
        req = RecoveryRequest(data=data, mask=mask, taus=(8,), schedule=(1, 1), seed=0)
        report = recover(req)
        assert np.abs(report.estimate[mask] - data[mask]).max() > 1e-3

    def test_embedded_size_guard(self):
        data = np.zeros((64, 64))
        req = RecoveryRequest(data=data, mask=np.ones_like(data, bool), taus=(32, 32),
                              max_embedded_elements=10_000)
        with pytest.raises(ValueError, match="expansion") as info:
            recover(req)
        assert str(info.value).endswith("Reduce the windows or raise max_embedded_elements.")
        # a NaN cap compares false and would let every size through
        for cap in (float("nan"), 1e9, 2.5, 0, -1, None):
            req.max_embedded_elements = cap
            with pytest.raises(ValueError, match="max_embedded_elements must be an integer >= 1"):
                recover(req)

    def test_empty_mask_rejected(self):
        truth = damped_sine(60, decay=0.01, omega=0.5)
        with pytest.raises(ValueError, match="mask observes no entry"):
            recover(RecoveryRequest(data=truth, mask=np.zeros(60, bool), taus=(20,)))

    def test_all_zero_observed_data_give_zeros_at_sweep_zero(self):
        # the zero model fits zero data exactly; the missing entries are not
        # left to the random start
        data = np.zeros(60)
        data[20:30] = 7.0  # missing, so never read
        mask = np.ones(60, bool)
        mask[20:30] = False
        report = recover(RecoveryRequest(data=data, mask=mask, taus=(20,)))
        assert report.status == CONVERGED
        assert report.cost_trace == [(0, 0.0)]
        assert not report.estimate.any()

    def test_overflowing_cost_with_caller_thresholds_is_one_error(self):
        # thresholds of the caller's own skip the observed energy; the masked
        # cost of the start overflows instead, and never recovers
        truth, req = small_signal_request(criteria=StoppingCriteria(0, 0, 50))
        req.data = 1e160 * truth
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(ValueError, match="overflows float64; rescale the data"):
                recover(req)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differs"):
            recover(RecoveryRequest(data=np.zeros((4, 4)), mask=np.ones((4, 5), bool),
                                    taus=(2, 2)))

    def test_non_finite_data_rejected(self):
        data = np.zeros(10)
        data[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            recover(RecoveryRequest(data=data, mask=np.ones(10, bool), taus=(2,)))

    def test_report_carries_trace_and_history(self):
        truth, req = small_signal_request(
            criteria=StoppingCriteria(epsilon=1e-10, tol=1e-8, max_total_sweeps=400))
        report = recover(req)
        assert is_non_increasing(report.cost_trace)
        assert report.rank_history  # gap forces at least one increment
        assert report.wall_time_s > 0.0

    def test_deterministic_across_runs(self):
        truth, req_a = small_signal_request()
        _, req_b = small_signal_request()
        a = recover(req_a)
        b = recover(req_b)
        assert np.array_equal(a.estimate, b.estimate)
        assert a.cost_trace == b.cost_trace
