import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelfill import (CONVERGED, SCHEDULE_EXHAUSTED, RankSchedule, RecoveryRequest,
                        StoppingCriteria, complete_with_rank_increment, damped_sine,
                        embedded_shape, make_mask, recover, snr)
from hankelfill.masks import longest_missing_runs
from hankelfill.pipeline import unbridged_gap
from helpers import is_non_increasing, texture_image, traced_peak


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
        # one guard, on the largest array a fit builds: at the default
        # schedule's full ranks the embedded tensor (20000 x 20001 here), at
        # fixed ranks the pair embedding with the other mode contracted
        data = np.zeros((40000, 3))
        mask = np.ones_like(data, bool)
        with pytest.raises(ValueError, match="expansion") as info:
            recover(RecoveryRequest(data=data[:, 0], mask=mask[:, 0], taus=(20000,)))
        assert str(info.value).startswith("embedded tensor would hold 400020000 elements")
        assert str(info.value).endswith("the cap is 200000000. Reduce the windows.")
        with pytest.raises(ValueError) as info:
            recover(RecoveryRequest(data=data, mask=mask, taus=(20000, 1),
                                    schedule=(5, 5, 1, 2)))
        assert str(info.value) == (
            "a fit at ranks (5, 5, 1, 2) would build a pair embedding of 800040000 "
            "elements; the cap is 200000000. Reduce the windows or the ranks.")
        # the loop itself refuses, so a direct call gets the guard too
        schedule = RankSchedule(((5,), (5,), (1,), (2,)))
        with pytest.raises(ValueError, match="pair embedding of 800040000 elements"):
            complete_with_rank_increment(data, mask, (20000, 1), schedule,
                                         StoppingCriteria(0.0, 0.0, 1))

    def test_a_refused_request_allocates_nothing_embedded(self):
        # 400M embedded elements, 10000 copies of the input; the refusal
        # comes after the default thresholds' energy sum and the gap check,
        # which are input-sized.  Measured: 2.67 copies of data and mask.
        data, mask = np.zeros(40000), np.ones(40000, bool)

        def refused():
            with pytest.raises(ValueError, match="would hold 400020000 elements"):
                recover(RecoveryRequest(data=data, mask=mask, taus=(20000,)))

        _, peak = traced_peak(refused)
        assert peak < 3 * (data.nbytes + mask.nbytes)

    def test_fixed_ranks_over_two_hundred_million_embedded_elements_run(self):
        # 100 x 101 x 100 x 101 x 1 x 2 = 204M embedded elements, above the
        # cap; at these ranks the largest array is 100 x 101 x (4 * 4 * 2)
        rng = np.random.default_rng(0)
        data = rng.standard_normal((200, 200, 2))
        mask = rng.random(data.shape) >= 0.5
        report = recover(RecoveryRequest(data=data, mask=mask, taus=(100, 100, 1),
                                         schedule=(4, 4, 4, 4, 1, 2),
                                         criteria=StoppingCriteria(0.0, 0.0, 1)))
        assert report.cost_trace[-1][0] == 1
        assert report.estimate.shape == data.shape

    @pytest.mark.parametrize("call", [
        lambda: embedded_shape((10,), (2.7,)),
        lambda: RankSchedule(((2,), (2.0,))),
        lambda: recover(RecoveryRequest(np.ones(60), np.ones(60, bool), (20.9,))),
        lambda: recover(RecoveryRequest(np.ones(60), np.ones(60, bool), (20,),
                                        schedule=(2.9, 2.2))),
    ], ids=["embedded_shape", "RankSchedule", "recover-windows", "recover-ranks"])
    def test_non_integer_windows_and_ranks_are_errors(self, call):
        # an error, never a silent truncation (window 2.7 to 2, ranks 2.9 to 2)
        with pytest.raises(ValueError, match="must be integer"):
            call()

    def test_numpy_integer_windows_and_ranks_pass(self):
        assert embedded_shape((10,), (np.int64(3),)) == (3, 8)
        assert RankSchedule(((np.int32(2), np.uint8(3)),)).sequences == ((2, 3),)
        report = recover(RecoveryRequest(np.ones(60), np.ones(60, bool), (np.int64(20),),
                                         schedule=(np.int64(1), np.int32(1))))
        assert report.ranks == (1, 1)

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


def naive_runs(q):
    """Per mode, the longest run of slices with no observed entry, slice by slice."""
    runs = []
    for mode in range(q.ndim):
        best = current = 0
        for i in range(q.shape[mode]):
            current = 0 if np.take(q, i, axis=mode).any() else current + 1
            best = max(best, current)
        runs.append(best)
    return runs


@st.composite
def gap_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)))
    taus = tuple(draw(st.integers(1, j)) for j in shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = rng.random(shape) < draw(st.sampled_from([0.3, 0.7, 0.95, 1.0]))
    for _ in range(draw(st.integers(0, 2))):  # carve runs of fully missing slices
        mode = draw(st.integers(0, len(shape) - 1))
        start = draw(st.integers(0, shape[mode] - 1))
        width = draw(st.integers(1, shape[mode] - start))
        index = [slice(None)] * len(shape)
        index[mode] = slice(start, start + width)
        q[tuple(index)] = False
    return q, taus


@settings(max_examples=300, deadline=None)
@given(case=gap_cases())
def test_a_gap_is_reported_exactly_when_no_window_bridges_it(case):
    # No window bridges a run on a window-1 mode.  Every mask with such a
    # run is reported, with its longest run (lowest mode on a tie); no other
    # is, whatever its runs on the other modes.
    q, taus = case
    runs = naive_runs(q)
    assert longest_missing_runs(q) == tuple(runs)
    unbridged = [(mode, run) for mode, (run, tau) in enumerate(zip(runs, taus))
                 if run >= 1 and tau == 1]
    gap = unbridged_gap(q, taus)
    if unbridged:
        longest = max(run for _, run in unbridged)
        assert gap == min((mode, run) for mode, run in unbridged if run == longest)
    else:
        assert gap is None


class TestGapReport:
    def columns_missing(self, count):
        img = texture_image(24)
        mask = make_mask(img.shape, "slices", mode=1, start=10, count=count)
        return img, mask

    @pytest.mark.parametrize("count, tau, gap", [
        (3, 4, None), (4, 4, None), (6, 4, None), (2, 1, (1, 2)),
    ])
    def test_report_names_the_gap(self, count, tau, gap):
        img, mask = self.columns_missing(count)
        report = recover(RecoveryRequest(data=img, mask=mask, taus=(4, tau, 1), seed=0,
                                         criteria=StoppingCriteria(0.0, 0.0, 2)))
        assert report.unbridged_gap == gap

    def test_a_missing_channel_cannot_be_bridged(self):
        img = texture_image(16)
        mask = np.ones(img.shape, bool)
        mask[..., 1] = False
        assert unbridged_gap(mask, (4, 4, 1)) == (2, 1)


def smooth_volume():
    """A 32x32x24 sum of two 3-D sinusoids, unit amplitude."""
    i, j, k = np.meshgrid(np.arange(32), np.arange(32), np.arange(24), indexing="ij")
    return (np.sin(0.31 * i + 0.17 * j + 0.23 * k + 0.4)
            + np.sin(0.12 * i - 0.27 * j + 0.35 * k + 1.1)) / 2


@pytest.mark.parametrize("taus, bridged", [((4, 4, 4), True), ((1, 1, 1), False)])
def test_an_order_3_volume_recovers_missing_slices(taus, bridged):
    # The layout of the paper's fMRI experiment: slices 10-12 of mode 2
    # missing.  Windows on all three modes embed to order 6 and bridge the
    # run; windows of 1 leave the slices with nothing observed, and the
    # report says so.  Measured gap RMSE: 4.5e-4 at tau=(4,4,4) (converged
    # after 111 sweeps), 0.49 at tau=(1,1,1).
    vol = smooth_volume()
    mask = np.ones(vol.shape, bool)
    mask[:, :, 10:13] = False
    report = recover(RecoveryRequest(data=vol, mask=mask, taus=taus, seed=0))
    assert report.status == CONVERGED
    assert len(report.ranks) == 6
    rmse = float(np.sqrt(np.mean((report.estimate - vol)[~mask] ** 2)))
    if bridged:
        assert report.unbridged_gap is None
        assert rmse < 5e-3
    else:
        assert report.unbridged_gap == (2, 3)
        assert rmse > 0.25
