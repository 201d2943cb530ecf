import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hankelfill import completion, pipeline
from hankelfill import (CONVERGED, SCHEDULE_EXHAUSTED, RankSchedule, RecoveryReport,
                        StoppingCriteria, damped_sine,
                        default_rank_sequences, default_stopping_criteria, embedded_shape,
                        make_mask, recover, snr)
from hankelfill.masks import longest_missing_runs, unbridged_gap
from helpers import is_non_increasing, texture_image, traced_peak


def small_signal_request(**overrides):
    """The truth and ``recover``'s keyword arguments for a 120-sample signal gap."""
    truth = damped_sine(120, decay=0.005, omega=0.55, phase=0.3)
    mask = np.ones(120, bool)
    mask[50:70] = False
    defaults = dict(data=truth, mask=mask, taus=(30,), seed=0)
    defaults.update(overrides)
    return truth, defaults


class TestRecover:
    def test_fully_observed_low_rank_input_passes_through(self):
        truth = damped_sine(100, decay=0.01, omega=0.5)
        report = recover(truth, np.ones(100, bool), (20,), schedule=(2, 2), seed=0)
        assert report.status == CONVERGED
        assert np.linalg.norm(report.estimate - truth) <= 1e-6 * np.linalg.norm(truth)

    def test_fixed_ranks_obey_epsilon(self):
        # the rank-(2, 2) start already meets a huge epsilon: no sweep runs
        truth, req = small_signal_request(
            schedule=(2, 2), criteria=StoppingCriteria(epsilon=1e30, tol=1e30))
        report = recover(**req)
        assert report.status == CONVERGED
        assert report.cost_trace[-1][0] == 0
        assert report.ranks == (2, 2)

    def test_fixed_ranks_stop_at_plateau(self):
        # nothing to grow: the first plateau ends the run at the given ranks
        truth, req = small_signal_request(
            schedule=(1, 1), criteria=StoppingCriteria(epsilon=0.0, tol=1e30))
        report = recover(**req)
        assert report.status == SCHEDULE_EXHAUSTED
        assert report.cost_trace[-1][0] == 1
        assert report.rank_history == []

    def test_gap_recovery_beats_flat_fill(self):
        truth, req = small_signal_request()
        report = recover(**req)
        gap = slice(50, 70)
        rmse = np.sqrt(np.mean((report.estimate[gap] - truth[gap]) ** 2))
        assert rmse < 0.05
        assert snr(truth, report.estimate) > 20.0

    def test_estimate_shape_and_finiteness(self):
        img = texture_image(24)
        mask = make_mask(img.shape, "slices", mode=1, start=10, count=3)
        report = recover(img, mask, (4, 4, 1), schedule=(4, 8, 4, 8, 1, 3), seed=1)
        assert report.estimate.shape == img.shape
        assert np.all(np.isfinite(report.estimate))

    def test_embedded_shape_of_image_request(self):
        img = texture_image(64)
        mask = np.ones(img.shape, bool)
        report = recover(img, mask, (8, 8, 1), schedule=(2, 2, 2, 2, 1, 2), seed=0)
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
        report = recover(data, mask, (8,), schedule=(1, 1), seed=0)
        assert np.abs(report.estimate[mask] - data[mask]).max() > 1e-3

    def test_embedded_size_guard(self):
        # one guard, on the largest array a fit builds: at the default
        # schedule's full ranks the embedded tensor (20000 x 20001 here), at
        # fixed ranks the pair embedding with the other mode contracted
        data = np.zeros((40000, 3))
        mask = np.ones_like(data, bool)
        with pytest.raises(ValueError, match="expansion") as info:
            recover(data[:, 0], mask[:, 0], (20000,))
        assert str(info.value).startswith("embedded tensor would hold 400020000 elements")
        assert str(info.value).endswith("the cap is 200000000. Reduce the windows.")
        with pytest.raises(ValueError) as info:
            recover(data, mask, (20000, 1), schedule=(5, 5, 1, 2))
        assert str(info.value) == (
            "a fit at ranks (5, 5, 1, 2) would build a pair embedding of 800040000 "
            "elements; the cap is 200000000. Reduce the windows or the ranks.")
        # a RankSchedule and explicit thresholds meet the same guard
        schedule = RankSchedule(((5,), (5,), (1,), (2,)))
        with pytest.raises(ValueError, match="pair embedding of 800040000 elements"):
            recover(data, mask, (20000, 1), schedule,
                    StoppingCriteria(0.0, 0.0, 1))

    def test_a_refused_request_allocates_nothing_embedded(self):
        # 400M embedded elements, 10000 copies of the input; the refusal
        # comes before the default thresholds' energy sum and the gap
        # check, so nothing input-sized is made.  Measured: 0.012 copies of
        # data and mask.
        data, mask = np.zeros(40000), np.ones(40000, bool)

        def refused():
            with pytest.raises(ValueError, match="would hold 400020000 elements"):
                recover(data, mask, (20000,))

        _, peak = traced_peak(refused)
        assert peak < 0.5 * (data.nbytes + mask.nbytes)

    def test_fixed_ranks_over_two_hundred_million_embedded_elements_run(self):
        # 100 x 101 x 100 x 101 x 1 x 2 = 204M embedded elements, above the
        # cap; at these ranks the largest array is 100 x 101 x (4 * 4 * 2)
        rng = np.random.default_rng(0)
        data = rng.standard_normal((200, 200, 2))
        mask = rng.random(data.shape) >= 0.5
        report = recover(data, mask, (100, 100, 1), schedule=(4, 4, 4, 4, 1, 2),
                         criteria=StoppingCriteria(0.0, 0.0, 1))
        assert report.cost_trace[-1][0] == 1
        assert report.estimate.shape == data.shape

    @pytest.mark.parametrize("call", [
        lambda: embedded_shape((10,), (2.7,)),
        lambda: RankSchedule(((2,), (2.0,))),
        lambda: recover(np.ones(60), np.ones(60, bool), (20.9,)),
        lambda: recover(np.ones(60), np.ones(60, bool), (20,), schedule=(2.9, 2.2)),
        lambda: recover(np.ones(60), np.ones(60, bool), (20,), schedule=5),
    ], ids=["embedded_shape", "RankSchedule", "recover-windows", "recover-ranks",
            "recover-schedule"])
    def test_non_integer_windows_and_ranks_are_errors(self, call):
        # an error, never a silent truncation (window 2.7 to 2, ranks 2.9 to 2);
        # a schedule of one int was Python's raw "'int' object is not iterable"
        with pytest.raises(ValueError, match="must be integer"):
            call()

    def test_numpy_integer_windows_and_ranks_pass(self):
        assert embedded_shape((10,), (np.int64(3),)) == (3, 8)
        assert RankSchedule(((np.int32(2), np.uint8(3)),)).sequences == ((2, 3),)
        report = recover(np.ones(60), np.ones(60, bool), (np.int64(20),),
                         schedule=(np.int64(1), np.int32(1)))
        assert report.ranks == (1, 1)

    @pytest.mark.parametrize("seed, message", [
        (1.5, "seed must be an integer, got 1.5"),
        ("3", "seed must be an integer, got '3'"),
        (-1, "seed must be nonnegative, got -1"),
    ])
    def test_a_seed_that_is_not_a_nonnegative_integer_is_refused_first(self, seed, message):
        # numpy's own TypeError or ValueError, raised at the random start,
        # named no argument; the seed is now read before the data, so even
        # a NaN mask and a fit above the size cap meet this error first
        _, req = small_signal_request(seed=seed)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            recover(**req)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            recover(np.ones(40000), np.full(40000, np.nan), (2,), schedule=(2, 39999),
                    seed=seed)

    def test_a_numpy_integer_seed_gives_the_run_of_the_python_int(self):
        _, req = small_signal_request(criteria=StoppingCriteria(1e-10, 1e-8, 30))
        given_int = recover(**dict(req, seed=3))
        given_numpy = recover(**dict(req, seed=np.int64(3)))
        assert given_numpy.estimate.tobytes() == given_int.estimate.tobytes()
        assert given_numpy.cost_trace == given_int.cost_trace
        assert given_numpy.rank_history == given_int.rank_history

    def test_empty_mask_rejected(self):
        truth = damped_sine(60, decay=0.01, omega=0.5)
        with pytest.raises(ValueError, match="mask observes no entry"):
            recover(truth, np.zeros(60, bool), (20,))

    def test_all_zero_observed_data_give_zeros_at_sweep_zero(self):
        # the zero model fits zero data exactly; the missing entries are not
        # left to the random start
        data = np.zeros(60)
        data[20:30] = 7.0  # missing, so never read
        mask = np.ones(60, bool)
        mask[20:30] = False
        report = recover(data, mask, (20,))
        assert report.status == CONVERGED
        assert report.cost_trace == [(0, 0.0)]
        assert not report.estimate.any()

    def test_overflowing_cost_with_caller_thresholds_is_one_error(self):
        # thresholds of the caller's own skip the observed energy; the masked
        # cost of the start overflows instead, and never recovers
        truth, req = small_signal_request(criteria=StoppingCriteria(0, 0, 50))
        req["data"] = 1e160 * truth
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(ValueError, match="overflows float64; rescale the data"):
                recover(**req)

    @pytest.mark.parametrize("scale", [1e-170, 1e-300])
    @pytest.mark.parametrize("criteria", [None, StoppingCriteria(0, 0, 2000)],
                             ids=["default", "explicit"])
    def test_data_whose_squares_underflow_are_one_error(self, scale, criteria):
        # every square underflows, so the energy, both thresholds and the cost
        # would read 0 and any estimate would pass as converged
        truth, req = small_signal_request(criteria=criteria)
        req["data"] = scale * truth
        peak = np.abs(req["data"][req["mask"]]).max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"underflows float64 (largest observed magnitude {peak:.3g}, "
                    f"below 2^-511); rescale the data")):
                recover(**req)

    def test_small_data_above_the_underflow_bound_still_run(self):
        truth, req = small_signal_request()
        req["data"] = 1e-150 * truth
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = recover(**req)
        assert report.status == CONVERGED
        assert np.abs(report.estimate - req["data"]).max() <= 0.05 * 1e-150

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differs"):
            recover(np.zeros((4, 4)), np.ones((4, 5), bool), (2, 2))

    def test_non_finite_data_rejected(self):
        data = np.zeros(10)
        data[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            recover(data, np.ones(10, bool), (2,))

    def test_complex_data_rejected(self):
        # they were fitted on their real part, with only a ComplexWarning
        truth, req = small_signal_request()
        with pytest.raises(ValueError, match=r"^data must be real, got complex128"):
            recover(**dict(req, data=truth + 1j * truth))

    def test_a_mask_holding_a_non_finite_value_is_refused(self):
        # a float mask's NaN or +-Inf was taken as observed, while read_mask
        # refused the same mask; a finite float mask runs as its boolean one
        _, req = small_signal_request()
        mask = req["mask"].astype(float)
        assert (recover(**dict(req, mask=mask)).estimate.tobytes()
                == recover(**req).estimate.tobytes())
        for bad in (np.nan, np.inf, -np.inf):
            mask[60] = bad
            with pytest.raises(ValueError, match="^the mask holds non-finite values; want 0 "
                                                 "for missing and a finite nonzero for observed$"):
                recover(**dict(req, mask=mask))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
    @pytest.mark.parametrize("criteria", [None, StoppingCriteria(1e-10, 1e-8, 60)],
                             ids=["default", "explicit"])
    @pytest.mark.parametrize("scale", [1.0, 2.0**-300])
    def test_a_value_at_a_missing_entry_is_never_read(self, bad, criteria, scale):
        # one data rule: only observed values must be finite, whatever fills
        # the missing entries, and the run is the one with 0 there; data at
        # 2^-300 are fitted times 2^299, which takes 1e308 past float64
        _, req = small_signal_request(criteria=criteria)
        data = np.where(req["mask"], scale * req["data"], 0.0)
        clean = recover(**dict(req, data=data))
        data[~req["mask"]] = bad
        report = recover(**dict(req, data=data))
        assert report.estimate.tobytes() == clean.estimate.tobytes()
        assert report.cost_trace == clean.cost_trace
        assert report.status == clean.status
        if not math.isfinite(bad):
            data[10] = bad  # an observed entry
            with pytest.raises(ValueError,
                               match=r"^observed values must be finite \(no NaN/Inf\)$"):
                recover(**dict(req, data=data))

    def test_report_carries_trace_and_history(self):
        truth, req = small_signal_request(
            criteria=StoppingCriteria(epsilon=1e-10, tol=1e-8, max_total_sweeps=400))
        report = recover(**req)
        assert is_non_increasing(report.cost_trace)
        assert report.rank_history  # gap forces at least one increment
        assert report.wall_time_s > 0.0

    def test_deterministic_across_runs(self):
        truth, req_a = small_signal_request()
        _, req_b = small_signal_request()
        a = recover(**req_a)
        b = recover(**req_b)
        assert np.array_equal(a.estimate, b.estimate)
        assert a.cost_trace == b.cost_trace

    @pytest.mark.parametrize("fixed", [False, True], ids=["doubling", "fixed"])
    def test_the_defaults_equal_the_explicit_schedule_and_criteria(self, fixed):
        # recover's defaults are the doubling sequences and the thresholds
        # of default_stopping_criteria, and a tuple of ranks is one-element
        # sequences: spelled out, they give the same run, bit for bit
        img = texture_image(16)
        mask = np.random.default_rng(3).random(img.shape) >= 0.3
        mask[..., 1] = False  # a channel no window bridges
        taus = (4, 4, 1)
        if fixed:
            ranks = (2, 4, 2, 4, 1, 2)
            given, schedule = ranks, RankSchedule(tuple((r,) for r in ranks))
        else:
            given, schedule = None, default_rank_sequences(embedded_shape(img.shape, taus))
        report = recover(img, mask, taus, schedule=given, seed=4)
        explicit = recover(img, mask, taus, schedule,
                           default_stopping_criteria(img, mask, taus), seed=4)
        assert type(report) is type(explicit) is RecoveryReport
        assert report.estimate.tobytes() == explicit.estimate.tobytes()
        assert report.model.core.tobytes() == explicit.model.core.tobytes()
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(report.model.factors, explicit.model.factors, strict=True))
        assert report.cost_trace == explicit.cost_trace
        assert report.rank_history == explicit.rank_history
        assert report.status == explicit.status
        assert report.ranks == explicit.ranks
        assert report.unbridged_gap == explicit.unbridged_gap == (2, 1)
        assert fixed or report.rank_history  # the doubling run grows a rank


@st.composite
def unit_peak_requests(draw):
    """``recover``'s arguments for a small input whose observed peak is in (1/2, 1).

    A damped sine with a gap, or a 2-D sum of two waves with missing
    entries, with Gaussian noise; the default thresholds (``criteria`` None)
    or explicit ones, which a scaled run scales with its data.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        length = draw(st.integers(24, 48))
        x = damped_sine(length, decay=0.02, omega=rng.uniform(0.2, 1.2),
                        phase=rng.uniform(0, 3))
        mask = np.ones(length, bool)
        start = draw(st.integers(1, length - 6))
        mask[start:start + 4] = False
        taus = (draw(st.integers(2, length // 3)),)
    else:
        i, j = np.meshgrid(np.arange(9.0), np.arange(8.0), indexing="ij")
        x = np.sin(0.5 * i + 0.3 * j + rng.uniform(0, 3)) + 0.5 * np.sin(0.2 * i - 0.7 * j)
        mask = rng.random(x.shape) >= 0.3
        taus = (3, 3)
    x = x + 0.01 * rng.standard_normal(x.shape)
    x *= draw(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)) / np.abs(x[mask]).max()
    assume(0.5 < np.abs(x[mask]).max() < 1.0)
    criteria = None
    if draw(st.booleans()):
        criteria = StoppingCriteria(draw(st.sampled_from([0.0, 1e-6])),
                                    draw(st.sampled_from([0.0, 1e-8, 1e-5])), 300)
    return dict(data=x, mask=mask, taus=taus, criteria=criteria,
                seed=draw(st.integers(0, 3)))


@settings(max_examples=40, deadline=None)
@given(request=unit_peak_requests(),
       power=st.one_of(st.integers(-450, -101), st.integers(101, 450)))
def test_a_power_of_two_scale_outside_the_window_scales_the_run_bit_for_bit(request, power):
    # recover divides data whose observed peak is outside [2^-100, 2^100] by
    # the power of two that brings it into [1/2, 1), and multiplies what it
    # returns back: the run is the unscaled one, to the bit
    reference = recover(**request)
    scaled = dict(request, data=np.ldexp(request["data"], power))
    if request["criteria"] is not None:
        scaled["criteria"] = dataclasses.replace(
            request["criteria"], epsilon=math.ldexp(request["criteria"].epsilon, 2 * power),
            tol=math.ldexp(request["criteria"].tol, 2 * power))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = recover(**scaled)
    assert report.estimate.tobytes() == np.ldexp(reference.estimate, power).tobytes()
    assert report.cost_trace == [(sweep, math.ldexp(f, 2 * power))
                                 for sweep, f in reference.cost_trace]
    assert report.model.core.tobytes() == np.ldexp(reference.model.core, power).tobytes()
    assert (report.status, report.ranks, report.rank_history) == (
        reference.status, reference.ranks, reference.rank_history)


@pytest.mark.parametrize("largest, power", [
    (0.0, 0), (2.0**-100, 0), (2.0**100, 0), (1.0, 0),
    (np.nextafter(2.0**-100, 0), -100), (np.nextafter(2.0**100, np.inf), 101),
    (2.0**-500, -499), (2.0**500, 501)])
@pytest.mark.parametrize("shape, taus", [((3, 1), (2, 1)), ((3, 5), (2, 3)), ((5, 3), (3, 2))])
def test_the_range_rule_scales_only_outside_its_window(monkeypatch, largest, power, shape,
                                                       taus):
    # the data recover fits: the input's bits inside [2^-100, 2^100], else
    # divided by the power of two that brings the peak into [1/2, 1)
    fitted = []
    imputation = pipeline._input_space_imputation
    monkeypatch.setattr(pipeline, "_input_space_imputation",
                        lambda t, q, taus: fitted.append(t) or imputation(t, q, taus))
    data = np.zeros(shape)
    data.flat[::2] = np.linspace(-0.5, 0.5, data.flat[::2].size) * largest
    data[-1, -1] = -largest
    recover(data, np.ones(shape, bool), taus, schedule=(1, 1, 1, 1),
            criteria=StoppingCriteria(0.0, 0.0, 2))
    assert fitted[0].tobytes() == np.ldexp(data, -power).tobytes()
    if power:
        assert 0.5 <= np.abs(fitted[0]).max() < 1.0
    else:
        assert fitted[0] is data


@pytest.mark.parametrize("power", [-400, 400])
def test_no_factor_update_sees_a_matrix_outside_the_window(monkeypatch, power):
    # the range rule is recover's alone: every factor update and Gram
    # eigensolve of a run on data at 2^+-400 sees matrices of the rescaled
    # data's magnitudes; one-column updates, projection-route updates and
    # Gram-route eigensolves all run.  Every sweep is a plateau, at 2^-400
    # by a tol that the range rule scales past float64.  Every entry is
    # observed: a fill from the random start's model, of magnitude 1, would
    # set the peak of the early sweeps' matrices whatever the data's scale
    peaks = {"leading_singular_vectors": [], "_top_eigenvectors": []}
    for name, seen in peaks.items():
        def spy(a, r, real=getattr(completion, name), seen=seen):
            seen.append((a.shape[1], float(np.abs(a).max())))
            return real(a, r)
        monkeypatch.setattr(completion, name, spy)
    image = texture_image(12)
    mask = np.ones(image.shape, bool)
    schedule = RankSchedule(((1, 3), (1, 2, 5), (1, 2), (1, 2, 5), (1,), (1, 3)))
    report = recover(np.ldexp(image, power), mask, (4, 4, 1), schedule,
                     StoppingCriteria(0.0, 1e300, 12))
    assert report.ranks == (3, 5, 2, 5, 1, 3)
    updates, grams = peaks["leading_singular_vectors"], peaks["_top_eigenvectors"]
    assert {width == 1 for width, _ in updates} == {True, False} and grams
    assert all(2.0**-300 <= peak <= 2.0**300 for _, peak in updates + grams)


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
    # No window bridges a run on a mode of window 1 or of a window of the
    # whole mode: either pair is a reshape, and no window holds two of its
    # slices.  Every mask with such a run is reported, with its longest run
    # (lowest mode on a tie); no other is, whatever its runs on the other
    # modes.
    q, taus = case
    runs = naive_runs(q)
    assert longest_missing_runs(q) == tuple(runs)
    unbridged = [(mode, run) for mode, (run, tau) in enumerate(zip(runs, taus))
                 if run >= 1 and tau in (1, q.shape[mode])]
    gap = unbridged_gap(q, taus)
    if unbridged:
        longest = max(run for _, run in unbridged)
        assert gap == min((mode, run) for mode, run in unbridged if run == longest)
    else:
        assert gap is None


@st.composite
def reshape_layout_cases(draw):
    order = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(order))
    mode = draw(st.integers(0, order - 1))
    taus = tuple(draw(st.integers(1, j)) for j in shape)
    observed = draw(st.sampled_from([0.5, 0.8, 1.0]))
    return shape, mode, taus, observed, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=reshape_layout_cases())
def test_a_window_of_the_whole_mode_fits_as_a_window_of_1(case):
    # tau_n = 1 and tau_n = I_n both leave mode n unembedded: its pair is
    # (1, I_n) or (I_n, 1), one reshape of the mode.  The two layouts are
    # one fit, to the bit, with the pair's two embedded modes swapped in
    # the ranks and the rank events; the other windows are drawn freely.
    shape, mode, taus, observed, seed = case
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    mask = rng.random(shape) < observed
    mask.flat[rng.integers(mask.size)] = True
    reports = []
    for tau in (1, shape[mode]):
        taus = (*taus[:mode], tau, *taus[mode + 1:])
        # a looser plateau test, so about half the fits grow a rank in 30 sweeps
        criteria = default_stopping_criteria(data, mask, taus)
        criteria = dataclasses.replace(criteria, tol=1e3 * criteria.tol, max_total_sweeps=30)
        reports.append(recover(data, mask, taus, criteria=criteria, seed=seed))
    plain, whole = reports
    swap = {2 * mode: 2 * mode + 1, 2 * mode + 1: 2 * mode}
    assert whole.estimate.tobytes() == plain.estimate.tobytes()
    assert whole.cost_trace == plain.cost_trace
    assert whole.status == plain.status
    assert whole.unbridged_gap == plain.unbridged_gap
    assert whole.ranks == tuple(plain.ranks[swap.get(m, m)] for m in range(2 * len(shape)))
    assert whole.rank_history == [(sweep, swap.get(m, m), rank)
                                  for sweep, m, rank in plain.rank_history]


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
        report = recover(img, mask, (4, tau, 1), seed=0,
                         criteria=StoppingCriteria(0.0, 0.0, 2))
        assert report.unbridged_gap == gap

    @pytest.mark.parametrize("taus, gap", [((4, 1, 1), (1, 2)), ((4, 4, 1), None)],
                             ids=["window-1", "bridged"])
    def test_a_direct_loop_call_names_the_gap(self, taus, gap):
        # recover is the loop: a call with an explicit schedule and
        # thresholds of its own learns of the gap too
        img, mask = self.columns_missing(2)
        schedule = default_rank_sequences(embedded_shape(img.shape, taus))
        report = recover(img, mask, taus, schedule,
                         StoppingCriteria(0.0, 0.0, 2))
        assert report.unbridged_gap == gap

    @pytest.mark.parametrize("taus", [(1, 4), (10, 4)], ids=["window-1", "whole-mode"])
    def test_a_window_of_the_whole_mode_bridges_no_gap(self, taus):
        # A 10 x 8 sum of sinusoids with row 3 wholly missing.  A window of
        # all 10 rows is one column of the pair's Hankel matrix, the same
        # reshape as a window of 1: the fit converges with the row left
        # near zero in both layouts, so both report the gap.
        i, j = np.meshgrid(np.arange(10), np.arange(8), indexing="ij")
        truth = np.sin(0.5 * i + 0.3 * j + 0.2) + 0.5 * np.sin(0.21 * i - 0.7 * j + 1.0)
        mask = np.ones(truth.shape, bool)
        mask[3] = False
        report = recover(truth, mask, taus, seed=0)
        assert report.status == CONVERGED
        assert report.unbridged_gap == (0, 1)
        assert np.linalg.norm(report.estimate[3] - truth[3]) > 0.5 * np.linalg.norm(truth[3])

    def test_a_missing_channel_cannot_be_bridged(self):
        img = texture_image(16)
        mask = np.ones(img.shape, bool)
        mask[..., 1] = False
        assert unbridged_gap(mask, (4, 4, 1)) == (2, 1)

    @pytest.mark.parametrize("taus, message", [
        ((4, 4), "need one window per mode: got 2 windows for order-3 shape (16, 16, 3)"),
        ((4, 4, 2.5), "windows must be integers, got (4, 4, 2.5)"),
        ((4, 4, 4), "window tau=4 out of range [1, 3] on mode 2"),
    ])
    def test_the_windows_are_read_as_embedded_shape_reads_them(self, taus, message):
        # the runs were zipped with the windows unchecked: a missing window,
        # or a float one, left the missing channel unreported
        mask = np.ones((16, 16, 3), bool)
        mask[..., 1] = False
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            unbridged_gap(mask, taus)


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
    report = recover(vol, mask, taus, seed=0)
    assert report.status == CONVERGED
    assert len(report.ranks) == 6
    rmse = float(np.sqrt(np.mean((report.estimate - vol)[~mask] ** 2)))
    if bridged:
        assert report.unbridged_gap is None
        assert rmse < 5e-3
    else:
        assert report.unbridged_gap == (2, 3)
        assert rmse > 0.25
