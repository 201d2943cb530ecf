import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankelfill import default_stopping_criteria, embedded_shape, inverse_mdt, mdt
from hankelfill.core import multilinear_product
from hankelfill.embedding import (_pair_matrix, duplication_counts, duplication_weights,
                                  embedded_observed_energy, inverse_mdt_tucker, mdt_mask)
from helpers import delay_embed_vector, inverse_delay_embed_vector, traced_peak


class TestDelayEmbedVector:
    """``mdt`` of a vector: its Hankel matrix."""

    def test_hankel_matrix_of_1_to_5(self):
        h = mdt(np.array([1.0, 2, 3, 4, 5]), (3,))
        np.testing.assert_array_equal(h, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])

    def test_tau_one_is_row(self):
        v = np.arange(4.0)
        h = mdt(v, (1,))
        assert h.shape == (1, 4)
        np.testing.assert_array_equal(h[0], v)

    def test_tau_full_is_column(self):
        v = np.arange(4.0)
        h = mdt(v, (4,))
        assert h.shape == (4, 1)
        np.testing.assert_array_equal(h[:, 0], v)

    def test_constant_antidiagonals(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(9)
        h = mdt(v, (4,))
        for i in range(4):
            for j in range(6):
                assert h[i, j] == v[i + j]

    def test_tau_out_of_range(self):
        for bad in (0, 6):
            with pytest.raises(ValueError, match="out of range"):
                mdt(np.zeros(5), (bad,))


class TestDuplicationCounts:
    def test_known_small_cases(self):
        np.testing.assert_array_equal(duplication_counts(5, 2), [1, 2, 2, 2, 1])
        np.testing.assert_array_equal(duplication_counts(5, 3), [1, 2, 3, 2, 1])
        np.testing.assert_array_equal(duplication_counts(5, 1), [1, 1, 1, 1, 1])

    def test_matches_occurrence_enumeration(self):
        # count how often element i actually appears in the embedded matrix
        for length in range(1, 9):
            v = np.arange(1.0, length + 1)
            for tau in range(1, length + 1):
                h = mdt(v, (tau,))
                occurrences = [(h == x).sum() for x in v]
                np.testing.assert_array_equal(duplication_counts(length, tau), occurrences)

    def test_total_equals_embedded_size(self):
        for length, tau in [(7, 3), (10, 10), (6, 1)]:
            assert duplication_counts(length, tau).sum() == tau * (length - tau + 1)

    @settings(max_examples=200, deadline=None)
    @given(length=st.integers(1, 60), data=st.data())
    def test_counts_are_made_once_as_read_only_exact_floats(self, length, data):
        # every fill divides its map-back by the same counts: one memoised
        # float64 array per (length, tau), which no caller may change
        tau = data.draw(st.integers(1, length))
        i = np.arange(1, length + 1)
        expected = np.minimum(np.minimum(i, i[::-1]), min(tau, length - tau + 1))
        counts = duplication_counts(length, tau)
        assert counts.dtype == np.float64 and not counts.flags.writeable
        np.testing.assert_array_equal(counts, expected)
        assert duplication_counts(length, tau) is counts
        with pytest.raises(ValueError, match="read-only"):
            counts[0] = -1


class TestInverseDelayEmbedVector:
    """``inverse_mdt`` of a tau x (L - tau + 1) matrix: the least-squares vector."""

    def test_roundtrip(self):
        v = np.array([1.0, 2, 3, 4, 5])
        np.testing.assert_allclose(inverse_mdt(mdt(v, (3,))), v, atol=0)

    def test_hand_computed_non_hankel(self):
        h = np.array([[1.0, 5.0], [3.0, 7.0]])
        np.testing.assert_allclose(inverse_mdt(h), [1.0, 4.0, 7.0], atol=0)

    def test_all_ones_input(self):
        np.testing.assert_allclose(inverse_mdt(np.ones((3, 4))), np.ones(6), atol=0)

    def test_least_squares_against_dense_pseudoinverse(self):
        # oracle: materialize the duplication matrix and use its pinv
        rng = np.random.default_rng(1)
        for length, tau in [(6, 3), (5, 2), (7, 5)]:
            width = length - tau + 1
            s = np.zeros((tau * width, length))
            for a in range(tau):
                for b in range(width):
                    s[a + tau * b, a + b] = 1.0
            h = rng.standard_normal((tau, width))
            expected = np.linalg.pinv(s) @ h.ravel(order="F")
            np.testing.assert_allclose(inverse_mdt(h), expected, atol=1e-12)


class TestEmbeddingSpec:
    """``embedded_shape``: the checked spec of one embedding, as a shape."""

    def test_color_image_shape(self):
        assert embedded_shape((256, 256, 3), (32, 32, 1)) == (32, 225, 32, 225, 1, 3)

    def test_small_image_shape(self):
        assert embedded_shape((64, 64, 3), (8, 8, 1)) == (8, 57, 8, 57, 1, 3)

    def test_volume_accounting(self):
        assert math.prod(embedded_shape((10, 7), (4, 3))) == 4 * 7 * 3 * 5

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError, match="out of range"):
            embedded_shape((5, 5), (6, 1))

    def test_rejects_arity_mismatch(self):
        with pytest.raises(ValueError, match="one window per mode"):
            embedded_shape((5, 5), (2,))


class TestMdt:
    def test_small_tensor_entries(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 4))
        xh = mdt(x, (2, 3))
        assert xh.shape == (2, 4, 3, 2)
        for a in range(2):
            for b in range(4):
                for c in range(3):
                    for d in range(2):
                        assert xh[a, b, c, d] == x[a + b, c + d]

    def test_all_tau_one_copies_input(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 4, 2))
        xh = mdt(x, (1, 1, 1))
        assert xh.shape == (1, 3, 1, 4, 1, 2)
        np.testing.assert_array_equal(xh.reshape(x.shape), x)

    @pytest.mark.parametrize("taus", [(1, 1, 1), (6, 1, 3), (1, 5, 3), (6, 5, 1)])
    def test_a_pair_that_embeds_nothing_maps_back_to_the_bit(self, taus):
        # a window of 1 or of the whole mode is a reshape both ways; the
        # map-back averaged a whole-mode window's one duplicate, turning
        # -0.0 into +0.0
        x = np.random.default_rng(5).standard_normal((6, 5, 3))
        x[x < -0.5] = -0.0
        back = inverse_mdt(np.array(mdt(x, taus)))
        assert back.tobytes() == x.tobytes()

    def test_vector_case_matches_delay_embed(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(9)
        xh = mdt(v, (4,))
        np.testing.assert_array_equal(xh, delay_embed_vector(v, 4))

    @pytest.mark.parametrize("taus", [(2, 3), (1, 1), (5, 4)])
    def test_result_is_a_read_only_view_and_its_inverse_a_new_array(self, taus):
        x = np.arange(20.0).reshape(5, 4)
        q = x % 3 != 0
        for source, xh in ((x, mdt(x, taus)), (q, mdt_mask(q, taus))):
            assert np.shares_memory(xh, source)
            assert not xh.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                xh[(0,) * xh.ndim] = 0
        back = inverse_mdt(mdt(x, taus))
        np.testing.assert_array_equal(back, x)
        assert not np.shares_memory(back, x)

    def test_generalized_antidiagonal_equality(self):
        # entries agree whenever the per-mode index sums agree
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 5))
        xh = mdt(x, (3, 2))
        t0, b0, t1, b1 = xh.shape
        for a in range(t0):
            for b in range(b0):
                for c in range(t1):
                    for d in range(b1):
                        assert xh[a, b, c, d] == x[a + b, c + d]


class TestMdtMask:
    def test_fully_observed(self):
        q = np.ones((4, 5), dtype=bool)
        assert mdt_mask(q, (2, 3)).all()

    def test_fully_missing(self):
        q = np.zeros((4, 5), dtype=bool)
        assert not mdt_mask(q, (2, 3)).any()

    def test_single_missing_duplication_count(self):
        for pos, taus in [((2, 1), (3, 2)), ((0, 4), (2, 2)), ((3, 3), (4, 5))]:
            q = np.ones((6, 7), dtype=bool)
            q[pos] = False
            qh = mdt_mask(q, taus)
            expected = (duplication_counts(6, taus[0])[pos[0]]
                        * duplication_counts(7, taus[1])[pos[1]])
            assert (~qh).sum() == expected


@settings(max_examples=50, deadline=None)
@given(shape=st.lists(st.integers(1, 9), min_size=1, max_size=3), data=st.data())
def test_duplication_weights_count_the_windows_over_each_entry(shape, data):
    taus = tuple(data.draw(st.integers(1, i)) for i in shape)
    sources = mdt(np.arange(math.prod(shape)).reshape(shape), taus).ravel()
    expected = np.bincount(sources, minlength=math.prod(shape)).reshape(shape)
    weights = duplication_weights(shape, taus)
    assert weights.dtype == np.float64
    assert np.array_equal(weights, expected)


class TestEmbeddedObservedEnergy:
    def test_matches_actual_embedding(self):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((7, 6, 3))
        q = rng.random(x.shape) > 0.4
        taus = (3, 2, 1)
        xh = mdt(np.where(q, x, 0.0), taus)
        qh = mdt_mask(q, taus)
        direct = float((xh[qh] ** 2).sum())
        assert embedded_observed_energy(x, q, taus) == pytest.approx(direct, rel=1e-12)

    def test_fully_observed_is_weighted_total(self):
        x = np.ones((5,))
        q = np.ones(5, bool)
        # every window covers tau entries, (L - tau + 1) windows in total
        assert embedded_observed_energy(x, q, (3,)) == pytest.approx(3 * 3, rel=1e-12)

    def test_overflow_is_one_error_that_asks_for_rescaling(self):
        # 1e160 squared overflows float64; the default thresholds would be
        # infinite and rejected under names the caller never set
        x = 1e160 * np.sin(np.arange(40) / 3.0)
        q = np.ones(40, bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(ValueError, match="overflows float64.*rescale the data"):
                embedded_observed_energy(x, q, (8,))

    def test_largest_finite_energy_is_returned(self):
        x = np.full(4, 1e153)
        assert embedded_observed_energy(x, np.ones(4, bool), (1,)) == pytest.approx(4e306)

    @pytest.mark.parametrize("mask_shape", [(10, 10, 1), (3,), (10, 10)])
    def test_a_mask_of_another_shape_is_refused(self, mask_shape):
        # it was broadcast against the data, so the default thresholds came
        # from a mask the fit itself refuses
        data = np.ones((10, 10, 3))
        message = f"data shape (10, 10, 3) differs from mask shape {mask_shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            embedded_observed_energy(data, np.ones(mask_shape, bool), (2, 2, 1))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            default_stopping_criteria(data, np.ones(mask_shape, bool), (2, 2, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observed_value_is_an_error(self, bad):
        x = np.ones(6)
        x[2] = bad
        with pytest.raises(ValueError, match="observed values must be finite"):
            embedded_observed_energy(x, np.ones(6, bool), (2,))
        mask = np.ones(6, bool)
        mask[2] = False  # an unobserved entry does not count
        assert embedded_observed_energy(x, mask, (1,)) == 5.0


@st.composite
def round_trip_cases(draw):
    order = draw(st.integers(1, 4))
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=order, max_size=order)))
    # windows anywhere in [1, I_n], with both ends drawn often
    taus = tuple(draw(st.one_of(st.just(1), st.just(size), st.integers(1, size)))
                 for size in shape)
    return shape, taus, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(case=round_trip_cases())
def test_inverse_mdt_undoes_mdt(case):
    shape, taus, seed = case
    rng = np.random.default_rng(seed)
    # Integer values: every duplicate sum and its division by the count are
    # exact, so the round trip is too.
    whole = rng.integers(-1000, 1000, shape).astype(np.float64)
    xh = mdt(whole, taus)
    assert xh.shape == embedded_shape(shape, taus)
    back = inverse_mdt(xh)
    np.testing.assert_array_equal(back, whole)
    # a fresh array, also when every window is 1 and collapsing is a reshape
    assert not np.shares_memory(back, xh)
    # General values: the duplicates along mode n are equal, so summing and
    # dividing them rounds by at most tau_n units in the last place.
    x = rng.standard_normal(shape)
    back = inverse_mdt(mdt(x, taus))
    eps = np.finfo(np.float64).eps
    assert np.all(np.abs(back - x) <= sum(taus) * eps * np.abs(x))


@st.composite
def pair_matrix_cases(draw):
    tau, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    full = draw(st.booleans())
    r_tau = tau if full else draw(st.integers(1, tau))
    r_window = width if full else draw(st.integers(1, width))
    return tau, width, r_tau, r_window, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(case=pair_matrix_cases())
@example(case=(1, 6, 1, 4, 0)).via("a window of 1")
@example(case=(6, 1, 3, 1, 0)).via("a window as long as the mode")
@example(case=(9, 2, 9, 2, 0)).via("tau > W at full ranks")
def test_pair_matrix_sums_the_factor_products_along_each_antidiagonal(case):
    tau, width, r_tau, r_window, seed = case
    rng = np.random.default_rng(seed)
    u_tau, u_window = rng.standard_normal((tau, r_tau)), rng.standard_normal((width, r_window))
    k = _pair_matrix(u_tau, u_window)
    assert k.shape == (tau + width - 1, r_tau * r_window)
    assert k.flags.c_contiguous
    # the map-back divides K by the duplication counts in place
    assert not np.may_share_memory(k, u_tau) and not np.may_share_memory(k, u_window)
    expected = np.zeros((tau + width - 1, r_tau, r_window))
    magnitude = np.zeros_like(expected)
    for a in range(tau):
        for b in range(width):
            expected[a + b] += np.multiply.outer(u_tau[a], u_window[b])
            magnitude[a + b] += np.abs(np.multiply.outer(u_tau[a], u_window[b]))
    error = np.abs(k.reshape(expected.shape) - expected)
    assert np.all(error <= tau * np.finfo(np.float64).eps * magnitude)
    # a 1x1 identity on either side is the other factor itself
    assert _pair_matrix(np.ones((1, 1)), u_window) is u_window
    assert _pair_matrix(u_tau, np.ones((1, 1))) is u_tau


@st.composite
def embedded_tucker_cases(draw):
    order = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=order, max_size=order)))
    taus = tuple(draw(st.one_of(st.just(1), st.just(size), st.integers(1, size)))
                 for size in shape)
    ranks = tuple(draw(st.integers(1, j)) for j in embedded_shape(shape, taus))
    return shape, taus, ranks, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(case=embedded_tucker_cases())
@example(case=((7,), (3,), (2, 4), 0)).via("order 1, r_tau < r_window")
@example(case=((7,), (4,), (3, 2), 0)).via("order 1, r_tau > r_window")
@example(case=((6,), (1,), (1, 5), 0)).via("order 1, a window of 1")
@example(case=((6,), (6,), (4, 1), 0)).via("order 1, a window as long as the signal")
def test_tucker_model_maps_back_as_its_reconstruction_does(case):
    shape, taus, ranks, seed = case
    rng = np.random.default_rng(seed)
    core = rng.standard_normal(ranks)
    factors = [rng.standard_normal((j, r)) for j, r in zip(embedded_shape(shape, taus), ranks)]
    out = inverse_mdt_tucker(core, factors)
    expected = inverse_mdt(multilinear_product(core, factors))
    assert out.shape == shape
    # Tolerance: both sides add the same products |g| * prod |u| over the
    # duplication count, in different orders and groupings.  The embedded
    # side sums over each rank and each window (sum(ranks) + sum(taus) deep),
    # the structured side over each window and each merged rank pair
    # (sum(taus) + sum(r_2n * r_2n+1) deep), and each side divides once per
    # mode.  So the two differ by at most that total depth times eps times
    # the same average taken over magnitudes.
    magnitude = inverse_mdt(multilinear_product(np.abs(core), [np.abs(u) for u in factors]))
    depth = (sum(ranks) + 2 * sum(taus) + 2 * len(shape)
             + sum(a * b for a, b in zip(ranks[::2], ranks[1::2])))
    eps = np.finfo(np.float64).eps
    assert np.all(np.abs(out - expected) <= depth * eps * magnitude)


@pytest.mark.parametrize("ranks", [(4, 4), (16, 16), (32, 64), (50, 151)])
def test_tucker_model_maps_back_within_about_one_embedded_copy(ranks):
    # A 200-sample signal with window 50 embeds to 50 x 151.  Through a
    # 200 x (r_0 * r_1) matrix of the factor pair's window sums, the
    # map-back of these models peaked at 1.49, 15.3, 112 and 405 embedded
    # copies; contracting the core into the factor of the larger rank and
    # convolving column pairs holds at most the contracted factor, r_0 x 151
    # or 50 x r_1, plus a few source-sized vectors (measured: 0.18, 0.42,
    # 0.74 and 1.10 copies).
    rng = np.random.default_rng(0)
    core = rng.standard_normal(ranks)
    factors = [rng.standard_normal((j, r)) for j, r in zip((50, 151), ranks)]
    out, peak = traced_peak(lambda: inverse_mdt_tucker(core, factors))
    assert out.shape == (200,)
    assert peak <= 1.35 * 8 * 50 * 151


@pytest.mark.parametrize("shape, taus, ranks", [
    ((128, 128, 3), (16, 16, 1), (8, 16, 8, 16, 1, 3)),  # pixel-128's model
    ((64, 64, 3), (8, 8, 1), (8, 57, 8, 57, 1, 3)),  # slice-inpaint's at full ranks
    ((200, 3), (50, 1), (50, 151, 1, 3)),  # K_0 is 200 copies of the embedded tensor
    ((32, 32, 24), (4, 4, 4), (2, 3, 2, 3, 2, 3)),  # the source outweighs the count
])
def test_an_order_2_or_3_model_maps_back_within_the_size_guards_count(shape, taus, ranks):
    # Through K_n / D_n the map-back holds every pair matrix, each divided
    # in place, as the sweep's chain does, then partial results no larger
    # than the merged core or the source.  The count is the largest pair
    # embedding plus the largest pair matrix, two of the guard's closed
    # forms; the guard's own count includes the source.  Measured peaks,
    # per (count + source) elements: 0.17, 0.24, 1.01 and 1.04 float64s.
    embedded = embedded_shape(shape, taus)
    pairs = [a * b for a, b in zip(ranks[::2], ranks[1::2])]
    count = max(embedded[2 * n] * embedded[2 * n + 1] * math.prod(pairs[:n] + pairs[n + 1:])
                for n in range(len(shape))) + max(i * p for i, p in zip(shape, pairs))
    rng = np.random.default_rng(1)
    core = rng.standard_normal(ranks)
    factors = [np.linalg.qr(rng.standard_normal((j, r)))[0] for j, r in zip(embedded, ranks)]
    out, peak = traced_peak(lambda: inverse_mdt_tucker(core, factors))
    assert out.shape == shape
    assert peak <= 1.1 * 8 * (count + math.prod(shape))


class TestInverseMdt:
    def test_roundtrip_random_shapes(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            order = int(rng.integers(1, 5))
            shape = tuple(int(rng.integers(2, 7)) for _ in range(order))
            taus = tuple(int(rng.integers(1, s + 1)) for s in shape)
            x = rng.standard_normal(shape)
            back = inverse_mdt(mdt(x, taus))
            assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)

    def test_constant_input_gives_constant_output(self):
        out = inverse_mdt(np.full(embedded_shape((6, 5), (3, 2)), 2.5))
        np.testing.assert_allclose(out, np.full((6, 5), 2.5), atol=0)

    def test_vector_case_matches_inverse_delay_embed(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((3, 5))
        np.testing.assert_allclose(inverse_mdt(h),
                                   inverse_delay_embed_vector(h, 7, 3), atol=0)

    def test_non_hankel_is_per_element_mean(self):
        rng = np.random.default_rng(8)
        xh = rng.standard_normal(embedded_shape((5, 4), (2, 3)))
        out = inverse_mdt(xh)
        # oracle: average every duplicated copy of each source position
        for i in range(5):
            for j in range(4):
                copies = [xh[a, i - a, c, j - c]
                          for a in range(2) if 0 <= i - a < 4
                          for c in range(3) if 0 <= j - c < 2]
                assert out[i, j] == pytest.approx(np.mean(copies), rel=1e-12)

    def test_odd_order_rejected(self):
        # an order-2N tensor pairs (tau_n, I_n - tau_n + 1); an odd order has
        # a window without its count
        for shape in [(3,), (3, 4, 2)]:
            with pytest.raises(ValueError, match="even order"):
                inverse_mdt(np.zeros(shape))
