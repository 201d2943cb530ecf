import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankelfill.linalg import (apply_sign_convention, complete_orthonormal_basis,
                               leading_singular_vectors)
from helpers import orthonormality_defect, random_orthonormal


def captured_energy(u, a):
    return float(np.linalg.norm(u.T @ a) ** 2)


class TestLeadingSingularVectors:
    def test_identity_degenerate_spectrum(self):
        a = np.eye(3)
        u = leading_singular_vectors(a, 2)
        assert u.shape == (3, 2)
        assert orthonormality_defect(u) < 1e-12
        assert captured_energy(u, a) == pytest.approx(2.0, abs=1e-10)

    def test_padded_diagonal(self):
        a = np.zeros((3, 4))
        a[0, 0], a[1, 1], a[2, 2] = 3.0, 2.0, 1.0
        u = leading_singular_vectors(a, 2)
        assert captured_energy(u, a) == pytest.approx(13.0, abs=1e-10)
        # dominant subspace is span(e1, e2)
        np.testing.assert_allclose(np.abs(u[:2, :2]), np.eye(2), atol=1e-10)
        np.testing.assert_allclose(u[2], 0.0, atol=1e-10)

    def test_energy_matches_full_svd_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 8))
        u = leading_singular_vectors(a, 3)
        sigma = np.linalg.svd(a, compute_uv=False)
        assert captured_energy(u, a) == pytest.approx(float((sigma[:3] ** 2).sum()),
                                                      rel=1e-10)

    def test_tall_matrix_thin_svd_path(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((9, 4))
        for r in (1, 2, 4):
            u = leading_singular_vectors(a, r)
            sigma = np.linalg.svd(a, compute_uv=False)
            assert orthonormality_defect(u) < 1e-10
            assert captured_energy(u, a) == pytest.approx(float((sigma[:r] ** 2).sum()),
                                                          rel=1e-10)

    def test_rank_deficient_tall_matrix(self):
        rng = np.random.default_rng(2)
        col = rng.standard_normal((7, 1))
        a = np.hstack([col, 2 * col, -col])  # rank 1, J > K
        u = leading_singular_vectors(a, 3)
        assert orthonormality_defect(u) < 1e-10
        sigma = np.linalg.svd(a, compute_uv=False)
        assert captured_energy(u, a) == pytest.approx(float((sigma**2).sum()), rel=1e-8)

    def test_energy_beats_random_bases(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((7, 9))
        u = leading_singular_vectors(a, 3)
        best = captured_energy(u, a)
        for seed in range(20):
            v = random_orthonormal(np.random.default_rng(seed), 7, 3)
            assert best >= captured_energy(v, a) - 1e-8

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 12))
        u1 = leading_singular_vectors(a, 3)
        u2 = leading_singular_vectors(a.copy(), 3)
        assert np.array_equal(u1, u2)

    def test_sign_convention_largest_entry_nonnegative(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 10))
        u = leading_singular_vectors(a, 4)
        for col in u.T:
            assert col[np.argmax(np.abs(col))] >= 0

    @pytest.mark.parametrize("shape, solver", [((9, 4), "svd"), ((4, 9), "eigh"),
                                               ((5, 5), "eigh"), ((9, 3), "svd qr")])
    def test_one_decomposition_per_call(self, monkeypatch, shape, solver):
        # tall: one thin SVD, orthonormal by construction, no fix-up QR;
        # wide or square: one eigensolve of the small Gram matrix; a rank
        # above the width: one QR more completes the basis
        calls = []

        def counted(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("svd", "eigh", "qr"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        a, r = np.random.default_rng(8).standard_normal(shape), 5 if "qr" in solver else 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            leading_singular_vectors(a, r)
        assert calls == solver.split()

    @pytest.mark.parametrize("rows", [1, 9])
    def test_a_single_column_calls_no_solver(self, monkeypatch, rows):
        calls = []
        for name in ("svd", "eigh", "qr"):
            monkeypatch.setattr(np.linalg, name, lambda *args, name=name, **kw: calls.append(name))
        u = leading_singular_vectors(np.random.default_rng(8).standard_normal((rows, 1)), 1)
        assert calls == []
        assert u.shape == (rows, 1)

    @pytest.mark.parametrize("scale", [1e-170, 1e160, 1e-300, 1e300])
    def test_a_single_column_at_an_extreme_scale_gives_the_unscaled_basis(self, scale):
        # its squares under- or overflow float64, but the column is divided
        # by its own peak first; a wider matrix is the caller's to rescale,
        # as recover's range rule does for its data
        a = np.random.default_rng(12).standard_normal((5, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = leading_singular_vectors(scale * a, 1)
        np.testing.assert_allclose(u, leading_singular_vectors(a, 1), rtol=0, atol=1e-15)

    def test_r_out_of_range(self):
        with pytest.raises(ValueError, match="nonempty"):
            leading_singular_vectors(np.ones((3, 0)), 1)
        with pytest.raises(ValueError, match="out of range"):
            leading_singular_vectors(np.ones((3, 4)), 4)
        with pytest.raises(ValueError, match="out of range"):
            leading_singular_vectors(np.ones((3, 4)), 0)

    def test_rejects_non_finite(self):
        a = np.ones((3, 3))
        a[1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            leading_singular_vectors(a, 1)


class TestApplySignConvention:
    def test_flips_negative_dominant_columns(self):
        u = np.array([[0.6, -0.8], [-0.8, -0.6]])
        fixed = apply_sign_convention(u)
        for col in fixed.T:
            assert col[np.argmax(np.abs(col))] >= 0

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        u = random_orthonormal(rng, 5, 3)
        once = apply_sign_convention(u)
        np.testing.assert_array_equal(apply_sign_convention(once.copy()), once)


class TestCompleteOrthonormalBasis:
    def test_extends_and_preserves_prefix_span(self):
        rng = np.random.default_rng(7)
        u = random_orthonormal(rng, 6, 2)
        full = complete_orthonormal_basis(u, rng.standard_normal((6, 3)))
        assert full.shape == (6, 5)
        assert orthonormality_defect(full) < 1e-10
        # the first two columns are the original basis itself
        np.testing.assert_array_equal(full[:, :2], u)

    def test_noop_when_already_full(self):
        u = np.eye(4)[:, :3]
        assert complete_orthonormal_basis(u, np.empty((4, 0))) is u

    def test_rejects_impossible_extension(self):
        with pytest.raises(ValueError, match="cannot extend"):
            complete_orthonormal_basis(np.eye(3), np.ones((3, 1)))
        with pytest.raises(ValueError, match="cannot extend"):
            complete_orthonormal_basis(np.eye(3)[:, :1], np.ones((4, 1)))

    @pytest.mark.parametrize("rows, have, extra", [(151, 2, 2), (9, 0, 4), (5, 3, 0)])
    def test_one_qr_of_the_basis_and_its_extra_columns(self, monkeypatch, rows, have, extra):
        # the QR sees k + m columns, never the J + k of [u | I]
        widths = []
        real = np.linalg.qr

        def counted(a, *args, **kwargs):
            widths.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        rng = np.random.default_rng(9)
        u = np.linalg.svd(rng.standard_normal((rows, max(have, 1))),
                          full_matrices=False)[0][:, :have]
        complete_orthonormal_basis(u, np.eye(rows, extra))
        assert widths == ([(rows, have + extra)] if extra else [])


@st.composite
def bases_and_candidates(draw):
    """A J x k orthonormal basis and m <= J - k candidate columns.

    Each candidate is Gaussian, zero, a copy of a column of the basis or an
    identity column, so [u | extra] may be rank-deficient.
    """
    rows = draw(st.integers(1, 60))
    have = draw(st.integers(0, rows))
    extra = draw(st.integers(0, rows - have))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.linalg.svd(rng.standard_normal((rows, max(have, 1))),
                      full_matrices=False)[0][:, :have]
    cand = rng.standard_normal((rows, extra))
    for c in range(extra):
        kind = draw(st.sampled_from(["gaussian", "zero", "copy", "identity"]))
        if kind == "zero":
            cand[:, c] = 0.0
        elif kind == "copy" and have:
            cand[:, c] = u[:, draw(st.integers(0, have - 1))]
        elif kind == "identity":
            cand[:, c] = np.eye(rows)[draw(st.integers(0, rows - 1))]
    return u, cand


@settings(max_examples=300, deadline=None)
@given(case=bases_and_candidates())
def test_completion_keeps_the_basis_and_adds_orthonormal_columns(case):
    u, extra = case
    full = complete_orthonormal_basis(u, extra)
    have = u.shape[1]
    assert full.shape == (u.shape[0], have + extra.shape[1])
    assert np.array_equal(full[:, :have], u)
    # max(initial=0) covers the empty cases, k = m = 0
    defect = np.abs(full.T @ full - np.eye(full.shape[1])).max(initial=0.0)
    assert defect <= 1e-12
    assert np.abs(u.T @ full[:, have:]).max(initial=0.0) <= 1e-12


@st.composite
def ill_conditioned_matrices(draw):
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 12))
    k = min(rows, cols)
    # singular values from 1 down to 1e-14, both ends present
    inner = draw(st.lists(st.floats(-14.0, 0.0), min_size=max(k - 2, 0),
                          max_size=max(k - 2, 0)))
    exponents = sorted([0.0, -14.0][:k] + inner, reverse=True)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = random_orthonormal(rng, rows, k)
    right = random_orthonormal(rng, cols, k)
    a = (left * 10.0 ** np.array(exponents)) @ right.T
    return a, draw(st.integers(1, k))


@settings(max_examples=200, deadline=None)
@given(case=ill_conditioned_matrices())
def test_captured_energy_matches_svd(case):
    # On wide inputs the Gram eigensolve squares the condition number, so its
    # vectors may differ from the SVD's in the tiny directions; the energy
    # they capture, the quantity the ALS update maximizes, must not.
    a, r = case
    u = leading_singular_vectors(a, r)
    sigma = np.linalg.svd(a, compute_uv=False)
    total = float(np.sum(sigma**2))
    assert abs(captured_energy(u, a) - float(np.sum(sigma[:r] ** 2))) <= 1e-12 * total
    assert orthonormality_defect(u) < 1e-12


@st.composite
def tall_matrices(draw):
    """J x K with J > K, as the sweep's updates on delay embeddings see them.

    Columns may be zero or copies of earlier ones (rank-deficient), and each
    is scaled by a power of ten in [1e-300, 1e300].
    """
    rows = draw(st.integers(2, 200))
    cols = draw(st.integers(1, min(8, rows - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((rows, cols))
    for k in range(cols):
        kind = draw(st.sampled_from(["random", "zero", "copy"]))
        if kind == "zero":
            a[:, k] = 0.0
        elif kind == "copy" and k:
            a[:, k] = a[:, draw(st.integers(0, k - 1))]
    a *= 10.0 ** np.array(draw(st.lists(st.integers(-300, 300), min_size=cols,
                                        max_size=cols)), dtype=np.float64)
    return a, draw(st.integers(1, cols))


def far_apart_columns():
    """A tall matrix whose columns range from about 1e-183 to 1e118."""
    a = np.random.default_rng(0).standard_normal((9, 4))
    a[:, 0] *= 1e-183
    a[:, 3] *= 1e118
    return a


@settings(max_examples=300, deadline=None)
@given(case=tall_matrices())
@example(case=(far_apart_columns(), 2))
def test_tall_basis_is_orthonormal_and_captures_the_top_energy(case):
    a, r = case
    u = leading_singular_vectors(a, r)
    assert u.shape == (a.shape[0], r)
    assert orthonormality_defect(u) <= 1e-12
    # energies of a / max|a|, so squares of 1e300 entries do not overflow
    scaled = a / max(float(np.abs(a).max()), np.finfo(np.float64).tiny)
    sigma = np.linalg.svd(scaled, compute_uv=False)
    total = float(np.sum(sigma**2))
    assert abs(captured_energy(u, scaled) - float(np.sum(sigma[:r] ** 2))) <= 1e-12 * total


@st.composite
def wide_matrices(draw):
    """J x K with J <= K, as the sweep's updates on window modes see them.

    Rows may be zero or copies of earlier ones (rank-deficient), and each is
    scaled by a power of ten in [1e-300, 1e300]; then the matrix is divided
    by the power of two that brings its peak into [1/2, 1), as the range
    rule of ``recover`` leaves its data.  So A A^T may underflow, never
    overflow.
    """
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(max(rows, 2), 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((rows, cols))
    for k in range(rows):
        kind = draw(st.sampled_from(["random", "zero", "copy"]))
        if kind == "zero":
            a[k] = 0.0
        elif kind == "copy" and k:
            a[k] = a[draw(st.integers(0, k - 1))]
    a *= 10.0 ** np.array(draw(st.lists(st.integers(-300, 300), min_size=rows,
                                        max_size=rows)), dtype=np.float64)[:, None]
    peak = float(np.abs(a).max())
    if peak:
        a = np.ldexp(a, -math.frexp(peak)[1])
    return a, draw(st.integers(1, rows))


@settings(max_examples=300, deadline=None)
@given(case=wide_matrices())
def test_wide_basis_is_orthonormal_and_captures_the_top_energy(case):
    a, r = case
    u = leading_singular_vectors(a, r)
    assert u.shape == (a.shape[0], r)
    assert orthonormality_defect(u) <= 1e-12
    # energies of a / max|a|, so the squares of its smallest rows keep their digits
    scaled = a / max(float(np.abs(a).max()), np.finfo(np.float64).tiny)
    sigma = np.linalg.svd(scaled, compute_uv=False)
    total = float(np.sum(sigma**2))
    assert abs(captured_energy(u, scaled) - float(np.sum(sigma[:r] ** 2))) <= 1e-12 * total


@settings(max_examples=300, deadline=None)
@given(case=tall_matrices(), data=st.data())
@example(case=(far_apart_columns(), 4), data=None)
def test_a_rank_above_the_width_completes_the_width_basis(case, data):
    a, _ = case
    rows, cols = a.shape
    # the explicit example takes every row
    r = rows if data is None else data.draw(st.integers(cols + 1, rows))
    u = leading_singular_vectors(a, r)
    assert u.shape == (rows, r) and u.flags.c_contiguous
    assert_same_bits(u[:, :cols], leading_singular_vectors(a, cols))
    assert orthonormality_defect(u) <= 1e-12
    # orthogonal to every column of a, relative to a's largest magnitude
    scaled = a / max(float(np.abs(a).max()), np.finfo(np.float64).tiny)
    assert np.abs(u[:, cols:].T @ scaled).max() <= 1e-13


@st.composite
def single_columns(draw):
    """A J x 1 matrix: Gaussian, tied in magnitude or zero of either sign; C or strided.

    The column is scaled by 10^k, k in [-300, 300].
    """
    rows = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["gaussian", "ties", "zero", "negative-zero"]))
    if kind == "gaussian":
        column = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(rows)
    elif kind == "ties":
        picks = draw(st.lists(st.integers(0, 4), min_size=rows, max_size=rows))
        column = np.array([0.0, -0.0, 1.0, -1.0, 0.5])[picks]
    else:
        column = np.full(rows, 0.0 if kind == "zero" else -0.0)
    column *= 10.0 ** draw(st.integers(-300, 300))
    if draw(st.booleans()):  # every other column of a wider array
        wide = np.full((rows, 2), np.nan)
        wide[:, 0] = column
        return wide[:, ::2]
    return column.reshape(rows, 1)


@settings(max_examples=400, deadline=None)
@given(a=single_columns())
# dividing by the norm rounds the first entry up to a tie with the peak
@example(a=np.array([[-np.nextafter(1.0, 0.0)], [1.0], [0.5]]))
def test_a_single_column_is_the_svds_unit_column(a):
    before = a.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = leading_singular_vectors(a, 1)
        svd = apply_sign_convention(np.linalg.svd(a, full_matrices=False)[0].copy())
    assert u.shape == a.shape and u.flags.c_contiguous
    assert_same_bits(a, before)
    if not a.any():  # 0.0 or -0.0 throughout
        assert_same_bits(u, np.eye(a.shape[0], 1))
    magnitudes = np.abs(u[:, 0])
    assert u[magnitudes.argmax(), 0] >= 0
    if np.count_nonzero(magnitudes >= (1 - 1e-15) * magnitudes.max()) > 1:
        # a peak tied to rounding: the SVD's rounding decides which entry its
        # sign convention reads, so its column may come out negated
        svd *= np.sign(svd[magnitudes.argmax()])
    assert np.abs(u - svd).max() <= 1e-15
    assert abs(float(np.linalg.norm(u)) - 1.0) <= 1e-15


# The formulas of the sign convention and of the dominant-subspace solve as
# they stood before their wrappers were trimmed (one copy, the flips made in
# place), with a single column's closed form (divided by its signed peak, then
# by its norm, then the sign convention; e_0 for a zero column) in place of
# its SVD, with no rescaling, and completed by identity columns where r
# exceeds the width: the functions must still match them to the bit.
def sign_convention_oracle(u):
    u = np.asarray(u, dtype=np.float64)
    idx = np.abs(u).argmax(axis=0)
    return u * np.where(u[idx, np.arange(u.shape[1])] < 0, -1.0, 1.0)


def leading_singular_vectors_oracle(a, r):
    a = np.asarray(a, dtype=np.float64)
    rows, cols = a.shape
    if cols == 1:
        column = a[:, 0]
        peak = column[np.abs(column).argmax()]
        if peak == 0:
            u = np.eye(rows, 1)
        else:
            u = column / peak
            u = sign_convention_oracle((u / np.linalg.norm(u)).reshape(rows, 1))
    elif rows <= cols:
        _, vecs = np.linalg.eigh(a @ a.T)
        u = sign_convention_oracle(np.ascontiguousarray(vecs[:, ::-1][:, :r]))
    else:
        u = np.linalg.svd(a, full_matrices=False)[0][:, :r]
        u = sign_convention_oracle(np.ascontiguousarray(u))
    if r > u.shape[1]:
        u = complete_orthonormal_basis(u, np.eye(rows, r - u.shape[1]))
    return u


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    # tobytes() tells +0.0 from -0.0, which array_equal does not
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@st.composite
def oddly_shaped_matrices(draw, powers=(0, 0, 0, 0, -320, -150, -40, 40, 150, 300)):
    """Wide, tall or square; free, rank-deficient or tied in magnitude; C, F or strided.

    Entries come from a small set with both signed zeros and equal magnitudes
    of both signs, or from a Gaussian; a rank-deficient matrix copies or
    zeroes columns; the whole matrix is scaled by 10^p, p drawn from
    ``powers``, by default sometimes far outside the window of the range
    rule of ``recover``; the layout is C-contiguous, Fortran (a transposed
    view) or every other column of a wider array.
    """
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["ties", "gaussian", "rank-deficient"]))
    if kind == "ties":
        picks = draw(st.lists(st.integers(0, 5), min_size=rows * cols, max_size=rows * cols))
        a = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0])[picks].reshape(rows, cols)
    else:
        a = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((rows, cols))
    if kind == "rank-deficient":
        for k in range(cols):
            source = draw(st.integers(-1, k - 1))  # -1: zero the column
            a[:, k] = a[:, source] if source >= 0 else -0.0
    a *= 10.0 ** draw(st.sampled_from(powers))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        a = np.ascontiguousarray(a.T).T
    elif layout == "strided":
        wide = np.full((rows, 2 * cols), np.nan)
        wide[:, ::2] = a
        a = wide[:, ::2]
    return a


@settings(max_examples=400, deadline=None)
@given(u=oddly_shaped_matrices())
def test_sign_convention_matches_its_formula_to_the_bit(u):
    want = sign_convention_oracle(u)
    got = apply_sign_convention(u)
    assert got is u  # flipped in place, whatever the layout
    assert_same_bits(got, want)


@settings(max_examples=400, deadline=None)
# A A^T of a 1e300 matrix overflows, and no caller passes one: ``recover``
# brings its data's peak into the range rule's window
@given(a=oddly_shaped_matrices(powers=(0, 0, 0, 0, -320, -150, -40, 40, 150)), data=st.data())
def test_leading_singular_vectors_match_their_formula_to_the_bit(a, data):
    r = data.draw(st.integers(1, a.shape[0]))
    before = a.copy()
    got = leading_singular_vectors(a, r)
    assert got.flags.c_contiguous
    assert_same_bits(got, leading_singular_vectors_oracle(a, r))
    assert_same_bits(a, before)


@settings(max_examples=400, deadline=None)
@given(a=oddly_shaped_matrices(powers=(0,)), scale=st.integers(-900, 900), data=st.data())
def test_a_power_of_two_scale_keeps_the_basis_bits(a, scale, data):
    # Nothing rescales.  A single column is divided by its own peak, so any
    # scale where no entry turns subnormal keeps its bits.  Inside
    # [2^-100, 2^100], the window of the range rule of ``recover``, LAPACK
    # rescales nothing either, and the solvers keep theirs
    if a.shape[1] > 1:
        scale = scale // 10
    r = data.draw(st.integers(1, a.shape[0]))
    assert_same_bits(leading_singular_vectors(np.ldexp(a, scale), r),
                     leading_singular_vectors(a, r))
