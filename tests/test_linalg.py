import numpy as np
import pytest
from hypothesis import given, settings
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
                                               ((5, 5), "eigh")])
    def test_one_decomposition_per_call(self, monkeypatch, shape, solver):
        # tall: one thin SVD, orthonormal by construction, no fix-up QR;
        # wide or square: one eigensolve of the small Gram matrix
        calls = []

        def counted(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("svd", "eigh", "qr"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        a = np.random.default_rng(8).standard_normal(shape)
        leading_singular_vectors(a, 2)
        assert calls == [solver]

    def test_r_out_of_range(self):
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
        np.testing.assert_array_equal(apply_sign_convention(once), once)


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
    is scaled by a power of ten in [1e-150, 1e150].
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
    a *= 10.0 ** np.array(draw(st.lists(st.integers(-150, 150), min_size=cols,
                                        max_size=cols)), dtype=np.float64)
    return a, draw(st.integers(1, cols))


@settings(max_examples=300, deadline=None)
@given(case=tall_matrices())
def test_tall_basis_is_orthonormal_and_captures_the_top_energy(case):
    a, r = case
    u = leading_singular_vectors(a, r)
    assert u.shape == (a.shape[0], r)
    assert orthonormality_defect(u) <= 1e-12
    # energies of a / max|a|, so squares of 1e150 entries do not overflow
    scaled = a / max(float(np.abs(a).max()), np.finfo(np.float64).tiny)
    sigma = np.linalg.svd(scaled, compute_uv=False)
    total = float(np.sum(sigma**2))
    assert abs(captured_energy(u, scaled) - float(np.sum(sigma[:r] ** 2))) <= 1e-12 * total


# The formulas of the sign convention and of the dominant-subspace solve as
# they stood before their wrappers were trimmed (one copy, the flips made in
# place): the functions must still match them to the bit.
def sign_convention_oracle(u):
    u = np.asarray(u, dtype=np.float64)
    idx = np.abs(u).argmax(axis=0)
    return u * np.where(u[idx, np.arange(u.shape[1])] < 0, -1.0, 1.0)


def leading_singular_vectors_oracle(a, r):
    a = np.asarray(a, dtype=np.float64)
    rows, cols = a.shape
    if rows <= cols:
        _, vecs = np.linalg.eigh(a @ a.T)
        u = vecs[:, ::-1][:, :r]
    else:
        u = np.linalg.svd(a, full_matrices=False)[0][:, :r]
    return sign_convention_oracle(np.ascontiguousarray(u))


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    # tobytes() tells +0.0 from -0.0, which array_equal does not
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@st.composite
def oddly_shaped_matrices(draw):
    """Wide, tall or square; free, rank-deficient or tied in magnitude; C, F or strided.

    Entries come from a small set with both signed zeros and equal magnitudes
    of both signs, or from a Gaussian; a rank-deficient matrix copies or
    zeroes columns; the layout is C-contiguous, Fortran (a transposed view)
    or every other column of a wider array.
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
    before = u.copy()
    got = apply_sign_convention(u)
    assert_same_bits(got, sign_convention_oracle(u))
    assert not np.shares_memory(got, u)
    assert_same_bits(u, before)  # the input is left alone


@settings(max_examples=400, deadline=None)
@given(a=oddly_shaped_matrices(), data=st.data())
def test_leading_singular_vectors_match_their_formula_to_the_bit(a, data):
    r = data.draw(st.integers(1, min(a.shape)))
    before = a.copy()
    got = leading_singular_vectors(a, r)
    assert got.flags.c_contiguous
    assert_same_bits(got, leading_singular_vectors_oracle(a, r))
    assert_same_bits(a, before)
