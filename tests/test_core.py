import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hankelfill import (RankSchedule, StoppingCriteria, damped_sine, default_stopping_criteria,
                        embedded_shape, make_mask, read_mask, recover, write_mask, write_tensor)
from hankelfill.completion import init_model
from hankelfill.core import as_mask, check_shape, mode_multiply, multilinear_product, unfold
from hankelfill.embedding import duplication_counts
from hankelfill.masks import unbridged_gap
from helpers import fold, planted_tucker, random_orthonormal


class TestShapeAndConstruction:
    def test_check_shape_accepts_singletons(self):
        assert check_shape((1, 5, 1)) == (1, 5, 1)

    def test_check_shape_rejects_empty(self):
        with pytest.raises(ValueError):
            check_shape(())

    def test_check_shape_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_shape((3, 0, 2))

    def test_check_shape_rejects_overflow(self):
        with pytest.raises(ValueError, match="overflow"):
            check_shape((2**31, 2**31, 2**31))

    def test_as_mask_from_zero_one(self):
        q = as_mask([[0, 1], [1, 0]])
        assert q.dtype == np.bool_
        assert q.tolist() == [[False, True], [True, False]]


class TestFrobeniusNorm:
    def test_unfolding_invariant(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((4, 3, 2))
        for mode in range(3):
            m = unfold(t, mode)
            assert np.linalg.norm(t) ** 2 == pytest.approx(float((m * m).sum()), rel=1e-12)


class TestUnfoldFold:
    def test_unfold_vector_is_column(self):
        v = np.array([1.0, 2.0, 3.0])
        m = unfold(v, 0)
        assert m.shape == (3, 1)
        np.testing.assert_array_equal(m[:, 0], v)

    def test_unfold_2x2x2_partitions_by_first_index(self):
        t = np.arange(8.0).reshape(2, 2, 2)
        m = unfold(t, 0)
        assert m.shape == (2, 4)
        # column order: remaining modes (1, 2) with mode 1 varying fastest
        for i in range(2):
            expected = [t[i, 0, 0], t[i, 1, 0], t[i, 0, 1], t[i, 1, 1]]
            np.testing.assert_array_equal(m[i], expected)

    def test_unfold_entries_match_index_arithmetic(self):
        rng = np.random.default_rng(5)
        shape = (2, 3, 2)
        t = rng.standard_normal(shape)
        m = unfold(t, 1)
        for i in range(2):
            for j in range(3):
                for k in range(2):
                    col = i + 2 * k  # lowest remaining mode fastest
                    assert m[j, col] == t[i, j, k]

    def test_fold_inverts_unfold_every_mode(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((3, 4, 2, 5))
        for mode in range(4):
            np.testing.assert_array_equal(fold(unfold(t, mode), mode, t.shape), t)

    def test_fold_degenerate_vector(self):
        out = fold(np.array([[1.0], [2.0]]), 0, (2,))
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_fold_placement_matches_oracle(self):
        a = np.arange(12.0).reshape(3, 4)
        t = fold(a, 1, (2, 3, 2))
        for i in range(2):
            for j in range(3):
                for k in range(2):
                    assert t[i, j, k] == a[j, i + 2 * k]

    def test_fold_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fold(np.zeros((3, 5)), 1, (2, 3, 2))

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            unfold(np.zeros((2, 2)), 2)


class TestModeMultiply:
    def test_identity_leaves_tensor(self):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((3, 4, 5))
        np.testing.assert_allclose(mode_multiply(t, np.eye(4), 1), t, atol=0)

    def test_ones_row_sums_mode(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((3, 4, 5))
        out = mode_multiply(t, np.ones((1, 4)), 1)
        assert out.shape == (3, 1, 5)
        for i in range(3):
            for k in range(5):
                assert out[i, 0, k] == pytest.approx(sum(t[i, j, k] for j in range(4)),
                                                     rel=1e-12)

    def test_composition_collapses_to_product(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((2, 6))
        lhs = mode_multiply(mode_multiply(t, a, 1), b, 1)
        rhs = mode_multiply(t, b @ a, 1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_unfold_identity(self):
        rng = np.random.default_rng(10)
        t = rng.standard_normal((4, 3, 2))
        a = rng.standard_normal((5, 3))
        np.testing.assert_allclose(unfold(mode_multiply(t, a, 1), 1), a @ unfold(t, 1),
                                   atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            mode_multiply(np.zeros((3, 4)), np.zeros((2, 5)), 1)


class TestMultilinearProduct:
    def test_all_identity_factors(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((2, 3, 4))
        out = multilinear_product(g, [np.eye(2), np.eye(3), np.eye(4)])
        np.testing.assert_allclose(out, g, atol=0)

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(12)
        u = rng.standard_normal((3, 1))
        v = rng.standard_normal((4, 1))
        w = rng.standard_normal((5, 1))
        out = multilinear_product(np.ones((1, 1, 1)), [u, v, w])
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    assert out[i, j, k] == pytest.approx(u[i, 0] * v[j, 0] * w[k, 0],
                                                         rel=1e-12)

    def test_application_order_irrelevant(self):
        rng = np.random.default_rng(13)
        g = rng.standard_normal((2, 2, 2))
        factors = [rng.standard_normal((4, 2)) for _ in range(3)]
        forward = multilinear_product(g, factors)
        reverse = g
        for n in (2, 1, 0):
            reverse = mode_multiply(reverse, factors[n], n)
        np.testing.assert_allclose(forward, reverse, atol=1e-12)

    def test_unfold_factorization_identity(self):
        # unfold(G x {U}, k) = U_k @ unfold(G x_{-k} {U}, k)
        rng = np.random.default_rng(14)
        g = rng.standard_normal((3, 3, 3))
        factors = [rng.standard_normal((3, 3)) for _ in range(3)]
        full = multilinear_product(g, factors)
        for k in range(3):
            partial = g
            for n, u in enumerate(factors):
                if n != k:
                    partial = mode_multiply(partial, u, n)
            np.testing.assert_allclose(unfold(full, k), factors[k] @ unfold(partial, k),
                                       atol=1e-10)

    def test_singleton_factors_other_than_identity_apply(self):
        rng = np.random.default_rng(15)
        g = rng.standard_normal((3, 1, 2))
        out = multilinear_product(g, [np.eye(3), np.array([[-2.0]]), np.eye(2)])
        np.testing.assert_array_equal(out, -2.0 * g)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="factor"):
            multilinear_product(np.zeros((2, 2)), [np.eye(2)])


def test_planted_model_reconstructs_with_known_factors():
    rng = np.random.default_rng(18)
    shape, ranks = (5, 6, 4), (2, 3, 2)
    factors = [random_orthonormal(rng, j, r) for j, r in zip(shape, ranks)]
    core = rng.standard_normal(ranks)
    t = multilinear_product(core, factors)
    # projecting back with the transposes recovers the core (orthonormal factors)
    back = multilinear_product(t, [f.T for f in factors])
    np.testing.assert_allclose(back, core, atol=1e-12)
    assert planted_tucker(shape, ranks, 0).shape == shape


# ---------------------------------------------------------------- argument rules
# Two rules are written once, in core, and every entry point delegates to them:
# an integer argument is read by operator.index, and a mask reads nonzero as
# observed and refuses NaN and +-Inf.

SIGNAL = np.sin(np.arange(12.0) / 2)
SIGNAL_MASK = np.arange(12) % 5 != 2
SHORT_RUN = StoppingCriteria(0.0, 0.0, 3)

# entry point: (the argument its error names, a call that puts a value in it)
INTEGER_ARGUMENTS = {
    "check_shape": ("dimensions", lambda v: check_shape((v, 3))),
    "embedded_shape": ("windows", lambda v: embedded_shape((6, 5), (v, 2))),
    "init_model": ("ranks", lambda v: init_model((v, 1), (4, 3), 0)),
    "RankSchedule": ("ranks", lambda v: RankSchedule(((v, 5), (1,)))),
    "StoppingCriteria": ("max_total_sweeps", lambda v: StoppingCriteria(0.0, 0.0, v)),
    "make_mask-shape": ("dimensions", lambda v: make_mask((v, 4), "random-voxel",
                                                         fraction=0.5)),
    "make_mask-start": ("start", lambda v: make_mask((6, 4), "slices", mode=0, start=v,
                                                    count=1)),
    "recover-seed": ("seed", lambda v: recover(SIGNAL, SIGNAL_MASK, (4,), schedule=(2, 2),
                                               criteria=SHORT_RUN, seed=v)),
    "make_mask-seed": ("seed", lambda v: make_mask((4, 4), "random-voxel", seed=v,
                                                   fraction=0.5)),
    "damped_sine": ("length", lambda v: damped_sine(v)),
    # 5.5 gave 6 counts and a window of 2.5 a count of 2.5
    "duplication_counts-length": ("length and tau", lambda v: duplication_counts(v + 4, 2)),
    "duplication_counts-tau": ("length and tau", lambda v: duplication_counts(6, v)),
    "damped_sine-seed": ("seed", lambda v: damped_sine(10, noise=0.1, seed=v)),
}
SEED_ARGUMENTS = [entry for entry in INTEGER_ARGUMENTS if entry.endswith("-seed")]

NUMPY_INTEGERS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
                  np.uint64)


def fingerprint(value):
    """What a call returned, arrays by dtype, shape and bytes, scalars with their type.

    A report's wall time is left out; everything else must match exactly.
    """
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(map(fingerprint, value))
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(fingerprint(getattr(value, f.name))
                                           for f in dataclasses.fields(value)
                                           if f.name != "wall_time_s")
    return type(value).__name__, value


@settings(max_examples=150, deadline=None)
@given(entry=st.sampled_from(sorted(INTEGER_ARGUMENTS)),
       value=st.one_of(st.integers(-2, 6).map(float),
                       st.floats(allow_nan=True, allow_infinity=True)),
       boxed=st.booleans())
def test_a_float_argument_is_an_error_naming_it_even_when_whole(entry, value, boxed):
    name, call = INTEGER_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be (an integer|integers), got "):
        call(np.float64(value) if boxed else value)


@settings(max_examples=100, deadline=None)
@given(entry=st.sampled_from(sorted(INTEGER_ARGUMENTS)), value=st.integers(1, 4),
       kind=st.sampled_from(NUMPY_INTEGERS))
def test_a_numpy_integer_argument_gives_the_result_of_the_python_int(entry, value, kind):
    _, call = INTEGER_ARGUMENTS[entry]
    assert fingerprint(call(kind(value))) == fingerprint(call(value))


@pytest.mark.parametrize("entry", SEED_ARGUMENTS)
@pytest.mark.parametrize("seed", [-1, -2**70, np.int8(-3)])
def test_a_negative_seed_is_an_error_naming_it(entry, seed):
    # one seed rule (core._seed) for every seeded entry point; numpy's
    # generator would refuse it as "expected non-negative integer"
    with pytest.raises(ValueError, match=f"^seed must be nonnegative, got {int(seed)}$"):
        INTEGER_ARGUMENTS[entry][1](seed)


DATA = np.arange(20.0).reshape(4, 5) / 7 + 1


def outcome(read, flags, directory):
    """``read``'s result, or the message of the ValueError it raised."""
    try:
        return fingerprint(read(flags, directory))
    except ValueError as error:
        return "ValueError", str(error)


def read_hten_mask(flags, directory):
    write_tensor(directory / "flags.hten", flags)
    return read_mask(directory / "flags.hten")


def write_hten_mask(flags, directory):
    write_mask(directory / "mask.hten", flags)
    return (directory / "mask.hten").read_bytes()


MASK_READERS = {
    "as_mask": lambda q, _: as_mask(q),
    "read_mask": read_hten_mask,
    "write_mask": write_hten_mask,
    "recover": lambda q, _: recover(DATA, q, (2, 2), schedule=(1, 2, 1, 2),
                                    criteria=SHORT_RUN, seed=0),
    "default_stopping_criteria": lambda q, _: default_stopping_criteria(DATA, q, (2, 2)),
    "unbridged_gap": lambda q, _: unbridged_gap(q, (2, 1)),
}


@st.composite
def float_masks(draw):
    """A 4x5 float mask of zeros, finite nonzeros and, in half the cases, NaN and +-Inf."""
    wild = draw(st.booleans())
    values = [0.0, -0.0, 1.0, -2.5, 5e-324, 1e308] + [np.nan, np.inf, -np.inf] * wild
    return draw(arrays(np.float64, DATA.shape, elements=st.one_of(
        st.sampled_from(values), st.floats(allow_nan=wild, allow_infinity=wild))))


@settings(max_examples=100, deadline=None)
@given(flags=float_masks())
def test_every_mask_reader_refuses_non_finite_flags_or_reads_nonzero_as_observed(
        tmp_path_factory, flags):
    directory = tmp_path_factory.mktemp("mask-rule")
    for name, read in MASK_READERS.items():
        if np.isfinite(flags).all():
            assert outcome(read, flags, directory) == outcome(read, flags != 0, directory), name
        else:
            with pytest.raises(ValueError, match="^the mask holds non-finite values; want 0 "
                                                 "for missing and a finite nonzero for "
                                                 "observed$"):
                read(flags, directory)
