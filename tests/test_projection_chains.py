"""The tensor-times-matrix kernel and the projection chains built on it.

``mode_multiply`` is checked against the definition through the unfolding,
and ``als_sweep``/``mode_residuals``, which share one prefix-sharing
projection chain, against the plain per-mode chains they replace.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankelfill import (TuckerModel, als_sweep, init_model, mode_multiply, mode_residuals,
                        multilinear_product, unfold)
from hankelfill import completion, core, ranking
from hankelfill.linalg import complete_orthonormal_basis, leading_singular_vectors
from helpers import fold

EPS = np.finfo(np.float64).eps


# ---------------------------------------------------------------- references

def chain_als_sweep(z, model):
    """One ALS cycle as a separate projection chain from z per mode, then the core."""
    factors = list(model.factors)
    ranks = model.ranks
    for m in range(z.ndim):
        if z.shape[m] == 1:
            continue
        y = z
        for n, u in enumerate(factors):
            if n != m:
                y = mode_multiply(y, u.T, n)
        flat = unfold(y, m)
        r_eff = min(ranks[m], flat.shape[1])
        basis = leading_singular_vectors(flat, r_eff)
        if r_eff < ranks[m]:
            basis = complete_orthonormal_basis(basis, np.eye(z.shape[m], ranks[m] - r_eff))
        factors[m] = basis
    core = z
    for n, u in enumerate(factors):
        core = mode_multiply(core, u.T, n)
    return TuckerModel(core, factors)


def chain_mode_residuals(r, factors):
    """Masked residual projected onto every factor but one, one chain per mode."""
    values = []
    for m in range(r.ndim):
        w = r
        for n, u in enumerate(factors):
            if n != m:
                w = mode_multiply(w, u.T, n)
        values.append(float(w.ravel() @ w.ravel()))
    return values


# ------------------------------------------------------------------- kernel

def _layout(rng, shape, kind):
    """A tensor of the given shape whose memory is laid out as ``kind`` says."""
    if kind == "contiguous":
        return rng.standard_normal(shape)
    if kind == "fortran":
        return np.asfortranarray(rng.standard_normal(shape))
    if kind == "transposed":
        perm = rng.permutation(len(shape))
        base = rng.standard_normal(tuple(shape[p] for p in perm))
        return base.transpose(np.argsort(perm))
    # "sliced": every other entry along the first mode, offset by one
    base = rng.standard_normal((2 * shape[0] + 1,) + tuple(shape[1:]))
    return base[1::2]


@st.composite
def ttm_cases(draw, position):
    low = 3 if position == "middle" else 1
    order = draw(st.integers(low, 6))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=order, max_size=order)))
    mode = {"first": 0, "last": order - 1}.get(position)
    if mode is None:
        mode = draw(st.integers(1, order - 2))
    size = shape[mode]
    rows = draw(st.sampled_from([1, size, size + draw(st.integers(1, 3))]))
    kind = draw(st.sampled_from(["contiguous", "fortran", "transposed", "sliced"]))
    a_transposed = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return shape, mode, rows, kind, a_transposed, seed


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mode_multiply_matches_unfolding_definition(position, data):
    shape, mode, rows, kind, a_transposed, seed = data.draw(ttm_cases(position))
    rng = np.random.default_rng(seed)
    t = _layout(rng, shape, kind)
    assert t.shape == shape
    a = rng.standard_normal((shape[mode], rows)).T if a_transposed \
        else rng.standard_normal((rows, shape[mode]))
    out = mode_multiply(t, a, mode)
    out_shape = shape[:mode] + (rows,) + shape[mode + 1:]
    assert out.shape == out_shape
    assert out.flags.c_contiguous
    buf = np.full(out_shape, np.nan)
    assert mode_multiply(t, a, mode, out=buf) is buf
    np.testing.assert_array_equal(buf, out)
    expected = fold(a @ unfold(t, mode), mode, out_shape)
    # Both sides are length-I_k dot products, each within I_k*eps/2 of the
    # exact value relative to |a| @ |t|; they may sum in different orders.
    bound = shape[mode] * EPS * fold(np.abs(a) @ np.abs(unfold(t, mode)), mode, out_shape)
    assert np.all(np.abs(out - expected) <= bound)


@st.composite
def product_cases(draw):
    order = draw(st.integers(1, 5))
    ranks = tuple(draw(st.lists(st.integers(1, 4), min_size=order, max_size=order)))
    # rows below, at and above each rank; a 1x1 identity is skipped
    rows = tuple(draw(st.integers(1, 6)) for _ in ranks)
    identity = tuple(r == j == 1 and draw(st.booleans()) for r, j in zip(ranks, rows))
    return ranks, rows, identity, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(case=product_cases())
def test_multilinear_product_matches_the_mode_order_chain(case):
    ranks, rows, identity, seed = case
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(ranks)
    factors = [np.ones((1, 1)) if unit else rng.standard_normal((j, r))
               for j, r, unit in zip(rows, ranks, identity)]
    out = multilinear_product(g, factors)
    chain = g
    for n, u in enumerate(factors):
        chain = mode_multiply(chain, u, n)
    assert out.shape == rows
    # Each entry is a sum of products g * prod u over every rank tuple; in any
    # mode order, its rounding is a chain of dot products sum(ranks) long, so
    # each side is within sum(ranks) * eps/2 of the exact value relative to
    # the same product over magnitudes.
    bound = sum(ranks) * EPS * multilinear_product(np.abs(g), [np.abs(u) for u in factors])
    assert np.all(np.abs(out - chain) <= bound)


@settings(max_examples=100, deadline=None)
@given(case=product_cases())
@example(case=((1, 1), (1, 1), (True, True), 0))
def test_reconstruct_into_a_buffer_is_bit_equal(case):
    # The sweep loop reconstructs every model into the fill the previous one
    # left behind; the values must not depend on where they are written.  With
    # every factor a 1x1 identity the buffer receives a copy of the core.
    ranks, rows, identity, seed = case
    rng = np.random.default_rng(seed)
    model = TuckerModel(rng.standard_normal(ranks),
                        [np.ones((1, 1)) if unit else rng.standard_normal((j, r))
                         for j, r, unit in zip(rows, ranks, identity)])
    buf = np.full(rows, np.nan)
    assert model.reconstruct(out=buf) is buf
    np.testing.assert_array_equal(buf, model.reconstruct())
    assert not np.shares_memory(buf, model.core)


def test_a_buffer_of_the_wrong_shape_or_layout_is_rejected():
    model = init_model((2, 3), (4, 5), 0)
    for buf in (np.empty((5, 4)), np.empty((4, 5), order="F"), np.empty((4, 5), np.float32)):
        with pytest.raises(ValueError, match="out must be"):
            model.reconstruct(out=buf)


# ------------------------------------------------------- prefix-shared chains

@st.composite
def sweep_cases(draw):
    order = draw(st.integers(1, 6))
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=order, max_size=order)))
    ranks = tuple(draw(st.integers(1, j)) for j in shape)
    # A 1x1 factor of -1 is orthonormal too, and must not be skipped as the
    # identity is.
    flip = draw(st.booleans())
    return shape, ranks, flip, draw(st.integers(0, 2**32 - 1))


def _start(shape, ranks, flip, seed):
    model = init_model(ranks, shape, seed)
    if flip:
        model.factors = [-u if u.shape == (1, 1) else u for u in model.factors]
    return model


@settings(max_examples=60, deadline=None)
@given(case=sweep_cases())
def test_als_sweep_matches_per_mode_chains_bit_for_bit(case):
    shape, ranks, flip, seed = case
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(shape)
    model = _start(shape, ranks, flip, seed)
    for _ in range(2):
        swept = als_sweep(z, model)
        reference = chain_als_sweep(z, model)
        np.testing.assert_array_equal(swept.core, reference.core)
        for u, v in zip(swept.factors, reference.factors):
            np.testing.assert_array_equal(u, v)
        model = swept


@settings(max_examples=60, deadline=None)
@given(case=sweep_cases())
def test_mode_residuals_matches_per_mode_chains_bit_for_bit(case):
    shape, ranks, flip, seed = case
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(shape)
    q = rng.random(shape) < 0.6
    model = _start(shape, ranks, flip, seed)
    r = np.where(q, t - model.reconstruct(), 0.0)
    # with a zero core the model reconstructs to 0, so r is its own fill
    zero = TuckerModel(np.zeros(ranks), model.factors)
    assert mode_residuals(r, zero) == chain_mode_residuals(r, model.factors)


@settings(max_examples=100, deadline=None)
@given(case=sweep_cases(), observed=st.sampled_from([0.3, 0.7, 1.0]), sweeps=st.integers(0, 3),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_mode_residuals_of_the_fill_match_the_masked_residuals_chains(case, observed, sweeps,
                                                                       scale):
    # The loop ranks the modes from the fill z = where(q, t, x): the projection
    # of z less the core times U_m, which is the projection of x when the
    # factors are orthonormal.  The oracle projects the masked residual
    # where(q, t - x, 0) = z - x directly.  Each side's residual vector is
    # within about sum(shape) * eps * (||z|| + ||x||) of the exact one (chains
    # of dot products at most that long, and factors orthonormal to rounding),
    # and its squared norm is at most (||z|| + ||x||)^2, with ||x|| = ||core||.
    # Measured over 3000 random cases: 1.52 * sum(shape) * eps * (||z|| + ||x||)^2.
    # Relative to ||z||^2 alone there is no bound: a random start can be far
    # larger than small data.
    shape, ranks, flip, seed = case
    rng = np.random.default_rng(seed)
    t = scale * rng.standard_normal(shape)
    q = rng.random(shape) < observed
    model = _start(shape, ranks, flip, seed)
    for _ in range(sweeps):
        model = als_sweep(np.where(q, t, model.reconstruct()), model)
    x = model.reconstruct()
    z = np.where(q, t, x)
    values = mode_residuals(z, model)
    oracle = chain_mode_residuals(np.where(q, t - x, 0.0), model.factors)
    size = np.linalg.norm(z) + np.linalg.norm(model.core)
    bound = 4 * sum(shape) * EPS * size**2
    assert all(abs(a - b) <= bound for a, b in zip(values, oracle))


# --------------------------------------------------------- structural guard

@pytest.mark.parametrize("layer", ["als_sweep", "mode_residuals"])
def test_sweep_reads_the_full_tensor_at_most_twice(monkeypatch, layer):
    # Order 6 with one singleton mode; a per-mode chain from the full tensor
    # (plus the core chain) reads it 6 times.
    shape, ranks = (4, 5, 1, 6, 3, 4), (2, 3, 1, 2, 2, 3)
    rng = np.random.default_rng(3)
    z = rng.standard_normal(shape)
    model = init_model(ranks, shape, 3)
    full_reads = []

    def counting(t, a, mode):
        full_reads.append(np.size(t) == z.size)
        return mode_multiply(t, a, mode)

    monkeypatch.setattr(completion, "mode_multiply", counting)
    monkeypatch.setattr(ranking, "mode_multiply", counting)
    if layer == "als_sweep":
        als_sweep(z, model)
    else:
        mode_residuals(z, TuckerModel(np.zeros(ranks), model.factors))
    assert full_reads
    assert sum(full_reads) <= 2


def test_reconstruct_reads_no_full_size_tensor(monkeypatch):
    # The pixel-128 model (a 128x128x3 image, windows (16, 16, 1)).  In mode
    # order its last product is the 3x3 channel factor over the full tensor;
    # in growth order (I_n / R_n = 2, 113/16, 2, 113/16, -, 1, ties to the
    # higher mode) the full size is only ever the output.
    shape, ranks = (16, 113, 16, 113, 1, 3), (8, 16, 8, 16, 1, 3)
    model = init_model(ranks, shape, 0)
    calls = []

    def recording(t, a, mode, out=None):
        calls.append((mode, np.size(t)))
        return mode_multiply(t, a, mode, out=out)

    monkeypatch.setattr(core, "mode_multiply", recording)
    x = model.reconstruct()
    assert x.shape == shape
    assert [mode for mode, _ in calls] == [5, 2, 0, 3, 1]
    assert max(size for _, size in calls) < x.size / 4
