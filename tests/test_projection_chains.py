"""The tensor-times-matrix kernel and the projection chain built on it.

``mode_multiply`` is checked against the definition through the unfolding.
``als_sweep`` and ``mode_residuals`` share one projection chain that reads
the input y and embeds at most one mode pair at a time, on the same routes;
they are checked against the same chain over the embedded tensor H(y)
(``helpers.embedded_*``), and that oracle against plain per-mode chains.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from hankelfill import TuckerModel, embedded_shape, mdt
from hankelfill import completion, core
from hankelfill.completion import als_sweep, init_model
from hankelfill.core import mode_multiply, multilinear_product, unfold
from hankelfill.ranking import default_rank_sequences, mode_residuals, select_increment_mode
from hankelfill.linalg import complete_orthonormal_basis, leading_singular_vectors
from helpers import (embedded_als_sweep, embedded_mode_residuals, fold, plain_als_sweep,
                     plain_mode_residuals, spied_numpy)

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


@st.composite
def middle_mode_cases(draw, narrow):
    """A middle mode between modes of product ``left`` and modes of product ``right``.

    Narrow cases have right < left, and reach the sizes at which the kernel
    loops over the trailing block (right < 4, left and R >= 64); wide ones
    have right >= left, which it batches over ``left``.
    """
    if narrow:
        right = draw(st.integers(2, 5))
        left = draw(st.integers(right + 1, 150))
    else:
        left = draw(st.integers(2, 8))
        right = draw(st.integers(left, 60))
    head = (2, left // 2) if left % 2 == 0 and draw(st.booleans()) else (left,)
    tail = (right // 2, 2) if right % 2 == 0 and draw(st.booleans()) else (right,)
    size = draw(st.integers(1, 40))
    rows = draw(st.sampled_from([1, size, 63, 64, 100]))
    kind = draw(st.sampled_from(["contiguous", "fortran", "transposed", "sliced"]))
    return (head + (size,) + tail, len(head), rows, kind, draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


@pytest.mark.parametrize("position", ["first", "middle", "last", "middle, right < left",
                                      "middle, right >= left"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mode_multiply_matches_unfolding_definition(position, data):
    # first and last: left == 1 and right == 1, one GEMM; a middle mode
    # batches over left, or loops over a narrow trailing block
    cases = (middle_mode_cases(position.endswith("< left")) if "right" in position
             else ttm_cases(position))
    shape, mode, rows, kind, a_transposed, seed = data.draw(cases)
    rng = np.random.default_rng(seed)
    t = _layout(rng, shape, kind)
    assert t.shape == shape
    a = rng.standard_normal((shape[mode], rows)).T if a_transposed \
        else rng.standard_normal((rows, shape[mode]))
    out = mode_multiply(t, a, mode)
    out_shape = shape[:mode] + (rows,) + shape[mode + 1:]
    assert out.shape == out_shape
    assert out.flags.c_contiguous
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


# ------------------------------------------------------- the input chain

def _flipped(model, flip):
    """The model, with every 1x1 factor negated if ``flip``.

    A 1x1 factor of -1 is orthonormal too, and must not be skipped as the
    identity is.
    """
    if flip:
        model.factors = [-u if u.shape == (1, 1) else u for u in model.factors]
    return model


@st.composite
def exact_cases(draw):
    """Inputs on which the input chain makes every product of the embedded chain.

    Windows of 1, where embedding is a reshape, on orders 1-6; or an order-1
    input, whose one pair is the whole embedding, at any window.
    """
    if draw(st.booleans()):
        order = draw(st.integers(1, 6))
        shape = tuple(draw(st.lists(st.integers(1, 5), min_size=order, max_size=order)))
        taus = (1,) * order
    else:
        length = draw(st.integers(1, 12))
        shape, taus = (length,), (draw(st.integers(1, length)),)
    ranks = tuple(draw(st.integers(1, j)) for j in embedded_shape(shape, taus))
    return shape, taus, ranks, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(case=exact_cases())
def test_als_sweep_matches_per_mode_chains_bit_for_bit(case):
    shape, taus, ranks, flip, seed = case
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(shape)
    z = np.array(mdt(y, taus))
    model = _flipped(init_model(ranks, z.shape, seed), flip)
    for _ in range(2):
        swept = als_sweep(y, model)
        for reference in (embedded_als_sweep(z, model), chain_als_sweep(z, model)):
            np.testing.assert_array_equal(swept.core, reference.core)
            for u, v in zip(swept.factors, reference.factors):
                np.testing.assert_array_equal(u, v)
        model = swept


@settings(max_examples=60, deadline=None)
@given(case=exact_cases())
def test_mode_residuals_matches_per_mode_chains_within_the_residual_bound(case):
    # The chain's products are those of the oracles to the bit (the sweep
    # test above), but a score is ||c - G||^2 + max(||p_m||^2 - ||c||^2, 0),
    # not the oracles' direct difference, so it is within the residual
    # bound of the fill test below, here with ||G|| = 0.
    shape, taus, ranks, flip, seed = case
    rng = np.random.default_rng(seed)
    r = np.where(rng.random(shape) < 0.6, rng.standard_normal(shape), 0.0)
    z = np.array(mdt(r, taus))
    model = _flipped(init_model(ranks, z.shape, seed), flip)
    # with a zero core the model reconstructs to 0, so H(r) is its own residual
    zero = TuckerModel(np.zeros(ranks), model.factors)
    values = mode_residuals(r, zero)
    bound = 4 * sum(z.shape) * EPS * np.linalg.norm(z)**2
    for oracle in (embedded_mode_residuals(z, zero), chain_mode_residuals(z, model.factors)):
        assert all(abs(a - b) <= bound for a, b in zip(values, oracle))


@st.composite
def windowed_cases(draw):
    order = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=order, max_size=order)))
    # windows of 1 and of the whole mode (a window mode of size 1) are edges
    taus = tuple(draw(st.one_of(st.just(1), st.just(j), st.integers(1, j))) for j in shape)
    # a full rank is above its projected width whenever the other ranks are small
    ranks = tuple(draw(st.one_of(st.just(j), st.integers(1, j)))
                  for j in embedded_shape(shape, taus))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return shape, taus, ranks, scale, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(case=windowed_cases())
@example(case=((5, 4, 3), (2, 4, 1), (2, 3, 4, 1, 1, 3), 1.0, 7))
# every windowed pair on the sweep's Gram route (O_n >= 18 against L_n = 12)
@example(case=((12, 12, 3), (4, 4, 1), (2, 3, 2, 3, 1, 3), 1.0, 7))
@example(case=((12, 12, 3), (4, 4, 1), (3, 5, 2, 5, 1, 3), 1e3, 11))
# routed, and outside the window of the range rule of recover: nothing in
# the chain rescales, and Grams near 2^+-260 keep their digits
@example(case=((12, 12, 3), (4, 4, 1), (3, 5, 2, 5, 1, 3), 2.0**130, 11))
@example(case=((12, 12, 3), (4, 4, 1), (3, 5, 2, 5, 1, 3), 2.0**-130, 11))
def test_the_input_chain_equals_the_chain_over_the_embedded_tensor(case):
    # als_sweep(y) and mode_residuals(y) against the chain over
    # z = np.array(mdt(y, taus)).  Each residual is ||c - core||^2 plus
    # ||p_m||^2 less ||c||^2 (the trace of the route's Gram on the Gram
    # route), c the chain's last product, and the oracle's the direct
    # difference, so each is within 4 * sum(embedded) * eps *
    # (||z|| + ||core||)^2 of the oracle's (see the fill test below).  On
    # order 1 and at windows of 1 the sweep makes the oracle's products, so
    # it agrees to the bit.  Elsewhere the sums run in another order: the
    # swept model's reconstruction (relative to ||z||) and factor
    # projectors U U^T are within 4 * sum(embedded) * eps / gap, where gap is
    # the smallest relative singular-value gap at the cut of any update: a
    # subspace is defined by its data only as far as that gap.  Cases with
    # gap < 1e-6 (a Hankel unfolding of lower rank than the cut, say) are
    # left out; their factors may differ in directions the data never see.
    # Measured over 9000 random cases: at most 0.23 of the residual bound
    # and 0.43 of the sweep bound; over 3000 cases with a pair on the
    # Gram route, at most 0.23 of the sweep bound, and the routed pairs'
    # residuals at most 0.092 of the residual bound (scales 1e-3 to 1e3 and
    # 2^+-130, half of them after a sweep).
    shape, taus, ranks, scale, seed = case
    rng = np.random.default_rng(seed)
    y = scale * rng.standard_normal(shape)
    z = np.array(mdt(y, taus))
    model = init_model(ranks, z.shape, seed)
    values = mode_residuals(y, model)
    oracle = embedded_mode_residuals(z, model)
    swept = als_sweep(y, model)
    spectra = []
    reference = embedded_als_sweep(z, model, spectra)
    size = np.linalg.norm(z) + np.linalg.norm(model.core)
    bound = 4 * sum(z.shape) * EPS * size**2
    assert all(abs(a - b) <= bound for a, b in zip(values, oracle))
    if len(shape) == 1 or all(tau == 1 for tau in taus):
        np.testing.assert_array_equal(swept.core, reference.core)
        for u, v in zip(swept.factors, reference.factors):
            np.testing.assert_array_equal(u, v)
        return
    gap = min((s[r - 1] - (s[r] if r < len(s) else 0.0)) / s[0] for s, r in spectra)
    assume(gap >= 1e-6)
    bound = 4 * sum(z.shape) * EPS / gap
    drift = np.abs(swept.reconstruct() - reference.reconstruct()).max()
    assert drift <= bound * np.linalg.norm(z)
    for u, v in zip(swept.factors, reference.factors):
        assert np.abs(u @ u.T - v @ v.T).max() <= bound


@settings(max_examples=200, deadline=None)
@given(case=windowed_cases())
@example(case=((12, 12, 3), (4, 4, 1), (3, 5, 2, 5, 1, 3), 1.0, 7))
# routed, outside the window of the range rule of recover, which the chain
# does not rescale
@example(case=((12, 12, 3), (4, 4, 1), (3, 5, 2, 5, 1, 3), 2.0**130, 11))
def test_a_rank_event_picks_the_mode_the_oracle_picks(case):
    # After one sweep, the default schedule's choice from mode_residuals(y)
    # is the choice from the direct differences over z = H(y), wherever the
    # oracle's best eligible score beats every other eligible one by more
    # than twice the residual bound of the test above: each score is within
    # that bound of the oracle's, so no rounding can reorder them.
    shape, taus, ranks, scale, seed = case
    rng = np.random.default_rng(seed)
    y = scale * rng.standard_normal(shape)
    z = np.array(mdt(y, taus))
    model = als_sweep(y, init_model(ranks, z.shape, seed))
    schedule = default_rank_sequences(z.shape)
    assume(any(r < seq[-1] for seq, r in zip(schedule.sequences, model.ranks)))
    values = mode_residuals(y, model)
    oracle = embedded_mode_residuals(z, model)
    bound = 4 * sum(z.shape) * EPS * (np.linalg.norm(z) + np.linalg.norm(model.core))**2

    def pick(scores):
        return select_increment_mode(scores, schedule, model.ranks)

    # a mode is eligible if a score of 1 against 0 everywhere else picks it
    eligible = [m for m in range(z.ndim) if pick(np.eye(z.ndim)[m].tolist()) == m]
    best, *rest = sorted((oracle[m] for m in eligible), reverse=True)
    assume(all(best - other > 2 * bound for other in rest))
    assert pick(values) == pick(oracle)


def _gram_route(shape, taus, ranks):
    """Per input mode, whether the sweep's chain takes its pair down the Gram route.

    Both windows above 1 and O_n >= L_n, O_n the product of the other
    modes' rank pairs R_2j R_2j+1.
    """
    embedded = embedded_shape(shape, taus)
    pairs = [a * b for a, b in zip(ranks[::2], ranks[1::2])]
    return [tau > 1 and width > 1 and math.prod(pairs[:n] + pairs[n + 1:]) >= length
            for n, (length, tau, width) in enumerate(zip(shape, embedded[::2], embedded[1::2]))]


@settings(max_examples=200, deadline=None)
@given(case=windowed_cases())
@example(case=((12, 12, 3), (4, 4, 1), (3, 5, 2, 5, 1, 3), 1.0, 7))
@example(case=((6, 7, 1, 5), (3, 4, 1, 5), (2, 3, 3, 2, 1, 1, 2, 1), 1.0, 7))
def test_the_chain_plan_routes_as_the_oracle_and_contracts_every_other_mode_once(case):
    # Each run n contracts every other input mode once: the prefix the
    # earlier runs left (modes j < n whose pair matrices shrink them) and
    # the plan's list, whose pair matrices that grow their mode come last.
    shape, taus, ranks, _, _ = case
    embedded = embedded_shape(shape, taus)
    plan = completion._chain_plan(embedded, ranks)
    assert [step.gram for step in plan.steps] == _gram_route(shape, taus, ranks)
    assert plan.lengths == shape
    grows = [a * b > length for a, b, length in zip(ranks[::2], ranks[1::2], shape)]
    for n, step in enumerate(plan.steps):
        prefix = [j for j in range(n) if not grows[j]]
        assert sorted(prefix + list(step.contract)) == [j for j in range(len(shape)) if j != n]
        flags = [grows[j] for j in step.contract]
        assert flags == sorted(flags)
        assert step.embedded == ranks[:2 * n] + embedded[2 * n:2 * n + 2] + ranks[2 * n + 2:]


SMOOTH = sorted(2**a * 3**b * 5**c for a in range(12) for b in range(8) for c in range(6))


def _fft_form(tau, width, r_tau, r_width):
    """The form rule's oracle: the FFT length n of a routed pair on the FFT form, else 0.

    n is the least 2^a 3^b 5^c >= L, and the FFT form is taken where
    tau W L (64 + r_tau + r_width) >= 64 (n^2 log2 n + 2^15).
    """
    length = tau + width - 1
    n = next(m for m in SMOOTH if m >= length)
    cheaper = tau * width * length * (64 + r_tau + r_width) >= 64 * (n * n * math.log2(n)
                                                                   + 2**15)
    return n if cheaper else 0


def test_the_fft_length_is_the_least_5_smooth_length_at_or_above():
    assert [completion._fft_length(n) for n in range(1, 2000)] == [
        next(m for m in SMOOTH if m >= n) for n in range(1, 2000)]


@settings(max_examples=300, deadline=None)
@given(tau=st.integers(2, 300), width=st.integers(2, 300), data=st.data())
def test_a_routed_pair_takes_the_windowed_grams_form_the_closed_form_picks(tau, width, data):
    # the second input mode, of size ``other`` at a window of 1, gives
    # O_0 = other; the pair is routed where other >= L
    r_tau, r_width = data.draw(st.integers(1, tau)), data.draw(st.integers(1, width))
    other = data.draw(st.integers(1, 2 * (tau + width)))
    step = completion._chain_plan((tau, width, 1, other), (r_tau, r_width, 1, other)).steps[0]
    assert step.fft == (_fft_form(tau, width, r_tau, r_width) if step.gram else 0)


def test_pixel_128_and_the_paper_take_the_fft_form_and_slice_inpaint_keeps_the_matmul_form():
    # pixel-128 at its fixed ranks; the paper's image at tau=32,32,1 at
    # every rank stage of its default schedule on which a pair is routed;
    # slice-inpaint at every ranks up to its final (8, 8, 8, 8, 1, 3)
    pixel = completion._chain_plan(embedded_shape((128, 128, 3), (16, 16, 1)),
                                   (8, 16, 8, 16, 1, 3))
    assert [step.fft for step in pixel.steps] == [128, 128, 0]
    paper = embedded_shape((256, 256, 3), (32, 32, 1))
    small = embedded_shape((64, 64, 3), (8, 8, 1))
    for ranks in itertools.product((1, 2, 4, 8, 16), repeat=4):
        plan = completion._chain_plan(paper, ranks + (1, 3))
        assert [step.fft for step in plan.steps] == [256 if s.gram else 0 for s in plan.steps]
        if max(ranks) <= 8:
            plan = completion._chain_plan(small, ranks + (1, 3))
            assert [step.fft for step in plan.steps] == [0, 0, 0]


@st.composite
def gram_route_cases(draw):
    """Order 2-3 windowed inputs on which at least one pair takes the Gram route."""
    order = draw(st.integers(2, 3))
    shape = tuple(draw(st.lists(st.integers(3, 8), min_size=order, max_size=order)))
    taus = tuple(draw(st.one_of(st.just(1), st.integers(2, j - 1))) for j in shape)
    ranks = tuple(draw(st.one_of(st.just(j), st.integers(1, j)))
                  for j in embedded_shape(shape, taus))
    assume(any(_gram_route(shape, taus, ranks)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return shape, taus, ranks, scale, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(case=gram_route_cases())
def test_the_gram_route_gives_the_gram_of_the_projection_routes_unfolding(case):
    # The chain runs on fixed factors (the visits update none), recording
    # each routed pair's L x O chain product T, which the route reads once
    # per routed pair in mode order, as its mode-n-first view, and each
    # Gram g.  The reference is
    # built here from T: its delay embedding E[a, b, o] = T[a + b, o],
    # contracted with the pair's other factor U, k x r, gives the unfolding
    # A of the projection the projection route would visit, up to a
    # permutation of its columns, which leaves A A^T as it is.  Both sides
    # sum the same products U[b, c] U[b', c] T[a + b, o] T[a' + b', o].
    # The reference takes a length-k dot product per entry of A, then a
    # length-r O one per entry of A A^T: k + r O roundings along each
    # product.  The Gram route takes O for S = T T^T, k and r for the two
    # factor products and k - 1 for the strided sum.  So each side is within
    # gamma_d = d u / (1 - d u), u = eps / 2, d = r O + 2k + r, of the exact
    # Gram, relative to the same sums over magnitudes: |A| |A|^T with A
    # taken from |T| and |U|.  Measured over 3000 random cases: at most 0.30
    # of the bound.
    shape, taus, ranks, scale, seed = case
    rng = np.random.default_rng(seed)
    y = scale * rng.standard_normal(shape)
    factors = init_model(ranks, embedded_shape(shape, taus), seed).factors
    products, grams = [], {}

    def gram(m, g):
        grams[m] = g

    with spied_numpy(completion, "moveaxis",
                     lambda t: products.append(t.reshape(len(t), -1).copy())):
        completion._leave_one_out(y, list(factors), lambda m, p: None, gram)
    routed = [n for n, on in enumerate(_gram_route(shape, taus, ranks)) if on]
    assert sorted(grams) == [m for n in routed for m in (2 * n, 2 * n + 1)]
    assert [t.shape[0] for t in products] == [shape[n] for n in routed]
    for n, t in zip(routed, products):
        windows = sliding_window_view(t, factors[2 * n + 1].shape[0], axis=0)  # (tau, O, W)
        # each mode's rows, by O, by the other mode's rows, which u contracts
        for m, rows, u in ((2 * n, windows, factors[2 * n + 1]),
                           (2 * n + 1, windows.transpose(2, 1, 0), factors[2 * n])):
            a = (rows @ u).reshape(len(rows), -1)
            magnitudes = (np.abs(rows) @ np.abs(u)).reshape(len(rows), -1)
            d = u.shape[1] * t.shape[1] + 2 * u.shape[0] + u.shape[1]
            gamma = d * EPS / 2 / (1 - d * EPS / 2)
            assert np.all(np.abs(grams[m] - a @ a.T)
                          <= 2 * gamma * (magnitudes @ magnitudes.T))


# pixel-128's pairs at its fixed ranks, and the paper's at its final ones
FFT_CASES = {"pixel-128": (16, 113, 8, 16, 384), "paper": (32, 225, 16, 16, 768)}


@pytest.mark.parametrize("offset", [0.0, 3.0], ids=["centred", "offset"])
@pytest.mark.parametrize("case", sorted(FFT_CASES))
def test_the_fft_form_of_the_windowed_gram_meets_its_normwise_bound(case, offset):
    # Both sides of a routed pair past the form rule's crossover, against
    # the matmul form in long double.  An FFT's error is normwise: with
    # N = n^2 points, each 2-D transform is within eps_N = 4 log2(N) eps of
    # the exact one in the 2-norm (Higham, Accuracy and Stability, sect.
    # 24.1: log2(N) passes, each a few roundings).  Let a, b be the exact
    # transforms of m = u u^T and s, zero-padded to n x n, with
    # ||a||_2 = n ||m||_F and ||b||_2 = n ||s||_F.  Then the product's
    # error is at most eps_N n (||m||_F ||b||_inf + ||a||_inf ||s||_F) plus
    # one rounding of ||a||_inf n ||s||_F, and the inverse divides by n and
    # adds eps_N of the product, so
    # ||G_fft - G||_F <= eps_N (||m||_F ||b||_inf + 3 ||a||_inf ||s||_F).
    # ||a||_inf <= k for orthonormal u, and ||b||_inf <= sum |s|, which an
    # offset chain matrix makes n ||s||_F or so.  The reference's own error
    # is within 2 gamma_d of the magnitudes' Gram, d = 2k + r, in long
    # double's eps.  Measured at these shapes, offsets 0, 3 and 30, three
    # seeds and ranks 1 to 64: at most 0.003 of the bound, and at most 0.81
    # of the plain form log2(n) eps ||s||_F ||m||_F, which the matmul form's
    # own error reached 0.68 of.
    tau, width, r_tau, r_width, other = FFT_CASES[case]
    length = tau + width - 1
    n = completion._fft_length(length)
    shape = (tau, width, 1, other)
    assert completion._chain_plan(shape, (r_tau, r_width, 1, other)).steps[0].fft == n
    rng = np.random.default_rng(5)
    t = rng.standard_normal((length, other)) + offset
    s = t @ t.T
    spectrum = np.fft.rfft2(s, (n, n))
    peak_s = np.abs(spectrum).max()
    ld = np.longdouble
    for count, rank in ((tau, r_width), (width, r_tau)):  # each mode's Gram
        k = length - count + 1
        u = complete_orthonormal_basis(np.empty((k, 0)), rng.standard_normal((k, rank)))
        m = u @ u.T
        g = completion._fft_windowed_gram(spectrum, u, count)
        exact = completion._windowed_gram(s.astype(ld), u.astype(ld), count)
        d = 2 * k + rank
        eps_ld = float(np.finfo(ld).eps)
        reference = 2 * d * eps_ld * np.linalg.norm(
            completion._windowed_gram(np.abs(s), np.abs(u), count))
        eps_n = 4 * math.log2(n * n) * EPS
        bound = eps_n * (np.linalg.norm(m) * peak_s
                         + 3 * np.abs(np.fft.rfft2(m, (n, n))).max() * np.linalg.norm(s))
        error = float(np.linalg.norm((g - exact).astype(np.float64)))
        assert error <= bound + reference


def test_mode_residuals_on_the_fft_form_are_within_the_residual_bound():
    # a 128 x 128 input at tau=16,16: both pairs routed, both on the FFT
    # form; every score within the bound of the windowed test above
    # (measured at most 0.0011 of it over three seeds)
    shape, taus, ranks = (128, 128), (16, 16), (8, 16, 8, 16)
    embedded = embedded_shape(shape, taus)
    assert [step.fft for step in completion._chain_plan(embedded, ranks).steps] == [128, 128]
    rng = np.random.default_rng(3)
    i, j = np.meshgrid(np.arange(128.0), np.arange(128.0), indexing="ij")
    y = np.sin(0.35 * i + 0.55 * j) + 0.5 * np.cos(0.9 * i - 0.25 * j) + 0.1 * (
        rng.standard_normal(shape))
    model = als_sweep(y, init_model(ranks, embedded, 3))
    z = np.array(mdt(y, taus))
    values = mode_residuals(y, model)
    oracle = embedded_mode_residuals(z, model)
    bound = 4 * sum(z.shape) * EPS * (np.linalg.norm(z) + np.linalg.norm(model.core))**2
    assert all(abs(a - b) <= bound for a, b in zip(values, oracle))


@st.composite
def plain_cases(draw):
    order = draw(st.integers(1, 6))
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=order, max_size=order)))
    ranks = tuple(draw(st.integers(1, j)) for j in shape)
    return shape, ranks, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(case=plain_cases(), observed=st.sampled_from([0.3, 0.7, 1.0]), sweeps=st.integers(0, 3),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_mode_residuals_of_the_fill_match_the_masked_residuals_chains(case, observed, sweeps,
                                                                       scale):
    # The loop ranks the modes from the fill z = where(q, t, x) (windows of
    # 1 here): the projection of z less the core times U_m, which is the
    # projection of x when the factors are orthonormal.  The oracle projects
    # the masked residual where(q, t - x, 0) = z - x directly.  Each side's
    # residual vector is within about sum(shape) * eps * (||z|| + ||x||) of
    # the exact one (chains of dot products at most that long, and factors
    # orthonormal to rounding), and its squared norm is at most
    # (||z|| + ||x||)^2, with ||x|| = ||core||.  Measured over 3000 random
    # cases: 1.52 * sum(shape) * eps * (||z|| + ||x||)^2.  Relative to
    # ||z||^2 alone there is no bound: a random start can be far larger than
    # small data.
    shape, ranks, flip, seed = case
    rng = np.random.default_rng(seed)
    t = scale * rng.standard_normal(shape)
    q = rng.random(shape) < observed
    model = _flipped(init_model(ranks, shape, seed), flip)
    for _ in range(sweeps):
        model = plain_als_sweep(np.where(q, t, model.reconstruct()), model)
    x = model.reconstruct()
    z = np.where(q, t, x)
    values = plain_mode_residuals(z, model)
    oracle = chain_mode_residuals(np.where(q, t - x, 0.0), model.factors)
    size = np.linalg.norm(z) + np.linalg.norm(model.core)
    bound = 4 * sum(shape) * EPS * size**2
    assert all(abs(a - b) <= bound for a, b in zip(values, oracle))


# --------------------------------------------------------- structural guard

@pytest.mark.parametrize("layer", ["als_sweep", "mode_residuals"])
def test_sweep_reads_the_full_tensor_at_most_twice(monkeypatch, layer):
    # A plain tensor (windows of 1), order 6 with one singleton mode; a
    # per-mode chain from the full tensor (plus the core chain) reads it 6
    # times.  The chain reads it for input mode 0's projection and for the
    # prefix that the later modes share, and embeds only what is left.
    shape, ranks = (4, 5, 1, 6, 3, 4), (2, 3, 1, 2, 2, 3)
    rng = np.random.default_rng(3)
    z = rng.standard_normal(shape)
    model = init_model(ranks, shape, 3)
    full_reads = []

    def counting(t, a, mode):
        full_reads.append(np.size(t) == z.size)
        return mode_multiply(t, a, mode)

    def embedding(t, *args):
        full_reads.append(np.size(t) == z.size)
        return completion_embed(t, *args)

    completion_embed = completion._embed_mode
    monkeypatch.setattr(completion, "_embed_mode", embedding)
    monkeypatch.setattr(completion, "mode_multiply", counting)
    if layer == "als_sweep":
        plain_als_sweep(z, model)
    else:
        plain_mode_residuals(z, TuckerModel(np.zeros(ranks), model.factors))
    assert full_reads
    assert sum(full_reads) <= 2


@pytest.mark.parametrize("layer", ["als_sweep", "mode_residuals"])
def test_the_chain_builds_no_embedded_tensor_and_reads_each_pair_embedding_twice(monkeypatch,
                                                                                layer):
    # Order 4 with one singleton mode and one window of the whole mode.  The
    # chain builds one pair embedding per input mode off the Gram route and
    # reads it at most twice (mode 2n + 1's product for mode 2n's visit, and
    # mode 2n's product), and no product reads a tensor the embedded
    # tensor's size.  The Gram route takes the pairs with both windows above
    # 1 and O_n >= L_n, O_n the other modes' rank pairs: input modes 0 and 1
    # here (O = 12 against L = 6 and 7), which neither the sweep nor the
    # mode ranking embeds.  The singleton mode's pair and the whole-mode
    # window's embed nothing: their pair embedding is a view of the chain's
    # product, no copy, so the read count holds for the copies alone.
    shape, taus = (6, 7, 1, 5), (3, 4, 1, 5)
    embedded = embedded_shape(shape, taus)
    ranks = (2, 3, 3, 2, 1, 1, 2, 1)
    gram_route = _gram_route(shape, taus, ranks)
    assert gram_route == [True, True, False, False]
    rng = np.random.default_rng(3)
    y = rng.standard_normal(shape)
    model = init_model(ranks, embedded, 3)
    embeddings, reads = [], []

    def embedding(t, mode, *args):
        embeddings.append((mode, t, completion_embed(t, mode, *args)))
        return embeddings[-1][2]

    def counting(t, a, mode):
        reads.append(t)
        return mode_multiply(t, a, mode)

    completion_embed = completion._embed_mode
    monkeypatch.setattr(completion, "_embed_mode", embedding)
    monkeypatch.setattr(completion, "mode_multiply", counting)
    if layer == "als_sweep":
        als_sweep(y, model)
    else:
        mode_residuals(y, TuckerModel(np.zeros(ranks), model.factors))
    assert [n for n, _, _ in embeddings] == [n for n, routed in enumerate(gram_route)
                                             if not routed]
    assert max(np.size(t) for t in reads) < math.prod(embedded)
    for n, t, z in embeddings:
        if taus[n] in (1, shape[n]):
            assert np.shares_memory(z, t)
        else:
            assert sum(np.shares_memory(r, z) for r in reads) <= 2


def test_reconstruct_reads_no_full_size_tensor(monkeypatch):
    # The pixel-128 model (a 128x128x3 image, windows (16, 16, 1)).  In mode
    # order its last product is the 3x3 channel factor over the full tensor;
    # in growth order (I_n / R_n = 2, 113/16, 2, 113/16, 1, 1, ties to the
    # higher mode) the full size is only ever the output.  The singleton
    # mode's 1x1 identity reaches mode_multiply, which returns its tensor.
    shape, ranks = (16, 113, 16, 113, 1, 3), (8, 16, 8, 16, 1, 3)
    model = init_model(ranks, shape, 0)
    calls = []

    def recording(t, a, mode):
        calls.append((mode, np.size(t)))
        return mode_multiply(t, a, mode)

    monkeypatch.setattr(core, "mode_multiply", recording)
    x = model.reconstruct()
    assert x.shape == shape
    assert [mode for mode, _ in calls] == [5, 4, 2, 0, 3, 1]
    assert max(size for _, size in calls) < x.size / 4
