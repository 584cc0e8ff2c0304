import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from sasakian import report as rep
from sasakian.immersion import _FACTORIAL, ParametricImmersion, _phase
from sasakian.jets import (
    MAX_ORDER,
    Jet,
    _mul_table,
    _nterms,
    _position,
    _terms,
)

# the most parameters of an immersion: a cylinder over a 3-dimensional torus
MAX_VARS = 4


def _add_at_product(a: Jet, b: Jet) -> Jet:
    """Reference jet product: an np.add.at scatter over _mul_table."""
    a, b = a._coerce(b)
    ia, ib, iout = _mul_table(a.nvars, a.acc)
    prod = a.coef[..., ia] * b.coef[..., ib]
    out = np.zeros(prod.shape[:-1] + (_nterms(a.nvars, a.acc),))
    np.add.at(out.reshape(-1, out.shape[-1]).T, iout, prod.reshape(-1, prod.shape[-1]).T)
    return oracles.jet(a.nvars, a.acc, out)


def _scatter_deriv(jet: Jet, var: int) -> Jet:
    """Reference derivative: zero-fill the lower jet, then scatter the lowered terms into it."""
    lower = _position(jet.nvars, jet.acc - 1)
    src, dst, fac = [], [], []
    for i, m in enumerate(_terms(jet.nvars, jet.acc)):
        if m[var]:
            src.append(i)
            dst.append(lower[tuple(e - (k == var) for k, e in enumerate(m))])
            fac.append(float(m[var]))
    out = np.zeros(jet.coef.shape[:-1] + (len(lower),))
    out[..., dst] = jet.coef[..., src] * np.asarray(fac)
    return oracles.jet(jet.nvars, jet.acc - 1, out)


def _reduce_sum(jet: Jet, axis: int) -> Jet:
    """Reference component sum: numpy's reduction of the C-contiguous term-last array."""
    return oracles.jet(jet.nvars, jet.acc, np.sum(np.ascontiguousarray(jet.coef), axis=axis, keepdims=True))


def _term_last_wave_jets(F: ParametricImmersion, pts: np.ndarray, acc: int) -> np.ndarray:
    """Reference closed-form coefficients: the term-last einsum "nk,ktj->njt"."""
    hi, lo = _phase(F.phases, pts, F.frequencies)
    c, s = np.cos(hi), np.sin(hi)
    wave = (c - lo * s) + 1j * (s + lo * c)
    exps = np.array(_terms(F.m, acc))
    turn = np.array([1.0, 1j, -1.0, -1j])[exps.sum(axis=1) % 4]
    scale = np.prod(F.frequencies[:, None, :] ** exps / _FACTORIAL[exps], axis=-1) * turn
    coef = np.einsum("nk,ktj->njt", wave, scale[:, :, None] * F.amplitudes[:, None, :], order="C")
    return np.concatenate([coef.real, coef.imag], axis=-2)


def _assert_bit_equal(got: np.ndarray, want: np.ndarray):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_lift_value_component():
    j = oracles.variable(2.0, 0, 1, 3)
    assert j.value == pytest.approx(2.0)


def test_lift_seed_derivative():
    j = oracles.variable(0.7, 0, 1, 3)
    assert oracles.partial(j, (1,)) == pytest.approx(1.0)
    assert oracles.partial(j, (2,)) == pytest.approx(0.0)


def test_sin_second_derivative_at_zero():
    j = oracles.variable(0.0, 0, 1, 3).sincos()[0]
    assert oracles.partial(j, (2,)) == pytest.approx(0.0, abs=1e-15)


def test_partial_circle_tangent():
    s = math.pi / 3
    u = oracles.variable(s, 0, 1, 2)
    y, x = u.sincos()
    assert oracles.partial(x, (1,)) == pytest.approx(-math.sin(s))
    assert oracles.partial(y, (1,)) == pytest.approx(math.cos(s))


def test_partial_mixed_two_vars():
    u = oracles.variable(0.0, 0, 2, 3)
    v = oracles.variable(0.0, 1, 2, 3)
    f = (u + v * 2.0).sincos()[1]
    assert oracles.partial(f, (1, 1)) == pytest.approx(-2.0)


def test_fourth_derivative_sqrt2_frequency():
    s = oracles.variable(0.0, 0, 1, 5)
    f = (s * math.sqrt(2.0)).sincos()[1]
    assert oracles.partial(f, (4,)) == pytest.approx(4.0, abs=1e-13)


@pytest.mark.parametrize("omega", [1.0, math.sqrt(2.0), math.sqrt(5.0), 3.0 * math.sqrt(2.0) / 2.0])
def test_trig_derivatives_match_closed_forms(omega):
    # d^k/ds^k of cos(omega s + theta) = omega^k cos(omega s + theta + k pi/2)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3, 3, size=8)
    theta = 0.4321
    j = (oracles.variable(pts, 0, 1, 5) * omega + theta).sincos()[1]
    for k in range(6):
        got = oracles.partial(j, (k,))
        want = omega**k * np.cos(omega * pts + theta + k * math.pi / 2.0)
        assert np.max(np.abs(got - want)) < 1e-13 * max(1.0, omega**k)


def test_product_rule_exact_on_polynomials():
    x = oracles.variable(1.5, 0, 2, 4)
    y = oracles.variable(-0.5, 1, 2, 4)
    f = x * x * y + y * y
    # d/dx (x^2 y + y^2) = 2xy ; d^2/dxdy = 2x ; d^3/dx^2 dy = 2
    assert oracles.partial(f, (1, 0)) == pytest.approx(2 * 1.5 * -0.5)
    assert oracles.partial(f, (1, 1)) == pytest.approx(3.0)
    assert oracles.partial(f, (2, 1)) == pytest.approx(2.0)
    assert oracles.partial(f, (0, 2)) == pytest.approx(2.0)


def test_division_and_sqrt_roundtrip():
    x = oracles.variable(0.3, 0, 1, 5)
    sin, cos = x.sincos()
    g = (sin + 2.0) * oracles.jet_reciprocal(cos + 3.0)
    h = g * (cos + 3.0) - (sin + 2.0)
    assert np.max(np.abs(h.coef)) < 1e-15
    r = oracles.jet_sqrt(cos + 1.5)
    sq = r * r - (cos + 1.5)
    assert np.max(np.abs(sq.coef)) < 1e-14


def test_truncate_and_accuracy_bookkeeping():
    x = oracles.variable(0.1, 0, 1, 5)
    d1 = x.sincos()[0].deriv(0)
    assert d1.acc == 4
    with pytest.raises(ValueError):
        oracles.partial(d1, (5,))
    with pytest.raises(ValueError):
        d1.truncate(5)


def test_batched_leading_axes():
    pts = np.linspace(0.0, 1.0, 11)
    j = oracles.variable(pts, 0, 1, 3).sincos()[0]
    assert j.value.shape == (11,)
    assert np.allclose(j.value, np.sin(pts))
    assert np.allclose(oracles.partial(j, (1,)), np.cos(pts))


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    b=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    x0=st.floats(-1.5, 1.5),
)
def test_jet_product_matches_polynomial_arithmetic(a, b, x0):
    # jets of two quadratics multiply exactly like the polynomials themselves
    x = oracles.variable(x0, 0, 1, 4)
    pa = x * a[1] + x * x * a[2] + a[0]
    pb = x * b[1] + x * x * b[2] + b[0]
    prod = pa * pb
    ca = np.array(a)
    cb = np.array(b)
    cz = np.convolve(ca, cb)
    for k in range(5):
        # derivative of the product at x0 from the coefficient convolution
        want = sum(
            cz[m] * math.perm(m, k) * x0 ** (m - k) for m in range(k, len(cz))
        )
        assert oracles.partial(prod, (k,)) == pytest.approx(want, abs=1e-9, rel=1e-9)


def test_finite_difference_cross_check_second_derivative():
    # 4th-order central stencils at h=1e-4 agree with jets to 1e-6
    def f(s):
        return np.cos(math.sqrt(5.0) * s + 0.3) * np.sin(s)

    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 2 * math.pi, size=20)
    x = oracles.variable(pts, 0, 1, 3)
    j = (x * math.sqrt(5.0) + 0.3).sincos()[1] * x.sincos()[0]
    h = 1e-4
    d1_fd = (-f(pts + 2 * h) + 8 * f(pts + h) - 8 * f(pts - h) + f(pts - 2 * h)) / (12 * h)
    d2_fd = (-f(pts + 2 * h) + 16 * f(pts + h) - 30 * f(pts) + 16 * f(pts - h) - f(pts - 2 * h)) / (
        12 * h * h
    )
    assert np.max(np.abs(oracles.partial(j, (1,)) - d1_fd)) < 1e-6
    assert np.max(np.abs(oracles.partial(j, (2,)) - d2_fd)) < 1e-6


# finite values with signed zeros and subnormals; products of the tiny ones
# underflow to signed zeros
_COEF = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-160]),
    st.floats(-1e3, 1e3, allow_subnormal=True),
)


@settings(max_examples=150, deadline=None)
@given(
    nvars=st.integers(1, MAX_VARS),
    acc=st.integers(0, MAX_ORDER),
    shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, min_side=0, max_side=3),
    data=st.data(),
)
def test_product_is_bit_equal_to_add_at_scatter(nvars, acc, shapes, data):
    # zero-size leads included
    nterms = _nterms(nvars, acc)
    lead_a, lead_b = shapes.input_shapes
    a = oracles.jet(nvars, acc, data.draw(hnp.arrays(np.float64, lead_a + (nterms,), elements=_COEF)))
    b = oracles.jet(nvars, acc, data.draw(hnp.arrays(np.float64, lead_b + (nterms,), elements=_COEF)))
    got = a * b
    assert got.coef.shape == shapes.result_shape + (nterms,)
    assert got.rows.flags.c_contiguous
    _assert_bit_equal(got.coef, _add_at_product(a, b).coef)


def _large_coefficients(rng, lead: tuple, nterms: int) -> np.ndarray:
    """Uniform coefficients with an eighth replaced by signed zeros and subnormals."""
    coef = rng.uniform(-1e3, 1e3, lead + (nterms,))
    picks = rng.integers(0, coef.size, coef.size // 8)
    coef.flat[picks] = rng.choice([0.0, -0.0, 5e-324, -1e-160], picks.size)
    return coef


def _product_temporaries(a: Jet, b: Jet) -> int:
    """The bytes that ``a * b`` peaks at beyond its result, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = a * b
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak - got.coef.nbytes


@pytest.mark.parametrize(
    "nvars, acc, lead_a, lead_b, measured",
    [
        (4, 4, (1296, 4), (1296, 1), True),  # the trailing lead axis broadcast in one operand
        (3, 2, (1000, 1), (1000, 8), True),
        (4, 2, (1, 8), (600, 8), True),  # the first lead axis broadcast in one operand
        # a lead of 4 KB: numpy's calls on small leads add a few tens of KB that tracemalloc sees
        (2, 2, (64, 8), (64, 8), False),
        (3, 2, (8,), (700, 3, 8), True),  # operands of different rank
        (3, 1, (1, 8), (2000, 1), True),  # both operands broadcast
        # the products of cylinder-c1 at grid 6 (1296 points)
        (4, 2, (1296, 1), (1296, 8), True),
        (4, 2, (1296, 8), (1296, 8), True),
        (4, 1, (1296, 1), (1296, 8), True),
        (4, 1, (1296, 8), (1296, 8), True),
    ],
)
def test_product_is_bit_equal_to_add_at_scatter_on_large_leads(nvars, acc, lead_a, lead_b, measured):
    rng = np.random.default_rng(nvars * 10 + acc)
    nterms = _nterms(nvars, acc)
    a = oracles.jet(nvars, acc, _large_coefficients(rng, lead_a, nterms))
    b = oracles.jet(nvars, acc, _large_coefficients(rng, lead_b, nterms))
    got = a * b
    assert got.rows.flags.c_contiguous
    _assert_bit_equal(got.coef, _add_at_product(a, b).coef)
    if measured:
        # a product holds its result plus one lead of float64, and numpy's
        # 64 KB buffer where both operands broadcast inside the lead; a kernel
        # that materialised all 495 pairs of the first case would take 62 MB
        lead = math.prod(np.broadcast_shapes(lead_a, lead_b))
        buffer = 8 * 8192 if max(math.prod(lead_a), math.prod(lead_b)) < lead else 0
        assert _product_temporaries(a, b) <= 8 * lead + buffer + 4096


def test_streamed_product_of_a_zero_size_lead():
    a = oracles.jet(3, 2, np.ones((0, 1, _nterms(3, 2))))
    b = oracles.jet(3, 2, np.ones((1, 8, _nterms(3, 2))))
    got = a * b
    assert got.coef.shape == (0, 8, _nterms(3, 2))
    assert got.rows.flags.c_contiguous
    _assert_bit_equal(got.coef, _add_at_product(a, b).coef)


def _draw_coefficients(data, shape: tuple) -> np.ndarray:
    """Hypothesis draws for small arrays; seeded ``_large_coefficients`` for the large leads."""
    if math.prod(shape) <= 4096:
        return data.draw(hnp.arrays(np.float64, shape, elements=_COEF))
    return _large_coefficients(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), shape[:-1], shape[-1])


@settings(max_examples=120, deadline=None)
@given(
    nvars=st.integers(1, MAX_VARS),
    acc=st.integers(0, 4),
    leads=st.one_of(
        # padded to one number of axes: the line axis leads both leads
        hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=1, max_dims=3, max_side=3).map(
            lambda s: tuple((1,) * (3 - len(lead)) + lead for lead in s.input_shapes)
        ),
        # a scalar factor against components, and large leads
        st.sampled_from([((n, 1), (n, 8)) for n in (3, 432, 1296)] + [((432, 8), (432, 8)), ((1, 8), (600, 8))]),
    ),
    data=st.data(),
)
def test_restriction_to_the_lines_commutes_with_products_and_sums(nvars, acc, leads, data):
    # a coefficient of x_k^d receives the pairs (x_k^e, x_k^(d-e)) in ascending
    # e in both tables, and sum(axis=-2) adds the same component slices, so the
    # bits agree, sign of zero included
    nterms = _nterms(nvars, acc)
    a = oracles.jet(nvars, acc, _draw_coefficients(data, leads[0] + (nterms,)))
    b = oracles.jet(nvars, acc, _draw_coefficients(data, leads[1] + (nterms,)))
    product, line_product = (a * b).lines(), a.lines() * b.lines()
    assert (product.nvars, product.acc) == (1, acc)
    assert product.rows.shape == (acc + 1, nvars) + np.broadcast_shapes(leads[0], leads[1])
    assert product.rows.flags.c_contiguous and line_product.rows.flags.c_contiguous
    _assert_bit_equal(line_product.rows, product.rows)
    _assert_bit_equal(a.sum(-2).lines().rows, a.lines().sum(-2).rows)


def test_lines_hold_the_line_terms():
    # row [d, k] is the coefficient of x_k^d; mixed terms are dropped
    nterms = _nterms(3, 2)
    jet = oracles.jet(3, 2, np.arange(2 * nterms, dtype=float).reshape(2, nterms))
    want = np.empty((3, 3, 2))
    for d in range(3):
        for k in range(3):
            want[d, k] = jet.coef[:, _position(3, 2)[tuple(d * (v == k) for v in range(3))]]
    _assert_bit_equal(jet.lines().rows, want)


@settings(max_examples=120, deadline=None)
@given(
    nvars=st.integers(1, MAX_VARS),
    acc=st.integers(0, 2),
    lead=hnp.array_shapes(min_dims=0, max_dims=2, max_side=3),
    data=st.data(),
)
def test_line_derivatives_are_bit_equal_to_the_chained_form(nvars, acc, lead, data):
    # one take, then the chain's factors in its order: the same products as
    # deriv after deriv, and a jet above the chain's accuracy is truncated first
    chain = data.draw(st.lists(st.integers(0, nvars - 1), min_size=1, max_size=3))
    top = acc + len(chain) + data.draw(st.integers(0, MAX_ORDER - acc - len(chain)))
    jet = oracles.jet(nvars, top, _draw_coefficients(data, lead + (_nterms(nvars, top),)))
    want = jet.truncate(acc + len(chain))
    for var in chain:
        want = want.deriv(var)
    got = jet.deriv_lines(tuple(chain), acc)
    assert (got.nvars, got.acc) == (1, acc)
    assert got.rows.flags.c_contiguous
    _assert_bit_equal(got.rows, want.lines().rows)


def test_product_sum_starts_from_positive_zero():
    a = oracles.jet(2, 3, np.full((4, _nterms(2, 3)), -0.0))
    b = oracles.jet(2, 3, np.ones((1, _nterms(2, 3))))
    got = (a * b).coef
    assert not np.any(np.signbit(got))
    _assert_bit_equal(got, _add_at_product(a, b).coef)


@settings(max_examples=150, deadline=None)
@given(
    nvars=st.integers(1, MAX_VARS),
    acc=st.integers(1, MAX_ORDER),
    lead=hnp.array_shapes(min_dims=0, max_dims=3, max_side=3),
    data=st.data(),
)
def test_derivative_is_bit_equal_to_the_scatter(nvars, acc, lead, data):
    var = data.draw(st.integers(0, nvars - 1))
    jet = oracles.jet(nvars, acc, data.draw(hnp.arrays(np.float64, lead + (_nterms(nvars, acc),), elements=_COEF)))
    got = jet.deriv(var)
    assert got.rows.flags.c_contiguous
    _assert_bit_equal(got.coef, _scatter_deriv(jet, var).coef)


@settings(max_examples=150, deadline=None)
@given(
    nvars=st.integers(1, MAX_VARS),
    acc=st.integers(0, MAX_ORDER),
    # sides up to 9 reach the unrolled block of 8 in numpy's pairwise summation
    lead=hnp.array_shapes(min_dims=1, max_dims=2, max_side=9),
    data=st.data(),
)
def test_sum_is_bit_equal_to_numpy_on_the_term_last_array(nvars, acc, lead, data):
    axis = data.draw(st.integers(0, len(lead) - 1))
    axis = data.draw(st.sampled_from([axis, axis - len(lead) - 1]))
    jet = oracles.jet(nvars, acc, data.draw(hnp.arrays(np.float64, lead + (_nterms(nvars, acc),), elements=_COEF)))
    got = jet.sum(axis)
    assert got.rows.flags.c_contiguous
    _assert_bit_equal(got.coef, _reduce_sum(jet, axis).coef)


@pytest.mark.parametrize("acc", [0, 2])
@pytest.mark.parametrize("lead, axis", [((20, 8), -2), ((9,), 0), ((3, 9, 1), 1), ((4, 3, 5), 1)])
def test_sum_is_bit_equal_to_numpy_on_spread_magnitudes(lead, axis, acc):
    # a one-term array sums an axis with only unit axes after it pairwise,
    # which orders the additions differently from one at a time
    rng = np.random.default_rng(5)
    shape = lead + (_nterms(2, acc),)
    jet = oracles.jet(2, acc, rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape))
    _assert_bit_equal(jet.sum(axis).coef, _reduce_sum(jet, axis).coef)


def test_sum_refuses_the_coefficient_axis():
    jet = oracles.jet(2, 2, np.ones((3, 4, _nterms(2, 2))))
    for axis in (-1, 2, 3, -4):
        with pytest.raises(ValueError, match="cannot sum"):
            jet.sum(axis)


# each amplitude entry purely real, purely imaginary, complex or zero: the
# first two take one product per half, complex ones both
_AMPLITUDE_KINDS = st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0)])


def _wave_table(data, nvars: int, waves: int, components: int) -> ParametricImmersion:
    """A drawn wave table: entries of every kind, and a third of the frequencies zero."""
    kinds = np.array(data.draw(st.lists(_AMPLITUDE_KINDS, min_size=waves * components, max_size=waves * components)))
    re, im = data.draw(hnp.arrays(np.float64, (2, waves * components), elements=_COEF))
    zero_frequency = st.one_of(st.sampled_from([0.0, -0.0]), _COEF, _COEF)
    return ParametricImmersion(
        (re * kinds[:, 0] + 1j * (im * kinds[:, 1])).reshape(waves, components),
        data.draw(hnp.arrays(np.float64, (waves, nvars), elements=zero_frequency)),
        data.draw(hnp.arrays(np.float64, (waves,), elements=_COEF)),
    )


@settings(max_examples=150, deadline=None)
@given(
    nvars=st.integers(1, MAX_VARS),
    acc=st.integers(0, MAX_ORDER),
    # up to 8 waves over up to 4 components: several waves per component
    waves=st.integers(1, 8),
    components=st.integers(1, 4),
    npts=st.integers(1, 5),
    data=st.data(),
)
def test_wave_jets_are_bit_equal_to_the_term_last_einsum(nvars, acc, waves, components, npts, data):
    F = _wave_table(data, nvars, waves, components)
    pts = data.draw(hnp.arrays(np.float64, (npts, nvars), elements=st.floats(-10, 10)))
    got = F.jets(pts, acc)
    assert got.rows.flags.c_contiguous
    _assert_bit_equal(got.coef, _term_last_wave_jets(F, pts, acc))


def test_wave_jets_follow_the_table_and_the_accuracy():
    # layouts are shared by amplitude bytes and plans by table bytes and
    # accuracy: tables of equal shapes that differ in the amplitudes only or
    # in the frequencies only, and one table at falling and rising accuracies
    rng = np.random.default_rng(16)
    pts = rng.uniform(-4.0, 4.0, (6, 3))
    pure = np.where(rng.random((5, 4)) < 0.5, 1.0, 1j) * rng.uniform(-2.0, 2.0, (5, 4))
    f, phases = rng.uniform(-2.0, 2.0, (2, 5, 3)), rng.uniform(-3.0, 3.0, 5)
    tables = [
        ParametricImmersion(pure, f[0], phases),
        ParametricImmersion(pure.imag + 1j * pure.real, f[0], phases),
        ParametricImmersion(pure, f[1], phases),
    ]
    rows = []
    for F in tables:
        got = F.jets(pts, 4)
        _assert_bit_equal(got.coef, _term_last_wave_jets(F, pts, 4))
        rows.append(got.rows)
    assert not np.array_equal(rows[0], rows[1]) and not np.array_equal(rows[0], rows[2])
    for acc in (5, 0, 4):
        got = tables[0].jets(pts, acc)
        assert got.acc == acc
        _assert_bit_equal(got.coef, _term_last_wave_jets(tables[0], pts, acc))


@pytest.mark.parametrize("name", [name.replace("<kappa1>", "0.5") for name in rep.EXAMPLE_NAMES])
def test_report_json_is_identical_under_the_add_at_product(name, monkeypatch):
    fast = rep.build_report(name, per_axis=3).to_json()
    default_mul = Jet.__mul__

    def reference_mul(self, other):
        if not isinstance(other, Jet):
            return default_mul(self, other)
        return _add_at_product(self, other)

    monkeypatch.setattr(Jet, "__mul__", reference_mul)
    monkeypatch.setattr(Jet, "deriv", _scatter_deriv)
    monkeypatch.setattr(Jet, "sum", _reduce_sum)
    assert rep.build_report(name, per_axis=3).to_json() == fast
