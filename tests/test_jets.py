import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sasakian import jets
from sasakian import report as rep
from sasakian.immersion import _FACTORIAL, ParametricImmersion, _phase
from sasakian.jets import (
    GATHER_BUDGET,
    MAX_ORDER,
    MAX_VARS,
    Jet,
    _mul_table,
    _nterms,
    _position,
    _terms,
    lift,
    partial,
)


def _add_at_product(a: Jet, b: Jet) -> Jet:
    """Reference jet product: an np.add.at scatter over _mul_table."""
    a, b = a._coerce(b)
    ia, ib, iout = _mul_table(a.nvars, a.acc)
    prod = a.coef[..., ia] * b.coef[..., ib]
    out = np.zeros(prod.shape[:-1] + (_nterms(a.nvars, a.acc),))
    np.add.at(out.reshape(-1, out.shape[-1]).T, iout, prod.reshape(-1, prod.shape[-1]).T)
    return Jet(a.nvars, a.acc, out)


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
    return Jet(jet.nvars, jet.acc - 1, out)


def _reduce_sum(jet: Jet, axis: int) -> Jet:
    """Reference component sum: numpy's reduction of the C-contiguous term-last array."""
    return Jet(jet.nvars, jet.acc, np.sum(np.ascontiguousarray(jet.coef), axis=axis, keepdims=True))


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
    j = lift(2.0, 0, 1, 3)
    assert j.value == pytest.approx(2.0)


def test_lift_seed_derivative():
    j = lift(0.7, 0, 1, 3)
    assert partial(j, (1,)) == pytest.approx(1.0)
    assert partial(j, (2,)) == pytest.approx(0.0)


def test_sin_second_derivative_at_zero():
    j = lift(0.0, 0, 1, 3).sin()
    assert partial(j, (2,)) == pytest.approx(0.0, abs=1e-15)


def test_partial_circle_tangent():
    s = math.pi / 3
    u = lift(s, 0, 1, 2)
    x, y = u.cos(), u.sin()
    assert partial(x, (1,)) == pytest.approx(-math.sin(s))
    assert partial(y, (1,)) == pytest.approx(math.cos(s))


def test_partial_mixed_two_vars():
    u = lift(0.0, 0, 2, 3)
    v = lift(0.0, 1, 2, 3)
    f = (u + 2.0 * v).cos()
    assert partial(f, (1, 1)) == pytest.approx(-2.0)


def test_fourth_derivative_sqrt2_frequency():
    s = lift(0.0, 0, 1, 5)
    f = (s * math.sqrt(2.0)).cos()
    assert partial(f, (4,)) == pytest.approx(4.0, abs=1e-13)


@pytest.mark.parametrize("omega", [1.0, math.sqrt(2.0), math.sqrt(5.0), 3.0 * math.sqrt(2.0) / 2.0])
def test_trig_derivatives_match_closed_forms(omega):
    # d^k/ds^k of cos(omega s + theta) = omega^k cos(omega s + theta + k pi/2)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3, 3, size=8)
    theta = 0.4321
    j = (lift(pts, 0, 1, 5) * omega + theta).cos()
    for k in range(6):
        got = partial(j, (k,))
        want = omega**k * np.cos(omega * pts + theta + k * math.pi / 2.0)
        assert np.max(np.abs(got - want)) < 1e-13 * max(1.0, omega**k)


def test_product_rule_exact_on_polynomials():
    x = lift(1.5, 0, 2, 4)
    y = lift(-0.5, 1, 2, 4)
    f = x * x * y + y * y
    # d/dx (x^2 y + y^2) = 2xy ; d^2/dxdy = 2x ; d^3/dx^2 dy = 2
    assert partial(f, (1, 0)) == pytest.approx(2 * 1.5 * -0.5)
    assert partial(f, (1, 1)) == pytest.approx(3.0)
    assert partial(f, (2, 1)) == pytest.approx(2.0)
    assert partial(f, (0, 2)) == pytest.approx(2.0)


def test_division_and_sqrt_roundtrip():
    x = lift(0.3, 0, 1, 5)
    g = (x.sin() + 2.0) / (x.cos() + 3.0)
    h = g * (x.cos() + 3.0) - (x.sin() + 2.0)
    assert np.max(np.abs(h.coef)) < 1e-15
    r = (x.cos() + 1.5).sqrt()
    sq = r * r - (x.cos() + 1.5)
    assert np.max(np.abs(sq.coef)) < 1e-14


def test_truncate_and_accuracy_bookkeeping():
    x = lift(0.1, 0, 1, 5)
    d1 = x.sin().deriv(0)
    assert d1.acc == 4
    with pytest.raises(ValueError):
        partial(d1, (5,))
    with pytest.raises(ValueError):
        d1.truncate(5)


def test_batched_leading_axes():
    pts = np.linspace(0.0, 1.0, 11)
    j = lift(pts, 0, 1, 3).sin()
    assert j.value.shape == (11,)
    assert np.allclose(j.value, np.sin(pts))
    assert np.allclose(partial(j, (1,)), np.cos(pts))


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    b=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    x0=st.floats(-1.5, 1.5),
)
def test_jet_product_matches_polynomial_arithmetic(a, b, x0):
    # jets of two quadratics multiply exactly like the polynomials themselves
    x = lift(x0, 0, 1, 4)
    pa = a[0] + x * a[1] + x * x * a[2]
    pb = b[0] + x * b[1] + x * x * b[2]
    prod = pa * pb
    ca = np.array(a)
    cb = np.array(b)
    cz = np.convolve(ca, cb)
    for k in range(5):
        # derivative of the product at x0 from the coefficient convolution
        want = sum(
            cz[m] * math.perm(m, k) * x0 ** (m - k) for m in range(k, len(cz))
        )
        assert partial(prod, (k,)) == pytest.approx(want, abs=1e-9, rel=1e-9)


def test_finite_difference_cross_check_second_derivative():
    # 4th-order central stencils at h=1e-4 agree with jets to 1e-6
    def f(s):
        return np.cos(math.sqrt(5.0) * s + 0.3) * np.sin(s)

    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 2 * math.pi, size=20)
    x = lift(pts, 0, 1, 3)
    j = (x * math.sqrt(5.0) + 0.3).cos() * x.sin()
    h = 1e-4
    d1_fd = (-f(pts + 2 * h) + 8 * f(pts + h) - 8 * f(pts - h) + f(pts - 2 * h)) / (12 * h)
    d2_fd = (-f(pts + 2 * h) + 16 * f(pts + h) - 30 * f(pts) + 16 * f(pts - h) - f(pts - 2 * h)) / (
        12 * h * h
    )
    assert np.max(np.abs(partial(j, (1,)) - d1_fd)) < 1e-6
    assert np.max(np.abs(partial(j, (2,)) - d2_fd)) < 1e-6


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
    shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3),
    data=st.data(),
)
def test_product_is_bit_equal_to_add_at_scatter(nvars, acc, shapes, data):
    nterms = _nterms(nvars, acc)
    lead_a, lead_b = shapes.input_shapes
    a = Jet(nvars, acc, data.draw(hnp.arrays(np.float64, lead_a + (nterms,), elements=_COEF)))
    b = Jet(nvars, acc, data.draw(hnp.arrays(np.float64, lead_b + (nterms,), elements=_COEF)))
    got = a * b
    assert got.coef.shape == shapes.result_shape + (nterms,)
    assert got.rows.flags.c_contiguous
    _assert_bit_equal(got.coef, _add_at_product(a, b).coef)


def _count_blocks(monkeypatch) -> list:
    calls = []
    original = jets._layered_product
    monkeypatch.setattr(jets, "_layered_product", lambda *args: calls.append(1) or original(*args))
    return calls


@pytest.mark.parametrize(
    "nvars, acc, lead_a, lead_b, blocked",
    [
        (4, 4, (1296, 4), (1296, 1), True),  # blocks of 33 rows, the last one partial
        (3, 2, (1000, 1), (1000, 8), True),
        (4, 2, (1, 8), (600, 8), True),  # the first lead axis broadcast in one operand
        (2, 2, (64, 8), (64, 8), False),  # past the one-block bound, yet all rows fit one block
    ],
)
def test_product_is_bit_equal_to_add_at_scatter_on_large_leads(nvars, acc, lead_a, lead_b, blocked, monkeypatch):
    # the blocked side of the size rule, next to the one-block leads drawn above
    rng = np.random.default_rng(nvars * 10 + acc)
    nterms = _nterms(nvars, acc)

    def coefficients(lead):
        coef = rng.uniform(-1e3, 1e3, lead + (nterms,))
        picks = rng.integers(0, coef.size, coef.size // 8)
        coef.flat[picks] = rng.choice([0.0, -0.0, 5e-324, -1e-160], picks.size)
        return coef

    a, b = Jet(nvars, acc, coefficients(lead_a)), Jet(nvars, acc, coefficients(lead_b))
    blocks = _count_blocks(monkeypatch)
    got = a * b
    assert (len(blocks) > 1) == blocked
    assert got.rows.flags.c_contiguous
    _assert_bit_equal(got.coef, _add_at_product(a, b).coef)


def test_product_of_a_few_points_is_one_block(monkeypatch):
    a = Jet(1, 5, np.linspace(-1.0, 1.0, 9 * 6).reshape(9, 1, 6))
    blocks = _count_blocks(monkeypatch)
    _assert_bit_equal((a * a).coef, _add_at_product(a, a).coef)
    assert len(blocks) == 1


def test_product_temporaries_stay_within_the_gather_budget():
    # a kernel that materialises all 495 pairs of a degree-4 product in 4
    # variables allocates about 3 * 495 * 1296 * 4 * 8 B = 62 MB on this lead
    rng = np.random.default_rng(3)
    a = Jet(4, 4, rng.standard_normal((1296, 4, _nterms(4, 4))))
    b = Jet(4, 4, rng.standard_normal((1296, 1, _nterms(4, 4))))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = a * b
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak - got.coef.nbytes <= 4 * 8 * GATHER_BUDGET


def test_product_sum_starts_from_positive_zero():
    a = Jet(2, 3, np.full((4, _nterms(2, 3)), -0.0))
    b = Jet(2, 3, np.ones((1, _nterms(2, 3))))
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
    jet = Jet(nvars, acc, data.draw(hnp.arrays(np.float64, lead + (_nterms(nvars, acc),), elements=_COEF)))
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
    jet = Jet(nvars, acc, data.draw(hnp.arrays(np.float64, lead + (_nterms(nvars, acc),), elements=_COEF)))
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
    jet = Jet(2, acc, rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape))
    _assert_bit_equal(jet.sum(axis).coef, _reduce_sum(jet, axis).coef)


def test_sum_refuses_the_coefficient_axis():
    jet = Jet(2, 2, np.ones((3, 4, _nterms(2, 2))))
    for axis in (-1, 2, 3, -4):
        with pytest.raises(ValueError, match="cannot sum"):
            jet.sum(axis)


@settings(max_examples=80, deadline=None)
@given(
    nvars=st.integers(1, MAX_VARS),
    acc=st.integers(0, MAX_ORDER),
    waves=st.integers(1, 8),
    components=st.integers(1, 4),
    npts=st.integers(1, 5),
    data=st.data(),
)
def test_wave_jets_are_bit_equal_to_the_term_last_einsum(nvars, acc, waves, components, npts, data):
    amplitudes = data.draw(hnp.arrays(np.float64, (2, waves, components), elements=_COEF))
    F = ParametricImmersion(
        amplitudes[0] + 1j * amplitudes[1],
        data.draw(hnp.arrays(np.float64, (waves, nvars), elements=_COEF)),
        data.draw(hnp.arrays(np.float64, (waves,), elements=_COEF)),
    )
    pts = data.draw(hnp.arrays(np.float64, (npts, nvars), elements=st.floats(-10, 10)))
    got = F.jets(pts, acc)
    assert got.rows.flags.c_contiguous
    _assert_bit_equal(got.coef, _term_last_wave_jets(F, pts, acc))


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
