import math
import warnings

import numpy as np
import pytest

import oracles
from sasakian import catalog, classifier, report
from sasakian.frenet import MAX_ORDER, FrenetError, frenet, phi_alignment
from sasakian.immersion import ParametricImmersion

SQ2, SQ3, SQ5 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)

COROLLARY_WANT = {
    0: (4 * SQ5 / 5, 1.0),
    1: (math.sqrt(29.0 / 10.0), 9 * SQ2 / math.sqrt(145.0), 2 * SQ3 / math.sqrt(145.0)),
    2: (SQ5 / SQ2, 2 * SQ3 / math.sqrt(10.0), SQ3 / math.sqrt(10.0)),
}


@pytest.fixture(scope="module")
def corollary():
    return catalog.corollary_torus()[1]


@pytest.fixture(scope="module")
def s_grid():
    return np.linspace(0.0, 2 * math.pi, 9)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_corollary_coordinate_curves(corollary, s_grid, axis):
    base = np.array([0.3, 0.7, 1.1])
    curve = catalog.coordinate_curve(corollary, axis, base)
    app = frenet(curve, s_grid)
    want = COROLLARY_WANT[axis]
    assert app.order == len(want) + 1
    got = app.curvature_values
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-8
    assert np.max(app.curvature_spreads) < 1e-8
    closure, orthonormality = oracles.frenet_closure(curve, s_grid)
    assert orthonormality < 1e-9
    assert closure < 1e-7


def test_x2_curve_kappa3_orientation(corollary, s_grid):
    # closed form -lam sqrt(lam^2+1)/kappa1 is positive because lam < 0;
    # the Gram-Schmidt value is reported positive
    lam, alpha, _, _ = oracles.COROLLARY_TUPLE
    app = frenet(catalog.coordinate_curve(corollary, 1, np.zeros(3)), s_grid)
    k1 = math.hypot(lam, alpha)
    want = -lam * math.sqrt(lam * lam + 1.0) / k1
    assert want > 0
    assert app.curvature_values[2] == pytest.approx(want, abs=1e-10)


def test_great_circle_is_geodesic(s_grid):
    app = frenet(oracles.great_circle(), s_grid)
    assert app.order == 1
    assert app.curvatures == []


def test_legendre_circle_frenet(s_grid):
    app = frenet(catalog.legendre_circle(), s_grid)
    assert app.order == 2
    assert app.curvature_values[0] == pytest.approx(1.0, abs=1e-12)
    assert phi_alignment(app) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kappa1", [0.25, 0.5, 0.75])
def test_legendre_helix_frenet(kappa1, s_grid):
    app = frenet(catalog.legendre_helix(kappa1), s_grid)
    assert app.order == 3
    assert app.curvature_values[0] == pytest.approx(kappa1, abs=1e-10)
    assert app.curvature_values[1] == pytest.approx(math.sqrt(1 - kappa1**2), abs=1e-10)


@pytest.mark.parametrize("sign", [1, -1])
def test_helix_phi_alignment_signs(sign, s_grid):
    # g0(E_2, phi T) = -A <e_1, J e_2>; the displayed vectors give -B, the
    # opposite sign choice gives +B
    kappa1 = 0.5
    B = math.sqrt(1 - kappa1)
    app = frenet(oracles.legendre_helix(kappa1, sign=sign), s_grid)
    val = phi_alignment(app)
    assert val == pytest.approx(-sign * B, abs=1e-12)
    assert -1.0 < val < 1.0 and val != 0.0


def test_alignment_requires_order_two(s_grid):
    app = frenet(oracles.great_circle(), s_grid)
    with pytest.raises(FrenetError, match="order"):
        phi_alignment(app)


def test_non_unit_speed_rejected(s_grid):
    fast = catalog.trig_immersion(
        [(1.0, (2.0,), 0.0, np.eye(8)[0]), (1.0, (2.0,), -math.pi / 2.0, np.eye(8)[1])],
        m=1,
        n=3,
        name="fast-circle",
        sample_box=(2.0 * math.pi,),
    )
    with pytest.raises(FrenetError, match="arc-length"):
        frenet(fast, s_grid)


def test_minus4_curves_match_curvature_tables(s_grid):
    from sasakian import classifier

    for index in (1, 3):
        F = catalog.minus4_torus(index)[1]
        tup = classifier.SolutionTuple(*oracles.MINUS4_TUPLES[index - 1], c=1.0, mode="minus4")
        tables = classifier.curvature_tables(tup)
        for axis, label in ((0, "X1"), (1, "X2"), (2, "X3")):
            app = frenet(catalog.coordinate_curve(F, axis, np.array([0.2, 0.5, 0.9])), s_grid)
            want = tables[label]
            assert app.order == len(want) + 1
            assert max(abs(g - w) for g, w in zip(app.curvature_values, want)) < 1e-8


# osculating order of X1, X2, X3 of minus4-i; frenet stops its ladder there
MINUS4_ORDERS = {1: (3, 4, 2), 2: (3, 4, 2), 3: (3, 4, 4)}


@pytest.mark.parametrize("grid", [5, 9])
@pytest.mark.parametrize("index", [1, 2, 3])
def test_minus4_frames_close(index, grid):
    # the coordinate curves that verify minus4-i runs, at its base point
    F = catalog.minus4_torus(index)[1]
    base = report._CURVE_BASE_FRACTIONS * np.asarray(F.sample_box)
    for axis, want_order in enumerate(MINUS4_ORDERS[index]):
        curve = catalog.coordinate_curve(F, axis, base)
        assert frenet(curve, curve.grid(grid)).order == want_order
        closure, orthonormality = oracles.frenet_closure(curve, curve.grid(grid))
        assert closure < 1e-12 and orthonormality < 1e-12


@pytest.mark.parametrize("grid", [5, 9])
@pytest.mark.parametrize(
    "name, kwargs, want_order",
    [("circle", {}, 2)] + [("helix", {"kappa1": k}, 3) for k in (0.1, 0.5, 0.9, 0.99)],
)
def test_legendre_frames_close(name, kwargs, want_order, grid):
    curve = getattr(catalog, f"legendre_{name}")(**kwargs)
    assert frenet(curve, curve.grid(grid)).order == want_order
    closure, orthonormality = oracles.frenet_closure(curve, curve.grid(grid))
    assert closure < 1e-12 and orthonormality < 1e-12


def test_closure_is_zero_below_order_two(s_grid):
    assert oracles.frenet_closure(oracles.great_circle(), s_grid) == (0.0, 0.0)


def test_an_order_above_max_order_is_refused(s_grid):
    # four circles of distinct frequencies in C^4, radii 1/2 and sum w^2 = 4 for
    # unit speed: no rank drop in the ladder's MAX_ORDER + 1 steps
    w = (-1.5, -0.5, 0.7, math.sqrt(4.0 - 1.5**2 - 0.5**2 - 0.7**2))
    F = ParametricImmersion(
        0.5 * np.eye(4, dtype=complex), np.array(w)[:, None], np.zeros(4), "four-circles", (2 * math.pi,)
    )
    with pytest.raises(FrenetError, match=f"exceeds {MAX_ORDER}"):
        frenet(F, s_grid)


def test_a_nan_parameter_is_refused_before_any_division():
    # without the finiteness guard a NaN sample passed the speed and rank tests
    # and ended, after 0/0 warnings, in a wrong "osculating order exceeds 4"
    s = np.linspace(0.0, 6.0, 9)
    s[3] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FrenetError, match="not finite"):
            frenet(oracles.great_circle(), s)


def test_a_nan_in_e2_fails_the_phi_alignment_guard(s_grid):
    # the spread of the products is then NaN, which a "spread > tol" guard lets through
    app = frenet(catalog.legendre_circle(), s_grid)
    frame = [E.copy() for E in app.frame]
    frame[1][4, 2] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FrenetError, match="not constant"):
            phi_alignment(app._replace(frame=frame))


def test_a_nan_curvature_fails_the_frenet_check(monkeypatch):
    # the NaN sits behind a finite curvature, where a Python max would drop it
    tup, F = catalog.corollary_torus()
    want = classifier.curvature_tables(tup)["X2"]

    def with_nan(curve, s):
        app = frenet(curve, s)
        app.curvatures[1] = np.full_like(app.curvatures[1], np.nan)
        return app

    monkeypatch.setattr(report, "frenet", with_nan)
    out = report.VerificationReport("nan")
    report._frenet_check(out, F, 1, report._CURVE_BASE_FRACTIONS * np.asarray(F.sample_box), want, 3, "X2")
    check = out.checks[0]
    assert check.name == "frenet_X2" and math.isnan(check.residual) and not check.passed
