import math

import numpy as np
import pytest

import oracles
from sasakian import catalog, report
from sasakian.frenet import FrenetError, frenet, phi_alignment

SQ2, SQ3, SQ5 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)

COROLLARY_WANT = {
    0: (4 * SQ5 / 5, 1.0),
    1: (math.sqrt(29.0 / 10.0), 9 * SQ2 / math.sqrt(145.0), 2 * SQ3 / math.sqrt(145.0)),
    2: (SQ5 / SQ2, 2 * SQ3 / math.sqrt(10.0), SQ3 / math.sqrt(10.0)),
}


@pytest.fixture(scope="module")
def corollary():
    return catalog.corollary_immersion()


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
    lam, alpha, _, _ = catalog.COROLLARY_TUPLE
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
    )
    with pytest.raises(FrenetError, match="arc-length"):
        frenet(fast, s_grid)


def test_minus4_curves_match_curvature_tables(s_grid):
    from sasakian import classifier

    for index in (1, 3):
        F = catalog.minus4_immersion(index)
        tup = classifier.SolutionTuple(*catalog.MINUS4_TUPLES[index - 1], c=1.0, mode="minus4")
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
    F = catalog.minus4_immersion(index)
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
