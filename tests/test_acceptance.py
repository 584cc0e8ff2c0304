"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here and matches the library defaults.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from sasakian import catalog, classifier, shape_algebra as sa
from sasakian import immersion as imm
from sasakian.frenet import frenet

SQ2, SQ3, SQ5, SQ13 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0), math.sqrt(13.0)


@contextmanager
def criterion(num: int, description: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[ACCEPTANCE {num:2d}] {'PASS' if ok else 'FAIL'}: {description}")


@pytest.fixture(scope="module")
def corollary():
    return catalog.corollary_torus()[1]


@pytest.fixture(scope="module")
def s5():
    return catalog.s5_surface()


@pytest.fixture(scope="module")
def minus4_immersions():
    return [catalog.minus4_torus(k)[1] for k in (1, 2, 3)]


def test_criterion_01_unique_c1_solution():
    with criterion(1, "solve_flat(1) returns exactly the closed-form tuple (1e-12)"):
        sols, _ = classifier.solve_flat(1.0)
        assert len(sols) == 1
        want = np.array(oracles.COROLLARY_TUPLE)
        s = sols[0]
        assert np.max(np.abs(np.array([s.lam, s.alpha, s.gamma, s.delta]) - want)) < 1e-12


def test_criterion_02_minus4_three_tuples():
    with criterion(2, "solve_minus4_flat returns the three closed-form tuples, no extras"):
        sols, traces = classifier.solve_minus4_flat()
        assert len(sols) == 3
        for want in oracles.MINUS4_TUPLES:
            dist = min(np.max(np.abs(np.array([s.lam, s.alpha, s.gamma, s.delta]) - want)) for s in sols)
            assert dist < 1e-12
        accepted = sum(len(t.accepted) for t in traces)
        assert accepted == 3  # no extra accepted roots in either branch


def test_criterion_03_frenet_curvatures(corollary):
    with criterion(3, "eight Frenet curvature values of the coordinate curves (1e-8)"):
        want = {
            0: (4.0 * SQ5 / 5.0, 1.0),
            1: (math.sqrt(29.0 / 10.0), 9.0 * SQ2 / math.sqrt(145.0), 2.0 * SQ3 / math.sqrt(145.0)),
            2: (SQ5 / SQ2, 2.0 * SQ3 / math.sqrt(10.0), SQ3 / math.sqrt(10.0)),
        }
        s = np.linspace(0.0, 2.0 * math.pi, 9)
        base = np.array([0.3, 0.7, 1.1])
        for axis, values in want.items():
            app = frenet(catalog.coordinate_curve(corollary, axis, base), s)
            assert app.order == len(values) + 1
            assert max(abs(g - w) for g, w in zip(app.curvature_values, values)) < 1e-8
            assert np.max(app.curvature_spreads) < 1e-8


def test_criterion_04_bitension_and_mean_curvature(corollary, s5):
    with criterion(4, "bitension < 1e-8 for corollary, surface, cylinders; |H| = 2/3 and 1/2"):
        cyl_c1 = catalog.cylinder(corollary)
        cyl_s5 = catalog.cylinder(s5)
        for F in (corollary, s5, cyl_c1, cyl_s5):
            pts = F.grid(5)
            assert np.max(np.abs(imm.bitension(imm.sample_geometry(F, pts)))) < 1e-8, F.name
        geo = imm.sample_geometry(corollary, corollary.grid(5))
        assert np.max(np.abs(geo.mean_curvature_norm - 2.0 / 3.0)) < 1e-10
        geo = imm.sample_geometry(cyl_c1, cyl_c1.grid(3))
        assert np.max(np.abs(geo.mean_curvature_norm - 0.5)) < 1e-10


def test_criterion_05_minus4_bitension(minus4_immersions):
    with criterion(5, "|tau_2 + 4 tau| < 1e-8 for the three flat (-4)-biharmonic tori"):
        for F in minus4_immersions:
            pts = F.grid(5)
            assert np.max(np.abs(imm.bitension(imm.sample_geometry(F, pts), mode="minus4"))) < 1e-8, F.name


def test_criterion_06_invariant_suites(corollary, s5, minus4_immersions):
    with criterion(6, "structure identities, C-parallel/normal-Laplacian, system identity"):
        # (a) structure identities at 100 random samples for four curvatures
        for c in (-2.0, 5.0 / 9.0, 1.0, 7.0):
            space = oracles.SasakianSphere.from_phi_sectional(3, c)
            rng = np.random.default_rng(abs(hash(c)) % 2**31)
            z = oracles.random_point(space, rng, (100,))
            u, v, w = (oracles.random_tangent(space, z, rng) for _ in range(3))
            xi = space.xi(z)
            assert np.max(np.abs(space.eta(z, xi) - 1.0)) < 1e-10
            lhs = space.phi(z, space.phi(z, v))
            rhs = -v + space.eta(z, v)[..., None] * xi
            assert np.max(np.abs(lhs - rhs)) < 1e-10
            lhs = space.metric(z, space.phi(z, u), space.phi(z, v))
            rhs = space.metric(z, u, v) - space.eta(z, u) * space.eta(z, v)
            assert np.max(np.abs(lhs - rhs)) < 1e-10
            bianchi = (
                space.curvature(z, u, v, w)
                + space.curvature(z, v, w, u)
                + space.curvature(z, w, u, v)
            )
            assert np.max(np.abs(bianchi)) < 1e-10
        # (b) normal Laplacian identity and C-parallelism on the registered
        # maximum-dimension integral examples
        for F in [corollary, s5] + minus4_immersions:
            pts = F.grid(4)
            assert imm.check_C_parallel(imm.sample_geometry(F, pts)).residual < 1e-8, F.name
            assert imm.check_normal_laplacian(imm.sample_geometry(F, pts)).residual < 1e-8, F.name
        # (c) expanded system == eigen criterion at 1000 random draws
        rng = np.random.default_rng(7)
        for _ in range(1000):
            params = sa.AdaptedShapeOperators(*rng.uniform(-2, 2, size=7))
            c = rng.uniform(-1.0 / 3.0, 5.0)
            r, _t = oracles.eigen_criterion_residual(params, c)
            assert np.max(np.abs(r - sa.expanded_system_residual(params, c))) < 1e-10


def test_criterion_07_nonexistence_guards():
    with criterion(7, "empty classification for c <= -1/3; criterion needs k > 0"):
        for c in (-1.0 / 3.0, -0.5, -2.0):
            sols, _ = classifier.solve_flat(c)
            assert sols == []
            assert sa.biharmonic_eigenvalue(c) <= 0.0
        ops = sa.AdaptedShapeOperators.case_I(*oracles.COROLLARY_TUPLE, b=1.0)
        # a non-minimal tuple (|t| >= 1e-10) at k <= 0 is never proper-biharmonic
        _r, t = oracles.eigen_criterion_residual(ops, -0.5)
        assert np.linalg.norm(t) >= 1e-10 and sa.biharmonic_eigenvalue(-0.5) <= 0.0
        assert sa.biharmonic_eigenvalue(-1.0 / 3.0 + 1e-9) > 0.0


def test_criterion_08_circle_decompositions(corollary, s5, minus4_immersions):
    with criterion(8, "circle decomposition radii match the closed forms (1e-10)"):
        dec = catalog.circle_decomposition(catalog.cylinder(corollary))
        want = np.sort([1.0 / SQ2] + [1.0 / math.sqrt(6.0)] * 3)
        assert np.max(np.abs(np.sort(dec.radii) - want)) < 1e-10
        assert abs(np.sum(dec.radii**2) - 1.0) < 1e-12

        q3 = catalog.S5_CYL_TRANSFORM_2 @ catalog.S5_CYL_TRANSFORM_1
        tilde = catalog.precompose_linear(catalog.cylinder(s5), q3.T, "cylinder-s5-circleform")
        dec = catalog.circle_decomposition(tilde, basis=catalog.S5_CYL_BASIS)
        assert np.max(np.abs(np.sort(dec.radii) - np.sort([1.0 / SQ2, 0.5, 0.5]))) < 1e-10
        assert abs(np.sum(dec.radii**2) - 1.0) < 1e-12

        want_sets = (
            [math.sqrt((5.0 - SQ13) / 12.0)] + [math.sqrt((7.0 + SQ13) / 36.0)] * 3,
            [math.sqrt((3.0 + SQ3) / 12.0)] * 2 + [math.sqrt((3.0 - SQ3) / 12.0)] * 2,
            [math.sqrt((5.0 + SQ13) / 12.0)] + [math.sqrt((7.0 - SQ13) / 36.0)] * 3,
        )
        for F, want in zip(minus4_immersions, want_sets):
            dec = catalog.circle_decomposition(catalog.cylinder(F))
            assert np.max(np.abs(np.sort(dec.radii) - np.sort(want))) < 1e-10, F.name
            assert abs(np.sum(dec.radii**2) - 1.0) < 1e-12


def test_criterion_09_lattices(corollary, s5):
    with criterion(9, "all displayed lattice generators give periodicity < 1e-10"):
        pts = corollary.grid(3)
        assert imm.lattice_check(corollary, catalog.COROLLARY_LATTICE, pts).residual < 1e-10
        assert imm.lattice_check(s5, catalog.S5_LATTICE, s5.grid(4)).residual < 1e-10
        cyl_s5 = catalog.cylinder(s5)
        assert imm.lattice_check(cyl_s5, catalog.S5_CYLINDER_LATTICE, cyl_s5.grid(3)).residual < 1e-10
        cyl = catalog.cylinder(corollary)
        q4 = catalog.T4_TRANSFORM_2 @ catalog.T4_TRANSFORM_1
        tilde = catalog.precompose_linear(cyl, q4.T, "cylinder-c1-circleform")
        assert (
            imm.lattice_check(tilde, catalog.T4_CYLINDER_LATTICE_TILDE, tilde.grid(2)).residual
            < 1e-10
        )
        original = [q4.T @ np.asarray(a) for a in catalog.T4_CYLINDER_LATTICE_TILDE]
        assert imm.lattice_check(cyl, original, cyl.grid(2)).residual < 1e-10


def test_criterion_10_spectral_eigenvalues(corollary):
    with criterion(10, "coordinate-Laplacian eigenvalues (1, 5) and (2, 6) within 1e-10"):
        pts = corollary.grid(5)
        res = imm.coordinate_laplacian_eigencheck(imm.sample_geometry(corollary, pts), {"x1": [3], "x2": [0, 1, 2]})
        assert abs(res["x1"].extra["eigenvalue"] - 1.0) < 1e-10
        assert abs(res["x2"].extra["eigenvalue"] - 5.0) < 1e-10
        assert res["x1"].residual < 1e-10 and res["x2"].residual < 1e-10
        cyl = catalog.cylinder(corollary)
        pts = cyl.grid(4)
        res = imm.coordinate_laplacian_eigencheck(imm.sample_geometry(cyl, pts), {"y1": [3], "y2": [0, 1, 2]})
        assert abs(res["y1"].extra["eigenvalue"] - 2.0) < 1e-10
        assert abs(res["y2"].extra["eigenvalue"] - 6.0) < 1e-10
        assert res["y1"].residual < 1e-10 and res["y2"].residual < 1e-10
