import math
import tracemalloc

import numpy as np
import pytest

import oracles
from sasakian import catalog
from sasakian import immersion as imm
from sasakian import report as rep
from sasakian.ambient import complex_structure
from sasakian.jets import _position


@pytest.fixture(scope="module")
def corollary():
    return catalog.corollary_immersion()


@pytest.fixture(scope="module")
def corollary_grid(corollary):
    return corollary.grid(5)


def _reference_second_fundamental(F, pts):
    """Oracle: B, H and max |<nabla_i d_j F, T_k>| before projection, on any chart.

    nabla_i d_j F = d_i d_j F + g_ij F comes from the accuracy-2 jet, its
    tangential part is solved against the actual induced metric G, and
    H = g^ij B_ij / m.  No flatness is assumed.
    """
    X = F.jets(pts, 2)
    m, dim = F.m, 2 * F.n + 2
    xval = X.value
    Tj = [X.deriv(i) for i in range(m)]
    tangents = np.stack([t.value for t in Tj], axis=1)
    G = np.einsum("nid,njd->nij", tangents, tangents)
    nabla = np.empty((xval.shape[0], m, m, dim))
    for i in range(m):
        for j in range(i, m):
            nabla[:, i, j] = nabla[:, j, i] = Tj[i].deriv(j).value + G[:, i, j][:, None] * xval
    rhs = np.einsum("nijd,nkd->nijk", nabla, tangents)
    coeff = np.linalg.solve(G[:, None, None, :, :], rhs[..., None])[..., 0]
    B = nabla - np.einsum("nijk,nkd->nijd", coeff, tangents)
    H = np.einsum("nij,nijd->nd", np.linalg.inv(G), B) / m
    return B, H, float(np.max(np.abs(rhs)))


def test_identity_metric_and_mean_curvature(corollary, corollary_grid):
    geo = imm.sample_geometry(corollary, corollary_grid)
    assert np.max(np.abs(geo.metric - np.eye(3))) < 1e-12
    assert np.max(np.abs(geo.mean_curvature_norm - 2.0 / 3.0)) < 1e-12


def test_gauss_orthogonality_and_xi_component(corollary, corollary_grid):
    geo = imm.sample_geometry(corollary, corollary_grid)
    # tangential part of nabla_i d_j F vanishes on these charts
    assert _reference_second_fundamental(corollary, corollary_grid)[2] < 1e-10
    tang = np.einsum("nijd,nkd->nijk", geo.second_fundamental, geo.tangents)
    assert np.max(np.abs(tang)) < 1e-10
    X = corollary.values(corollary_grid)
    xi0 = -complex_structure(X)
    assert np.max(np.abs(np.einsum("nijd,nd->nij", geo.second_fundamental, xi0))) < 1e-10


def test_great_circle_geodesic_geometry():
    F = oracles.great_circle()
    pts = np.linspace(0.0, 2 * math.pi, 7)[:, None]
    geo = imm.sample_geometry(F, pts)
    assert np.max(np.abs(geo.second_fundamental)) < 1e-12
    assert np.max(geo.mean_curvature_norm) < 1e-12


def test_singular_metric_rejected():
    bad = catalog.trig_immersion(
        [(1.0, (0.0,), 0.0, np.eye(8)[0])], m=1, n=3, name="constant"
    )
    with pytest.raises(ValueError, match="singular"):
        imm.sample_geometry(bad, np.array([[0.1]]))


def test_integral_check_pass_and_fail(corollary, corollary_grid):
    assert imm.check_integral(imm.sample_geometry(corollary, corollary_grid)).passed
    cyl = catalog.cylinder(corollary)
    res = imm.check_integral(imm.sample_geometry(cyl, cyl.grid(3)))
    assert not res.passed
    assert res.residual == pytest.approx(1.0, abs=1e-10)


def test_s5_surface_checks():
    F = catalog.s5_surface()
    pts = F.grid(5)
    assert imm.check_integral(imm.sample_geometry(F, pts)).passed
    cp = imm.check_C_parallel(imm.sample_geometry(F, pts))
    assert cp.residual < 1e-8
    assert cp.extra["total_symmetry"] < 1e-10
    assert imm.check_normal_laplacian(imm.sample_geometry(F, pts)).residual < 1e-8


def test_c_parallel_and_normal_laplacian(corollary, corollary_grid):
    cp = imm.check_C_parallel(imm.sample_geometry(corollary, corollary_grid))
    assert cp.residual < 1e-8
    geo = imm.sample_geometry(corollary, corollary_grid)
    nl = imm.check_normal_laplacian(geo)
    assert nl.residual < 1e-8
    assert np.var(geo.mean_curvature_norm) < 1e-16


def test_c_parallel_zero_for_totally_geodesic():
    # Legendre great circle: B = 0, so the C-parallel residual is exactly zero
    F = oracles.great_circle()
    pts = np.linspace(0.0, 2 * math.pi, 6)[:, None]
    cp = imm.check_C_parallel(imm.sample_geometry(F, pts))
    assert cp.residual < 1e-13


def test_bitension_modes(corollary, corollary_grid):
    assert np.max(np.abs(imm.bitension(imm.sample_geometry(corollary, corollary_grid)))) < 1e-8
    m4 = imm.bitension(imm.sample_geometry(corollary, corollary_grid), mode="minus4")
    assert np.max(np.abs(m4)) > 1.0  # 4 tau does not vanish for this immersion
    with pytest.raises(ValueError, match="mode"):
        imm.bitension(imm.sample_geometry(corollary, corollary_grid), mode="quartic")


def test_bitension_nonzero_for_non_biharmonic_circle():
    # a Legendre circle of the wrong radius is neither harmonic nor biharmonic
    r = 0.8
    dim8 = np.eye(8)
    terms = [
        (r, (1.0 / r,), 0.0, dim8[0]),
        (r, (1.0 / r,), -math.pi / 2.0, dim8[1]),
        (math.sqrt(1 - r * r), (0.0,), 0.0, dim8[2]),
    ]
    F = catalog.trig_immersion(terms, m=1, n=3, name="off-circle")
    pts = np.linspace(0.0, 2 * math.pi, 6)[:, None]
    assert imm.check_unit_norm(F.values(pts)).passed
    assert np.max(np.abs(imm.bitension(imm.sample_geometry(F, pts)))) > 1e-2


def test_chart_error_for_non_arclength_parametrization():
    # doubling the parameter speed breaks flat-orthonormality
    dim8 = np.eye(8)
    terms = [(1.0, (2.0,), 0.0, dim8[0]), (1.0, (2.0,), -math.pi / 2.0, dim8[1])]
    F = catalog.trig_immersion(terms, m=1, n=3, name="fast-circle")
    pts = np.linspace(0.0, 2.0, 5)[:, None]
    with pytest.raises(imm.ChartError, match="flat-orthonormal"):
        imm.check_C_parallel(imm.sample_geometry(F, pts))
    with pytest.raises(imm.ChartError):
        imm.bitension(imm.sample_geometry(F, pts))


def test_eigencheck_values(corollary, corollary_grid):
    res = imm.coordinate_laplacian_eigencheck(
        imm.sample_geometry(corollary, corollary_grid), {"x1": [3], "x2": [0, 1, 2]}
    )
    assert res["x1"].extra["eigenvalue"] == pytest.approx(1.0, abs=1e-10)
    assert res["x2"].extra["eigenvalue"] == pytest.approx(5.0, abs=1e-10)
    assert res["x1"].residual < 1e-10 and res["x2"].residual < 1e-10


def test_eigencheck_cylinder_values(corollary):
    cyl = catalog.cylinder(corollary)
    pts = cyl.grid(3)
    res = imm.coordinate_laplacian_eigencheck(imm.sample_geometry(cyl, pts), {"y1": [3], "y2": [0, 1, 2]})
    assert res["y1"].extra["eigenvalue"] == pytest.approx(2.0, abs=1e-10)
    assert res["y2"].extra["eigenvalue"] == pytest.approx(6.0, abs=1e-10)


def test_eigencheck_bad_split_reports_failure(corollary, corollary_grid):
    res = imm.coordinate_laplacian_eigencheck(
        imm.sample_geometry(corollary, corollary_grid), {"mixed": [0, 3]}
    )
    assert not res["mixed"].passed


def test_lattice_check_pass_and_fail(corollary, corollary_grid):
    pts = corollary_grid[:10]
    assert imm.lattice_check(corollary, catalog.COROLLARY_LATTICE, pts).passed
    halved = [0.5 * np.asarray(catalog.COROLLARY_LATTICE[0])]
    assert not imm.lattice_check(corollary, halved, pts).passed


def test_unit_norm_check(corollary, corollary_grid):
    chk = imm.check_unit_norm(corollary.values(corollary_grid))
    assert chk.passed and chk.residual < 1e-13


def test_sample_checks_equal_direct_evaluation(corollary, corollary_grid):
    geo = imm.sample_geometry(corollary, corollary_grid)
    assert imm.check_unit_norm(geo.values) == imm.check_unit_norm(corollary.values(corollary_grid))
    pts = corollary_grid[:10]
    direct = imm.lattice_check(corollary, catalog.COROLLARY_LATTICE, pts)
    assert imm.lattice_check(corollary, catalog.COROLLARY_LATTICE, pts, base=geo.values[:10]) == direct


def test_trace_b_ah_proportionality(corollary, corollary_grid):
    geo = imm.sample_geometry(corollary, corollary_grid)
    B, H = geo.second_fundamental, geo.mean_curvature
    bah = np.einsum("nik,nikd->nd", np.einsum("nikd,nd->nik", B, H), B)
    assert np.max(np.abs(bah - 2.0 * H)) < 1e-8


def _great_s3():
    """A real great 3-sphere in its round chart, which is not flat-orthonormal, and a grid.

    (cos u, sin u cos v, sin u sin v cos w, sin u sin v sin w) by product-to-sum.
    """
    e = np.eye(8)
    q = -math.pi / 2.0  # sin x = cos(x - pi/2)
    terms = [
        (1.0, (1, 0, 0), 0.0, e[0]),
        (0.5, (1, 1, 0), q, e[1]),
        (0.5, (1, -1, 0), q, e[1]),
        (0.25, (1, -1, 1), 0.0, e[2]),
        (0.25, (1, -1, -1), 0.0, e[2]),
        (-0.25, (1, 1, 1), 0.0, e[2]),
        (-0.25, (1, 1, -1), 0.0, e[2]),
        (0.25, (1, -1, 1), q, e[3]),
        (0.25, (-1, 1, 1), q, e[3]),
        (-0.25, (1, 1, 1), q, e[3]),
        (-0.25, (-1, -1, 1), q, e[3]),
    ]
    F = catalog.trig_immersion(terms, m=3, n=3, name="great-s3")
    pts = np.stack(
        np.meshgrid(*[np.linspace(0.4, 1.2, 3)] * 3, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    return F, pts


def test_totally_geodesic_legendre_sphere_has_zero_b():
    # real great 3-sphere inside the 7-sphere: integral with B identically zero,
    # so the C-parallel identity holds trivially (both sides vanish).
    F, pts = _great_s3()
    u, v, w = pts.T
    direct = [np.cos(u), np.sin(u) * np.cos(v), np.sin(u) * np.sin(v) * np.cos(w), np.sin(u) * np.sin(v) * np.sin(w)]
    assert np.max(np.abs(F.values(pts)[:, :4] - np.stack(direct, axis=-1))) < 1e-15
    assert imm.check_unit_norm(F.values(pts)).passed
    assert imm.check_integral(imm.sample_geometry(F, pts)).passed
    B, H, _ = _reference_second_fundamental(F, pts)
    assert np.max(np.abs(B)) < 1e-10
    assert np.max(np.linalg.norm(H, axis=-1)) < 1e-10
    # the round chart is not flat-orthonormal, so covariant checks refuse it
    with pytest.raises(imm.ChartError):
        imm.check_C_parallel(imm.sample_geometry(F, pts))
    with pytest.raises(imm.ChartError):
        imm.sample_geometry(F, pts).second_fundamental


def test_jets_match_finite_differences_on_corollary(corollary):
    # 4th-order central stencils at h = 1e-4 agree with jet derivatives to 1e-6
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 2 * math.pi, size=(20, 3))
    X = corollary.jets(pts, 2)
    h = 1e-4
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = 1.0

        def f(shift):
            return corollary.values(pts + shift * e)

        d1 = (-f(2 * h) + 8 * f(h) - 8 * f(-h) + f(-2 * h)) / (12 * h)
        d2 = (-f(2 * h) + 16 * f(h) - 30 * f(0.0) + 16 * f(-h) - f(-2 * h)) / (12 * h * h)
        assert np.max(np.abs(X.deriv(axis).value - d1)) < 1e-6
        assert np.max(np.abs(X.deriv(axis).deriv(axis).value - d2)) < 1e-6


def test_adapted_shape_operators_from_geometry(corollary):
    # the coordinate frame realizes the adapted-basis matrices up to orientation
    from sasakian import shape_algebra as sa

    pts = corollary.grid(3)
    geo = imm.sample_geometry(corollary, pts)
    X = corollary.values(pts)
    phiT = np.empty_like(geo.tangents)
    for i in range(3):
        jt = complex_structure(geo.tangents[:, i])
        phiT[:, i] = jt - np.sum(jt * X, -1)[:, None] * X
    A_geo = np.einsum("nikd,njd->njik", geo.second_fundamental, phiT)
    sign = np.sign(A_geo[0, 0, 0, 0])
    ops = sa.AdaptedShapeOperators.case_I(*catalog.COROLLARY_TUPLE, b=1.0)
    assert np.max(np.abs(sign * A_geo - oracles.build_matrices(ops))) < 1e-10


EXAMPLE_BUILDS = [
    catalog.corollary_immersion,
    catalog.s5_surface,
    lambda: catalog.cylinder(catalog.corollary_immersion()),
    lambda: catalog.cylinder(catalog.s5_surface()),
    lambda: catalog.minus4_immersion(1),
    lambda: catalog.minus4_immersion(2),
    lambda: catalog.minus4_immersion(3),
    lambda: catalog.cylinder(catalog.minus4_immersion(3)),
    lambda: catalog.legendre_circle(),
    lambda: catalog.legendre_helix(0.5),
    oracles.great_circle,
    lambda: catalog.precompose_linear(
        catalog.cylinder(catalog.corollary_immersion()),
        (catalog.T4_TRANSFORM_2 @ catalog.T4_TRANSFORM_1).T,
        "cylinder-c1-circleform",
    ),
    lambda: catalog.coordinate_curve(catalog.corollary_immersion(), 1, np.array([0.3, 0.7, 1.1])),
]


@pytest.mark.parametrize("build", EXAMPLE_BUILDS)
def test_truncated_accuracy4_jet_is_bit_equal_to_lower_accuracy(build):
    # the single geometry pass relies on this: one accuracy-4 evaluation
    # serves every check that needs fewer derivatives
    F = build()
    pts = F.grid(3)
    full = F.jets(pts, 4)
    for acc in range(4):
        assert np.array_equal(full.truncate(acc).coef, F.jets(pts, acc).coef)


def test_covariant_checks_share_one_flat_chart_check(corollary, corollary_grid, monkeypatch):
    calls = []
    original = imm.require_flat_chart
    monkeypatch.setattr(imm, "require_flat_chart", lambda sample: calls.append(1) or original(sample))
    geo = imm.sample_geometry(corollary, corollary_grid)
    assert not calls  # built lazily, on the first covariant check
    imm.check_C_parallel(geo)
    imm.check_normal_laplacian(geo)
    imm.check_bitension(geo)
    imm.coordinate_laplacian_eigencheck(geo, {"x1": [3]})
    assert len(calls) == 1


def _eager_second_fundamental_jets(sample):
    """Reference: every B_ij as a jet of accuracy 2, built in one eager pass."""
    m = sample.immersion.m
    T = [sample.jet.deriv(i) for i in range(m)]  # d_i F at accuracy 3
    X2 = sample.jet.truncate(2)
    T2 = [t.truncate(2) for t in T]
    B = {}
    for i in range(m):
        for j in range(i, m):
            nab = T[i].deriv(j) + imm._dotj(T2[i], T2[j]) * X2
            proj = nab
            for k in range(m):
                proj = proj - imm._dotj(nab, T2[k]) * T2[k]
            B[(i, j)] = B[(j, i)] = proj
    return B


def _eager_tension_jet(sample):
    B = _eager_second_fundamental_jets(sample)
    tau = B[(0, 0)]
    for i in range(1, sample.immersion.m):
        tau = tau + B[(i, i)]
    return tau


def _assert_bit_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize(
    "build",
    [
        catalog.corollary_immersion,
        catalog.s5_surface,
        lambda: catalog.cylinder(catalog.corollary_immersion()),
        lambda: catalog.minus4_immersion(1),
        lambda: catalog.legendre_helix(0.5),
    ],
)
def test_b_jets_on_demand_are_truncations_of_the_eager_construction(build):
    # tau's line jet holds the eager tau's coefficient of x_k^d in row [d, k],
    # and every B_ij of accuracy 1 the eager B_ij's terms of degree <= 1
    F = build()
    geo = imm.sample_geometry(F, F.grid(3))
    eager = _eager_second_fundamental_jets(geo)
    tau, want = geo.tension_lines, _eager_tension_jet(geo)
    m = F.m
    assert (tau.nvars, tau.acc) == (1, 2)
    assert tau.rows.shape == (3, m) + want.value.shape
    for d in range(3):
        for k in range(m):
            _assert_bit_equal(tau.rows[d, k], want.rows[_position(m, 2)[tuple(d * (v == k) for v in range(m))]])
    lean = geo.second_fundamental_jets
    assert lean.keys() == eager.keys()
    for key, jet in eager.items():
        assert lean[key].acc == 1
        _assert_bit_equal(lean[key].coef, jet.truncate(1).coef)


@pytest.mark.parametrize("name", ["corollary-c1", "cylinder-c1", "s5-surface", "minus4-1", "legendre-helix:0.5"])
def test_report_json_is_identical_under_the_eager_b_jets(name, monkeypatch):
    lean = rep.build_report(name, per_axis=3).to_json()
    monkeypatch.setattr(imm.GeometrySample, "second_fundamental_jets", property(_eager_second_fundamental_jets))
    monkeypatch.setattr(imm.GeometrySample, "tension_lines", property(lambda s: _eager_tension_jet(s).lines()))
    assert rep.build_report(name, per_axis=3).to_json() == lean


@pytest.mark.parametrize("build", EXAMPLE_BUILDS)
def test_jet_b_and_h_match_the_general_chart_oracle(build):
    # B and H exist only as jets; on every flat-orthonormal example they agree
    # with the general-chart linear solve they replace
    F = build()
    pts = F.grid(3)
    geo = imm.sample_geometry(F, pts)
    B, H, _ = _reference_second_fundamental(F, pts)
    assert np.max(np.abs(geo.second_fundamental - B)) < 1e-14
    assert np.max(np.abs(geo.mean_curvature - H)) < 1e-14
    assert np.max(np.abs(geo.mean_curvature_norm - np.linalg.norm(H, axis=-1))) < 1e-14


REGISTERED = [name.replace("<kappa1>", "0.5") for name in rep.EXAMPLE_NAMES]
# the verify-dense benchmark items: 1296, 1000 and 343 points
DENSE_REPORTS = [("cylinder-c1", 6), ("corollary-c1", 10), ("minus4-1", 7)]


@pytest.mark.parametrize("name, grid", [(n, g) for g in (3, 5) for n in REGISTERED] + DENSE_REPORTS)
def test_report_json_does_not_depend_on_the_block_size(name, grid, monkeypatch):
    # the whole grid in one block gives the report of the default blocks; and
    # every geometry pass of the report gives the same bits, field by field,
    # at one point per block, at 7, which leaves blocks of unequal size on most
    # grids, and at 100
    passes, geometry_pass = [], imm.geometry_pass

    def recording(F, pts, fields=()):
        geo = geometry_pass(F, pts, fields)
        passes.append((F, pts, fields, geo))
        return geo

    monkeypatch.setattr(imm, "geometry_pass", recording)
    want = rep.build_report(name, per_axis=grid).to_json()
    monkeypatch.setattr(imm, "geometry_pass", geometry_pass)
    assert passes
    monkeypatch.setattr(imm, "GEOMETRY_BLOCK_POINTS", rep.MAX_GRID_POINTS)
    assert rep.build_report(name, per_axis=grid).to_json() == want
    for size in (1, 7, 100):
        monkeypatch.setattr(imm, "GEOMETRY_BLOCK_POINTS", size)
        for F, pts, fields, geo in passes:
            got = imm.geometry_pass(F, pts, fields)
            for field in ("values", "tangents") + tuple(fields):
                a, b = getattr(got, field), getattr(geo, field)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (size, F.name, field)


def test_point_blocks_are_equal_consecutive_slices(monkeypatch):
    monkeypatch.setattr(imm, "GEOMETRY_BLOCK_POINTS", 640)
    assert imm.point_blocks(1296) == [slice(0, 432), slice(432, 864), slice(864, 1296)]
    assert imm.point_blocks(1000) == [slice(0, 500), slice(500, 1000)]
    assert imm.point_blocks(625) == [slice(0, 625)]
    monkeypatch.setattr(imm, "GEOMETRY_BLOCK_POINTS", 7)
    assert [b.stop - b.start for b in imm.point_blocks(27)] == [6, 7, 7, 7]


def test_chart_error_reports_the_whole_grid_at_every_block_size(monkeypatch):
    F, pts = _great_s3()
    pts = pts[::-1]  # the largest |G - I| lies in the last block
    with pytest.raises(imm.ChartError) as whole:
        imm.check_C_parallel(imm.sample_geometry(F, pts))
    for size in (1, 7, len(pts)):
        monkeypatch.setattr(imm, "GEOMETRY_BLOCK_POINTS", size)
        with pytest.raises(imm.ChartError) as blocked:
            imm.geometry_pass(F, pts, ("tension",))
        assert str(blocked.value) == str(whole.value)


def test_report_memory_does_not_grow_with_the_grid():
    # cylinder-c1 holds the jets of one block at a time: grid 9 (6561 points,
    # 11 blocks) peaks within twice grid 5 (625 points, one block)
    def peak(grid):
        tracemalloc.start()
        try:
            rep.build_report("cylinder-c1", per_axis=grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rep.build_report("cylinder-c1", per_axis=5)  # lazily built tables
    assert peak(9) <= 2 * peak(5)
