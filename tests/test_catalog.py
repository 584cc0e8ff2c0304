import math

import numpy as np
import pytest

import oracles
from sasakian import catalog
from sasakian import immersion as imm
from sasakian import report as rep

SQ2, SQ3, SQ5 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)
SQ6, SQ10 = math.sqrt(6.0), math.sqrt(10.0)


def test_corollary_coefficients_and_frequencies():
    F = catalog.corollary_torus()[1]
    want_coeff = np.array([-1 / SQ6, 1 / SQ6, 1 / SQ6, 1 / SQ2])
    # standard basis: one wave per complex coordinate, amplitude = circle coefficient
    assert np.max(np.abs(F.amplitudes - np.diag(want_coeff))) < 1e-14
    assert np.all(F.phases == 0.0)
    want_freqs = np.array(
        [
            [-SQ5, 0.0, 0.0],
            [1 / SQ5, -4 * SQ3 / SQ10, 0.0],
            [1 / SQ5, SQ3 / SQ10, -3 * SQ2 / 2],
            [1 / SQ5, SQ3 / SQ10, SQ2 / 2],
        ]
    )
    assert np.max(np.abs(F.frequencies - want_freqs)) < 1e-14


def test_rho_identities_for_corollary_tuple():
    # oracle: direct radical arithmetic from the rho formula
    lam, alpha, gamma, delta = oracles.COROLLARY_TUPLE
    root = math.sqrt(4 * gamma * (2 * gamma - alpha) + delta**2)
    rho1, rho2 = 0.5 * (root + delta), 0.5 * (root - delta)
    assert rho1 * rho2 == pytest.approx(gamma * (2 * gamma - alpha), abs=1e-14)
    assert rho1 - rho2 == pytest.approx(delta, abs=1e-14)


def test_coefficient_squares_sum_to_one():
    for build in (
        catalog.corollary_torus()[1],
        catalog.minus4_torus(1)[1],
        catalog.minus4_torus(2)[1],
        catalog.minus4_torus(3)[1],
    ):
        assert np.sum(np.abs(build.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_flat_torus_general_c_unit_norm():
    from sasakian import classifier

    sols, _ = classifier.solve_flat(2.0)
    assert sols
    F = catalog.flat_torus(sols[0], "flat-torus(c=2)", (2.0 * math.pi,) * 3)
    pts = F.grid(4)
    assert imm.check_unit_norm(F.values(pts)).residual < 1e-13
    assert np.sum(np.abs(F.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_flat_torus_rejects_inadmissible_tuple():
    from sasakian.classifier import SolutionTuple

    with pytest.raises(ValueError, match="radicand|positive"):
        catalog.flat_torus(SolutionTuple(-0.5, 1.0, 0.3, 0.0, c=1.0), "inadmissible", (2.0 * math.pi,) * 3)


@pytest.mark.parametrize("field", ["lam", "alpha", "gamma", "delta"])
def test_a_nan_tuple_field_is_inadmissible(field):
    # NaN fails every comparison, so each guard must be written to fail on it
    tup = catalog.corollary_torus()[0]._replace(**{field: math.nan})
    with pytest.raises(ValueError, match="inadmissible tuple"):
        catalog.flat_torus(tup, "nan", (2.0 * math.pi,) * 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: catalog.corollary_torus()[1],
        lambda: catalog.s5_surface(),
        lambda: catalog.cylinder(catalog.corollary_torus()[1]),
        lambda: catalog.cylinder(catalog.s5_surface()),
        lambda: catalog.minus4_torus(1)[1],
        lambda: catalog.minus4_torus(2)[1],
        lambda: catalog.minus4_torus(3)[1],
        lambda: catalog.legendre_circle(),
        lambda: catalog.legendre_helix(0.5),
    ],
)
def test_every_generated_immersion_is_unit_norm(build):
    F = build()
    pts = F.grid(3) if F.m > 1 else np.linspace(0, 6, 7)[:, None]
    assert imm.check_unit_norm(F.values(pts)).passed


def test_basis_independence_of_verdicts():
    rng = np.random.default_rng(42)
    basis = oracles.random_unitary(4, rng)
    F = oracles.rotated_torus(catalog.corollary_torus()[1], basis)
    pts = F.grid(4)
    assert imm.check_unit_norm(F.values(pts)).residual < 1e-13
    assert imm.check_integral(imm.sample_geometry(F, pts)).passed
    assert np.max(np.abs(imm.bitension(imm.sample_geometry(F, pts)))) < 1e-8
    geo = imm.sample_geometry(F, pts[:10])
    assert np.max(np.abs(geo.mean_curvature_norm - 2.0 / 3.0)) < 1e-10
    dec = catalog.circle_decomposition(F, basis=basis)
    assert np.max(np.abs(np.sort(dec.radii) - np.sort(np.linalg.norm(F.amplitudes, axis=1)))) < 1e-12


def test_cylinder_shifts_frequencies_by_minus_one():
    F = catalog.corollary_torus()[1]
    Y = catalog.cylinder(F)
    assert Y.m == 4
    assert np.all(Y.frequencies[:, 0] == -1.0)
    assert np.max(np.abs(Y.frequencies[:, 1:] - F.frequencies)) < 1e-15
    dec = catalog.circle_decomposition(Y, per_axis=3)
    assert np.max(np.abs(dec.frequencies[:, 0] + 1.0)) < 1e-10


def test_cylinder_of_biharmonic_is_biharmonic():
    Y = catalog.cylinder(catalog.corollary_torus()[1])
    assert np.max(np.abs(imm.bitension(imm.sample_geometry(Y, Y.grid(3))))) < 1e-8


def test_cylinder_over_geodesic_circle_stays_minimal():
    Y = catalog.cylinder(oracles.great_circle())
    geo = imm.sample_geometry(Y, Y.grid(4))
    assert np.max(geo.mean_curvature_norm) < 1e-12


def test_s5_surface_lattice_periodicity():
    F = catalog.s5_surface()
    pts = F.grid(4)
    base = F.values(pts)
    shifted = F.values(pts + np.array([2 * math.pi, 0.0]))
    assert np.max(np.abs(shifted - base)) < 1e-14
    assert imm.lattice_check(F, catalog.S5_LATTICE, pts).residual < 1e-10


def test_circle_decomposition_radii_cylinder_c1():
    Y = catalog.cylinder(catalog.corollary_torus()[1])
    dec = catalog.circle_decomposition(Y)
    want = np.sort([1 / SQ2, 1 / SQ6, 1 / SQ6, 1 / SQ6])
    assert np.max(np.abs(np.sort(dec.radii) - want)) < 1e-10
    assert np.sum(dec.radii**2) == pytest.approx(1.0, abs=1e-12)


def test_circle_decomposition_reads_a_given_geometry():
    # values and tangents assembled from the blocks' accuracy-4 jets
    Y = catalog.cylinder(catalog.corollary_torus()[1])
    pts = Y.grid(3)
    direct = catalog.circle_decomposition(Y, per_axis=3)
    given = catalog.circle_decomposition(Y, geometry=imm.geometry_pass(Y, pts, ("tension",)))
    assert np.array_equal(given.radii, direct.radii)
    assert np.array_equal(given.frequencies, direct.frequencies)


@pytest.mark.parametrize(
    "build",
    [lambda: catalog.cylinder(catalog.corollary_torus()[1])]
    + [lambda i=i: catalog.cylinder(catalog.minus4_torus(i)[1]) for i in (1, 2, 3)],
    ids=["cylinder-c1"] + [f"cylinder-minus4-{i}" for i in (1, 2, 3)],
)
def test_circle_decomposition_does_not_depend_on_the_point_order(build):
    # radii and phase rates are the midpoint of each column's range, exact in any order
    Y = build()
    geo = imm.geometry_pass(Y, Y.grid(5))
    perm = np.random.default_rng(0).permutation(len(geo.points))
    shuffled = imm.PointGeometry(Y, geo.points[perm], geo.values[perm], geo.tangents[perm])
    direct = catalog.circle_decomposition(Y, geometry=geo)
    permuted = catalog.circle_decomposition(Y, geometry=shuffled)
    assert np.array_equal(permuted.radii, direct.radii)
    assert np.array_equal(permuted.frequencies, direct.frequencies)


@pytest.mark.parametrize("name, grid", [("cylinder-minus4-2", 11), ("cylinder-c1", 9)])
def test_decomposition_sum_sq_does_not_grow_with_the_grid(name, grid):
    checks = {c.name: c for c in rep.build_report(name, grid).checks}
    assert checks["decomposition_sum_sq"].residual < 1e-15


@pytest.mark.parametrize("field, index", [("values", (3, 1)), ("tangents", (4, 2, 5))])
def test_a_nan_in_the_decomposition_input_raises(field, index):
    # a NaN modulus is not constant, and a NaN phase rate not affine
    Y = catalog.cylinder(catalog.corollary_torus()[1])
    geo = imm.geometry_pass(Y, Y.grid(3))
    getattr(geo, field)[index] = np.nan
    with pytest.raises(ValueError, match="modulus is not constant|phase is not affine"):
        catalog.circle_decomposition(Y, geometry=geo)


def test_circle_decomposition_requires_constant_moduli():
    Y = catalog.cylinder(catalog.s5_surface())
    with pytest.raises(ValueError, match="modulus is not constant"):
        catalog.circle_decomposition(Y)


def test_s5_cylinder_circle_form_radii():
    Y = catalog.cylinder(catalog.s5_surface())
    q3 = catalog.S5_CYL_TRANSFORM_2 @ catalog.S5_CYL_TRANSFORM_1
    assert np.max(np.abs(q3 @ q3.T - np.eye(3))) < 1e-14
    tilde = catalog.precompose_linear(Y, q3.T, "cylinder-s5-circleform")
    dec = catalog.circle_decomposition(tilde, basis=catalog.S5_CYL_BASIS)
    assert np.max(np.abs(np.sort(dec.radii) - np.sort([1 / SQ2, 0.5, 0.5]))) < 1e-10
    # single frequency per circle after the displayed change of variables
    assert np.max(np.abs(dec.frequencies - np.diag(np.diag(dec.frequencies)))) < 1e-10


def test_t4_transforms_are_orthogonal_and_diagonalize():
    q4 = catalog.T4_TRANSFORM_2 @ catalog.T4_TRANSFORM_1
    assert np.max(np.abs(q4 @ q4.T - np.eye(4))) < 1e-14
    Y = catalog.cylinder(catalog.corollary_torus()[1])
    tilde = catalog.precompose_linear(Y, q4.T, "cylinder-c1-circleform")
    dec = catalog.circle_decomposition(tilde, per_axis=3)
    offdiag = dec.frequencies - np.diag(np.diag(dec.frequencies))
    assert np.max(np.abs(offdiag)) < 1e-10
    assert np.max(np.abs(np.sort(np.abs(np.diag(dec.frequencies))) - np.sort([SQ6, SQ6, SQ6, SQ2]))) < 1e-10


def test_radii_off_the_unit_sphere_reach_both_decomposition_checks():
    # sum r^2 = 1 is the report's decomposition_sum_sq check, under the tolerance
    # a command may override; the decomposition itself does not refuse such radii
    F = catalog.corollary_torus()[1]
    F = imm.ParametricImmersion(0.99 * F.amplitudes, F.frequencies, F.phases, F.name, F.sample_box)
    report = rep.VerificationReport(subject=F.name)
    rep._decomposition_check(report, F, (1 / SQ2,) + (1 / SQ6,) * 3, per_axis=3)
    checks = {c.name: c for c in report.checks}
    assert list(checks) == ["decomposition", "decomposition_sum_sq"]
    assert checks["decomposition"].residual == pytest.approx(0.01 / SQ2, rel=1e-9)
    assert checks["decomposition_sum_sq"].residual == pytest.approx(1.0 - 0.99**2, rel=1e-9)
    assert not any(c.passed for c in report.checks)


def test_unitary_validation():
    with pytest.raises(ValueError, match="Hermitian-orthonormal"):
        oracles.validate_unitary(np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex))
    with pytest.raises(ValueError, match="Hermitian-orthonormal"):
        oracles.rotated_torus(catalog.corollary_torus()[1], 2.0 * np.eye(4))


def test_helix_vectors_are_the_sign_plus_one_construction():
    for kappa1 in (1e-9, 0.25, 0.5, 0.99):
        assert np.array_equal(catalog.helix_vectors(kappa1), oracles.helix_vectors(kappa1))
        assert oracles.validate_helix_vectors(catalog.helix_vectors(kappa1), kappa1) == []
        got, want = catalog.legendre_helix(kappa1), oracles.legendre_helix(kappa1)
        assert np.array_equal(got.amplitudes, want.amplitudes) and np.array_equal(got.phases, want.phases)
        assert np.array_equal(got.frequencies, want.frequencies) and got.name == want.name


def test_helix_vector_conditions():
    vecs = oracles.helix_vectors(0.5)
    assert oracles.validate_helix_vectors(vecs, 0.5) == []
    assert oracles.validate_helix_vectors(oracles.helix_vectors(0.5, sign=-1), 0.5) == []
    bad = vecs.copy()
    bad[3] = np.eye(6)[4]  # J e_1 direction: breaks <e_2, J e_4> and the balance
    msgs = oracles.validate_helix_vectors(bad, 0.5)
    assert msgs
    with pytest.raises(ValueError, match="conditions violated"):
        oracles.legendre_helix(0.5, vectors=bad)


def test_helix_vectors_validation_inputs():
    for kappa1 in (1.5, 0.0, 1.0):
        with pytest.raises(ValueError, match="curvature"):
            catalog.helix_vectors(kappa1)
        with pytest.raises(ValueError, match="curvature"):
            oracles.helix_vectors(kappa1)
    with pytest.raises(ValueError, match="alpha_1"):
        oracles.helix_vectors(0.5, alpha_pair=(1.0, 1.0))
    with pytest.raises(ValueError, match="sign"):
        oracles.helix_vectors(0.5, sign=2)


def test_remark_alpha_constraint():
    # alpha_1^2 + alpha_2^2 = 1 - B^2/A^2 = 2 kappa_1 / A^2
    kappa1 = 0.5
    A2 = 1 + kappa1
    a1, a2 = math.sqrt(2 * kappa1 / A2), 0.0
    vecs = oracles.helix_vectors(kappa1, alpha_pair=(a1, a2))
    assert oracles.validate_helix_vectors(vecs, kappa1) == []
    # any split of the same sum is admissible too
    vecs = oracles.helix_vectors(kappa1, alpha_pair=(a1 * 0.6, a1 * 0.8))
    assert oracles.validate_helix_vectors(vecs, kappa1) == []


def test_precompose_linear_shape_check():
    F = catalog.s5_surface()
    with pytest.raises(ValueError, match="shape"):
        catalog.precompose_linear(F, np.eye(3), "s5-surface∘A")


def test_coordinate_curve_dimensions():
    F = catalog.corollary_torus()[1]
    c = catalog.coordinate_curve(F, 1, [0.1, 0.2, 0.3])
    assert c.m == 1
    s = np.array([[0.0], [0.5]])
    vals = c.values(s)
    direct = F.values(np.array([[0.1, 0.0, 0.3], [0.1, 0.5, 0.3]]))
    assert np.max(np.abs(vals - direct)) < 1e-14
    with pytest.raises(ValueError, match="dimension"):
        catalog.coordinate_curve(F, 0, [0.1, 0.2])
    for axis in (-1, 3):
        with pytest.raises(ValueError, match="axis"):
            catalog.coordinate_curve(F, axis, [0.1, 0.2, 0.3])


def test_wave_table_shapes_are_validated():
    e = np.eye(8)
    label = {"name": "bad", "sample_box": (2.0 * math.pi,)}
    with pytest.raises(ValueError, match="frequency shape \\(2,\\), vector shape \\(8,\\)"):
        catalog.trig_immersion([(1.0, (1.0, 0.5), 0.0, e[0])], m=1, n=3, **label)
    with pytest.raises(ValueError, match="vector shape \\(6,\\); need \\(1,\\), \\(8,\\)"):
        catalog.trig_immersion([(1.0, (1.0,), 0.0, np.eye(6)[0])], m=1, n=3, **label)
    with pytest.raises(ValueError, match="wave table shapes disagree"):
        imm.ParametricImmersion(amplitudes=np.diag([0.6, 0.8]), frequencies=[[1.0], [2.0], [3.0]], phases=np.zeros(2), **label)
    with pytest.raises(ValueError, match="wave table shapes disagree"):
        imm.ParametricImmersion(amplitudes=np.diag([0.6, 0.8]), frequencies=[[1.0], [2.0]], phases=[0.0], **label)
    with pytest.raises(ValueError, match="wave table shapes disagree"):
        imm.ParametricImmersion(amplitudes=np.ones(4), frequencies=np.ones((1, 1)), phases=np.zeros(1), **label)


def test_minus4_index_validation():
    # index 0 would pick the last solver tuple
    for index in (0, 4):
        with pytest.raises(ValueError, match="1, 2 or 3"):
            catalog.minus4_torus(index)[1]


@pytest.mark.parametrize(
    "example, build, solver",
    [("corollary-c1", catalog.corollary_torus, "solve_flat"), ("minus4-2", catalog.minus4_torus, "solve_minus4_flat")],
)
def test_verified_flat_tori_are_solved_once_per_process(example, build, solver, monkeypatch):
    calls = []
    solve = getattr(catalog, solver)
    monkeypatch.setattr(catalog, solver, lambda *args: calls.append(args) or solve(*args))
    build.cache_clear()
    try:
        first = rep.build_report(example, 3).to_json()
        second = rep.build_report(example, 3).to_json()
    finally:
        build.cache_clear()  # its entries came through the patched solver
    assert len(calls) == 1 and first == second
