import math

import numpy as np
import pytest

from sasakian import catalog
from sasakian import immersion as imm

SQ2, SQ3, SQ5 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)
SQ6, SQ10 = math.sqrt(6.0), math.sqrt(10.0)


def test_corollary_coefficients_and_frequencies():
    F = catalog.corollary_immersion()
    want_coeff = np.array([-1 / SQ6, 1 / SQ6, 1 / SQ6, 1 / SQ2])
    assert np.max(np.abs(F.circle_coefficients - want_coeff)) < 1e-14
    want_freqs = np.array(
        [
            [-SQ5, 0.0, 0.0],
            [1 / SQ5, -4 * SQ3 / SQ10, 0.0],
            [1 / SQ5, SQ3 / SQ10, -3 * SQ2 / 2],
            [1 / SQ5, SQ3 / SQ10, SQ2 / 2],
        ]
    )
    assert np.max(np.abs(F.circle_frequencies - want_freqs)) < 1e-14


def test_rho_identities_for_corollary_tuple():
    # oracle: direct radical arithmetic from the rho formula
    lam, alpha, gamma, delta = catalog.COROLLARY_TUPLE
    root = math.sqrt(4 * gamma * (2 * gamma - alpha) + delta**2)
    rho1, rho2 = 0.5 * (root + delta), 0.5 * (root - delta)
    assert rho1 * rho2 == pytest.approx(gamma * (2 * gamma - alpha), abs=1e-14)
    assert rho1 - rho2 == pytest.approx(delta, abs=1e-14)


def test_coefficient_squares_sum_to_one():
    for build in (
        catalog.corollary_immersion(),
        catalog.minus4_immersion(1),
        catalog.minus4_immersion(2),
        catalog.minus4_immersion(3),
    ):
        assert np.sum(build.circle_coefficients**2) == pytest.approx(1.0, abs=1e-12)


def test_flat_torus_general_c_unit_norm():
    from sasakian import classifier

    sols, _ = classifier.solve_flat(2.0)
    assert sols
    F = catalog.flat_torus(2.0, sols[0])
    pts = F.grid(4)
    assert imm.check_unit_norm(F.values(pts)).residual < 1e-13
    assert np.sum(F.circle_coefficients**2) == pytest.approx(1.0, abs=1e-12)


def test_flat_torus_rejects_inadmissible_tuple():
    with pytest.raises(ValueError, match="radicand|positive"):
        catalog.flat_torus(1.0, (-0.5, 1.0, 0.3, 0.0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: catalog.corollary_immersion(),
        lambda: catalog.s5_surface(),
        lambda: catalog.cylinder(catalog.corollary_immersion()),
        lambda: catalog.cylinder(catalog.s5_surface()),
        lambda: catalog.minus4_immersion(1),
        lambda: catalog.minus4_immersion(2),
        lambda: catalog.minus4_immersion(3),
        lambda: catalog.legendre_curve("circle"),
        lambda: catalog.legendre_curve("helix", kappa1=0.5),
    ],
)
def test_every_generated_immersion_is_unit_norm(build):
    F = build()
    pts = F.grid(3) if F.m > 1 else np.linspace(0, 6, 7)[:, None]
    assert imm.check_unit_norm(F.values(pts)).passed


def test_basis_independence_of_verdicts():
    rng = np.random.default_rng(42)
    basis = catalog.random_unitary(4, rng)
    F = catalog.corollary_immersion(basis=basis)
    pts = F.grid(4)
    assert imm.check_unit_norm(F.values(pts)).residual < 1e-13
    assert imm.check_integral(imm.sample_geometry(F, pts)).passed
    assert np.max(np.abs(imm.bitension(imm.sample_geometry(F, pts)))) < 1e-8
    geo = imm.sample_geometry(F, pts[:10])
    assert np.max(np.abs(geo.mean_curvature_norm - 2.0 / 3.0)) < 1e-10
    dec = catalog.circle_decomposition(F)
    assert np.max(np.abs(np.sort(dec.radii) - np.sort(np.abs(F.circle_coefficients)))) < 1e-12


def test_cylinder_shifts_frequencies_by_minus_one():
    F = catalog.corollary_immersion()
    Y = catalog.cylinder(F)
    assert Y.m == 4
    assert np.all(Y.circle_frequencies[:, 0] == -1.0)
    assert np.max(np.abs(Y.circle_frequencies[:, 1:] - F.circle_frequencies)) < 1e-15
    dec = catalog.circle_decomposition(Y, per_axis=3)
    assert np.max(np.abs(dec.frequencies[:, 0] + 1.0)) < 1e-10


def test_cylinder_of_biharmonic_is_biharmonic():
    Y = catalog.cylinder(catalog.corollary_immersion())
    assert np.max(np.abs(imm.bitension(imm.sample_geometry(Y, Y.grid(3))))) < 1e-8


def test_cylinder_over_geodesic_circle_stays_minimal():
    Y = catalog.cylinder(catalog.great_circle())
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
    Y = catalog.cylinder(catalog.corollary_immersion())
    dec = catalog.circle_decomposition(Y)
    want = np.sort([1 / SQ2, 1 / SQ6, 1 / SQ6, 1 / SQ6])
    assert np.max(np.abs(np.sort(dec.radii) - want)) < 1e-10
    assert np.sum(dec.radii**2) == pytest.approx(1.0, abs=1e-12)


def test_circle_decomposition_reads_a_given_jet():
    Y = catalog.cylinder(catalog.corollary_immersion())
    pts = Y.grid(3)
    direct = catalog.circle_decomposition(Y, pts)
    given = catalog.circle_decomposition(Y, jet=Y.jets(pts, 4))
    assert np.array_equal(given.radii, direct.radii)
    assert np.array_equal(given.frequencies, direct.frequencies)


def test_circle_decomposition_requires_constant_moduli():
    Y = catalog.cylinder(catalog.s5_surface())
    with pytest.raises(ValueError, match="modulus is not constant"):
        catalog.circle_decomposition(Y)


def test_s5_cylinder_circle_form_radii():
    Y = catalog.cylinder(catalog.s5_surface())
    q3 = catalog.S5_CYL_TRANSFORM_2 @ catalog.S5_CYL_TRANSFORM_1
    assert np.max(np.abs(q3 @ q3.T - np.eye(3))) < 1e-14
    tilde = catalog.precompose_linear(Y, q3.T)
    dec = catalog.circle_decomposition(tilde, basis=catalog.S5_CYL_BASIS)
    assert np.max(np.abs(np.sort(dec.radii) - np.sort([1 / SQ2, 0.5, 0.5]))) < 1e-10
    # single frequency per circle after the displayed change of variables
    assert np.max(np.abs(dec.frequencies - np.diag(np.diag(dec.frequencies)))) < 1e-10


def test_t4_transforms_are_orthogonal_and_diagonalize():
    q4 = catalog.T4_TRANSFORM_2 @ catalog.T4_TRANSFORM_1
    assert np.max(np.abs(q4 @ q4.T - np.eye(4))) < 1e-14
    Y = catalog.cylinder(catalog.corollary_immersion())
    tilde = catalog.precompose_linear(Y, q4.T)
    dec = catalog.circle_decomposition(tilde, per_axis=3)
    offdiag = dec.frequencies - np.diag(np.diag(dec.frequencies))
    assert np.max(np.abs(offdiag)) < 1e-10
    assert np.max(np.abs(np.sort(np.abs(np.diag(dec.frequencies))) - np.sort([SQ6, SQ6, SQ6, SQ2]))) < 1e-10


def test_circle_product_invariant():
    with pytest.raises(ValueError, match="sum r\\^2"):
        catalog.CircleProduct(radii=np.array([0.5, 0.5]), frequencies=np.zeros((2, 1)))


def test_unitary_validation():
    with pytest.raises(ValueError, match="Hermitian-orthonormal"):
        catalog.validate_unitary(np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex))


def test_helix_vector_conditions():
    vecs = catalog.helix_vectors(0.5)
    assert catalog.validate_helix_vectors(vecs, 0.5) == []
    bad = vecs.copy()
    bad[3] = np.eye(6)[4]  # J e_1 direction: breaks <e_2, J e_4> and the balance
    msgs = catalog.validate_helix_vectors(bad, 0.5)
    assert msgs
    with pytest.raises(ValueError, match="conditions violated"):
        catalog.legendre_curve("helix", kappa1=0.5, vectors=bad)


def test_helix_vectors_validation_inputs():
    with pytest.raises(ValueError, match="curvature"):
        catalog.helix_vectors(1.5)
    with pytest.raises(ValueError, match="alpha_1"):
        catalog.helix_vectors(0.5, alpha_pair=(1.0, 1.0))
    with pytest.raises(ValueError, match="sign"):
        catalog.helix_vectors(0.5, sign=2)


def test_legendre_curve_kind_errors():
    with pytest.raises(ValueError, match="kappa1"):
        catalog.legendre_curve("helix")
    with pytest.raises(ValueError, match="kind"):
        catalog.legendre_curve("spiral")


def test_remark_alpha_constraint():
    # alpha_1^2 + alpha_2^2 = 1 - B^2/A^2 = 2 kappa_1 / A^2
    kappa1 = 0.5
    A2 = 1 + kappa1
    a1, a2 = math.sqrt(2 * kappa1 / A2), 0.0
    vecs = catalog.helix_vectors(kappa1, alpha_pair=(a1, a2))
    assert catalog.validate_helix_vectors(vecs, kappa1) == []


def test_precompose_linear_shape_check():
    F = catalog.s5_surface()
    with pytest.raises(ValueError, match="shape"):
        catalog.precompose_linear(F, np.eye(3))


def test_coordinate_curve_dimensions():
    F = catalog.corollary_immersion()
    c = catalog.coordinate_curve(F, 1, [0.1, 0.2, 0.3])
    assert c.m == 1
    s = np.array([[0.0], [0.5]])
    vals = c.values(s)
    direct = F.values(np.array([[0.1, 0.0, 0.3], [0.1, 0.5, 0.3]]))
    assert np.max(np.abs(vals - direct)) < 1e-14
    with pytest.raises(ValueError, match="dimension"):
        catalog.coordinate_curve(F, 0, [0.1, 0.2])


def test_minus4_index_validation():
    with pytest.raises(ValueError, match="1, 2 or 3"):
        catalog.minus4_immersion(4)
