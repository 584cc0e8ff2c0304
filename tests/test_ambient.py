import numpy as np
import pytest

import oracles
from sasakian.ambient import complex_structure

CS = [-2.0, 5.0 / 9.0, 1.0, 7.0]


def test_complex_structure_basic():
    assert np.allclose(complex_structure([1.0, 0.0, 0.0, 0.0]), [0.0, 0.0, 1.0, 0.0])
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(complex_structure(complex_structure(v)), -v)


def test_complex_structure_preserves_norm():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((50, 8))
    assert np.allclose(np.linalg.norm(complex_structure(v), axis=-1), np.linalg.norm(v, axis=-1))


def test_xi_canonical_at_pole():
    space = oracles.SasakianSphere(n=1)
    assert np.allclose(space.xi([1.0, 0.0, 0.0, 0.0]), [0.0, 0.0, -1.0, 0.0])


def test_xi_deformed_scaling():
    space = oracles.SasakianSphere(n=1, a=4.0)
    assert space.c == pytest.approx(-2.0)
    assert np.allclose(space.xi([1.0, 0.0, 0.0, 0.0]), [0.0, 0.0, -0.25, 0.0])


def test_xi_has_unit_length():
    rng = np.random.default_rng(1)
    for a in [1.0, 4.0, 9.0]:
        space = oracles.SasakianSphere(n=3, a=a)
        z = oracles.random_point(space, rng, (40,))
        xi = space.xi(z)
        assert np.max(np.abs(space.metric(z, xi, xi) - 1.0)) < 1e-10


def test_phi_hand_example():
    space = oracles.SasakianSphere(n=1)
    out = space.phi([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])
    assert np.allclose(out, [0.0, 0.0, 0.0, 1.0])


def test_phi_kills_xi_direction():
    rng = np.random.default_rng(2)
    space = oracles.SasakianSphere(n=2)
    z = oracles.random_point(space, rng, (20,))
    xi0 = -complex_structure(z)
    assert np.max(np.abs(space.phi(z, xi0))) < 1e-12


def test_eta_hand_example():
    space = oracles.SasakianSphere(n=1)
    assert space.eta([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0]) == pytest.approx(1.0)


def test_metric_reduces_to_euclidean_at_a1():
    rng = np.random.default_rng(3)
    space = oracles.SasakianSphere(n=3)
    z = oracles.random_point(space, rng, (30,))
    u = oracles.random_tangent(space, z, rng)
    v = oracles.random_tangent(space, z, rng)
    assert np.max(np.abs(space.metric(z, u, v) - np.sum(u * v, axis=-1))) < 1e-12


@pytest.mark.parametrize("c", CS)
def test_structure_identities(c):
    # phi^2 = -I + eta (x) xi, eta(xi) = 1, metric compatibility with phi
    rng = np.random.default_rng(hash(c) % 2**32)
    space = oracles.SasakianSphere.from_phi_sectional(3, c)
    z = oracles.random_point(space, rng, (100,))
    u = oracles.random_tangent(space, z, rng)
    v = oracles.random_tangent(space, z, rng)

    xi = space.xi(z)
    assert np.max(np.abs(space.eta(z, xi) - 1.0)) < 1e-10

    lhs = space.phi(z, space.phi(z, v))
    rhs = -v + space.eta(z, v)[..., None] * xi
    assert np.max(np.abs(lhs - rhs)) < 1e-10

    lhs = space.metric(z, space.phi(z, u), space.phi(z, v))
    rhs = space.metric(z, u, v) - space.eta(z, u) * space.eta(z, v)
    assert np.max(np.abs(lhs - rhs)) < 1e-10

    assert np.max(np.abs(space.eta(z, space.phi(z, v)))) < 1e-10


def test_curvature_constant_curvature_at_c1():
    rng = np.random.default_rng(5)
    space = oracles.SasakianSphere(n=3)
    z = oracles.random_point(space, rng, (25,))
    u = oracles.random_tangent(space, z, rng)
    v = oracles.random_tangent(space, z, rng)
    w = oracles.random_tangent(space, z, rng)
    got = space.curvature(z, u, v, w)
    want = np.sum(w * v, axis=-1)[..., None] * u - np.sum(w * u, axis=-1)[..., None] * v
    assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("c", CS)
def test_curvature_symmetries_and_bianchi(c):
    rng = np.random.default_rng(17)
    space = oracles.SasakianSphere.from_phi_sectional(3, c)
    z = oracles.random_point(space, rng, (25,))
    u = oracles.random_tangent(space, z, rng)
    v = oracles.random_tangent(space, z, rng)
    w = oracles.random_tangent(space, z, rng)
    x = oracles.random_tangent(space, z, rng)

    anti = space.curvature(z, u, v, w) + space.curvature(z, v, u, w)
    assert np.max(np.abs(anti)) < 1e-10

    bianchi = (
        space.curvature(z, u, v, w) + space.curvature(z, v, w, u) + space.curvature(z, w, u, v)
    )
    assert np.max(np.abs(bianchi)) < 1e-10

    skew = space.metric(z, space.curvature(z, u, v, w), x) + space.metric(
        z, space.curvature(z, u, v, x), w
    )
    assert np.max(np.abs(skew)) < 1e-10


@pytest.mark.parametrize("c", CS)
def test_phi_sectional_curvature_is_c(c):
    rng = np.random.default_rng(23)
    space = oracles.SasakianSphere.from_phi_sectional(3, c)
    z = oracles.random_point(space, rng, (20,))
    u = oracles.random_tangent(space, z, rng)
    # make u orthogonal to xi in the deformed metric and unit for g
    xi = space.xi(z)
    u = u - space.eta(z, u)[..., None] * xi
    u = u / np.sqrt(space.metric(z, u, u))[..., None]
    K = space.sectional_curvature(z, u, space.phi(z, u))
    assert np.max(np.abs(K - c)) < 1e-10


def test_c_derived_exactly():
    for a in [0.5, 1.0, 2.0, 4.0, 9.0]:
        space = oracles.SasakianSphere(n=2, a=a)
        assert space.c == 4.0 / a - 3.0
    assert oracles.SasakianSphere(n=2, a=1.0).c == 1.0


def test_point_and_tangent_validation():
    space = oracles.SasakianSphere(n=1)
    with pytest.raises(ValueError, match="off the unit sphere"):
        space.xi([1.1, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="not tangent"):
        space.phi([1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
