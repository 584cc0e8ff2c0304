import numpy as np
import pytest

import oracles
from sasakian import ambient
from sasakian.ambient import complex_structure
from sasakian.immersion import ParametricImmersion

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


# The deformation parameters the runtime ambient is written for: the round
# sphere only.  A deformed ambient adds its a here, and these tests then check
# its connection and curvature term against the oracle at that a.
AMBIENT_A = (1.0,)


def _random_waves(space, m, rng):
    """A random plane-wave immersion into ``space``: circles of random radii and frequencies along a unitary basis."""
    radii = rng.uniform(0.5, 1.0, space.n + 1)
    return ParametricImmersion(
        amplitudes=(radii / np.linalg.norm(radii))[:, None] * oracles.random_unitary(space.n + 1, rng),
        frequencies=rng.standard_normal((space.n + 1, m)),
        phases=rng.uniform(0.0, 2.0 * np.pi, space.n + 1),
        name="random-waves",
        sample_box=(2.0 * np.pi,) * m,
    )


def _max_diff(a, b):
    return float(np.max(np.abs(a.rows - b.rows)))


@pytest.mark.parametrize("a", AMBIENT_A)
def test_curvature_term_matches_the_space_form_oracle(a):
    space = oracles.SasakianSphere(n=3, a=a)
    rng = np.random.default_rng(31)
    z = oracles.random_point(space, rng, (40,))
    tangents = np.stack([oracles.random_tangent(space, z, rng) for _ in range(3)], axis=1)
    tau = oracles.random_tangent(space, z, rng)
    got = -sum(ambient.curvature_terms(tangents, tau))
    want = -sum(space.curvature(z, tangents[:, i], tau, tangents[:, i]) for i in range(3))
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("a", AMBIENT_A)
@pytest.mark.parametrize("m", [2, 3])
def test_jet_connection_is_torsion_free(a, m):
    rng = np.random.default_rng(m)
    F = _random_waves(oracles.SasakianSphere(n=3, a=a), m, rng)
    X = F.jets(rng.uniform(0.0, 2.0 * np.pi, (20, m)), 3)
    T = [X.deriv(i) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            nabla_ij = ambient.connection(T[j].deriv(i), T[j], T[i], X)
            nabla_ji = ambient.connection(T[i].deriv(j), T[i], T[j], X)
            assert _max_diff(nabla_ij, nabla_ji) < 1e-12


@pytest.mark.parametrize("a", AMBIENT_A)
@pytest.mark.parametrize("m", [2, 3])
def test_jet_connection_is_metric_compatible_on_fields_orthogonal_to_F(a, m):
    # d_i g(U, V) = g(nabla_i U, V) + g(U, nabla_i V) for U, V orthogonal to F,
    # and nabla_i V stays tangent to the sphere: <nabla_i V, F> = 0 (Euclidean)
    space = oracles.SasakianSphere(n=3, a=a)
    rng = np.random.default_rng(10 + m)
    F = _random_waves(space, m, rng)
    X = F.jets(rng.uniform(0.0, 2.0 * np.pi, (20, m)), 3)
    T = [X.deriv(i) for i in range(m)]
    W = oracles.constant(rng.standard_normal(space.ambient_dim), m, 3)
    fields = T + [W - ambient.inner_jets(W, X) * X]  # the tangents and a projected constant
    for i in range(m):
        for U in fields:
            for V in fields:
                lhs = ambient.inner_jets(U, V).deriv(i)
                nabla_U = ambient.connection(U.deriv(i), U, T[i], X)
                nabla_V = ambient.connection(V.deriv(i), V, T[i], X)
                rhs = ambient.inner_jets(nabla_U, V) + ambient.inner_jets(U, nabla_V)
                assert _max_diff(lhs, rhs) < 1e-12
            assert float(np.max(np.abs((nabla_U * X).sum(axis=-2).rows))) < 1e-12


def test_jet_and_value_connection_and_normal_part_agree():
    rng = np.random.default_rng(41)
    m = 3
    F = _random_waves(oracles.SasakianSphere(n=3), m, rng)
    X = F.jets(rng.uniform(0.0, 2.0 * np.pi, (20, m)), 3)
    T = [X.deriv(i) for i in range(m)]
    tangents = np.stack([t.value for t in T], axis=1)
    # the tangents of a random immersion are not orthonormal: project onto F's normal space through an orthonormal frame
    frame = np.linalg.qr(tangents.transpose(0, 2, 1))[0].transpose(0, 2, 1)
    for i in range(m):
        V = T[(i + 1) % m]
        jet = ambient.connection(V.deriv(i), V, T[i], X)
        value = ambient.connection_values(V.deriv(i).value, V.value, tangents[:, i], X.value)
        assert np.max(np.abs(jet.value - value)) < 1e-13
        frame_jets = [oracles.constant(frame[:, k], m, 0) for k in range(m)]
        assert np.max(np.abs(ambient.normal(jet.truncate(0), frame_jets).value - ambient.normal_values(value, frame))) < 1e-13
