"""Oracles and fixtures of the tests: code that no ``sasakian`` command runs.

``SasakianSphere`` (structure tensors and curvature of the deformed sphere),
the matrix form of the eigen-criterion (the second evaluation path of
``shape_algebra.expanded_system_residual``), immersion fixtures (among
them the constructions the catalog does not build: flat tori rotated into a
unitary basis, and the Legendre helices of either sign and any alpha pair,
with the checks of their data), jet helpers (constants, sqrt and reciprocal)
and the closure check of a curve's Frenet frame.  The tests import this
module as ``import oracles``: pytest puts ``tests/`` on ``sys.path``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from sasakian.ambient import _dot, complex_structure, phi0
from sasakian.catalog import trig_immersion
from sasakian.frenet import MAX_ORDER, frenet
from sasakian.immersion import ParametricImmersion, _connection, _connection_value, _dotj
from sasakian.jets import Jet, _nterms, _position
from sasakian.shape_algebra import MINUS4_EIGENVALUE, _fields

POINT_TOL = 1e-12
TANGENT_TOL = 1e-10
UNITARY_TOL = 1e-14


@dataclass(frozen=True)
class SasakianSphere:
    """S^{2n+1} with the (possibly deformed) Sasakian structure.

    ``a`` is the deformation parameter; a = 1 is the canonical structure.
    The phi-sectional curvature c = 4/a - 3 is always derived from ``a``.
    """

    n: int
    a: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not self.a > 0:
            raise ValueError("deformation parameter a must be positive")

    @classmethod
    def from_phi_sectional(cls, n: int, c: float) -> "SasakianSphere":
        if not c > -3:
            raise ValueError("phi-sectional curvature must exceed -3 on the sphere models")
        return cls(n=n, a=4.0 / (c + 3.0))

    @property
    def c(self) -> float:
        return 4.0 / self.a - 3.0

    @property
    def ambient_dim(self) -> int:
        return 2 * self.n + 2

    # -- input validation ------------------------------------------------

    def check_point(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != self.ambient_dim:
            raise ValueError(f"expected ambient dimension {self.ambient_dim}, got {z.shape[-1]}")
        err = np.abs(_dot(z, z) - 1.0)
        if np.any(err > POINT_TOL):
            raise ValueError(f"point is off the unit sphere by {float(np.max(err)):.3e}")
        return z

    def check_tangent(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        err = np.abs(_dot(v, z))
        if np.any(err > TANGENT_TOL):
            raise ValueError(f"vector is not tangent to the sphere: <v,z> = {float(np.max(err)):.3e}")
        return v

    # -- structure tensors -------------------------------------------------

    def eta0(self, z, v) -> np.ndarray:
        return _dot(v, -complex_structure(z))

    def xi(self, z) -> np.ndarray:
        z = self.check_point(z)
        return -complex_structure(z) / self.a

    def eta(self, z, v) -> np.ndarray:
        z = self.check_point(z)
        v = self.check_tangent(z, v)
        return self.a * self.eta0(z, v)

    def phi(self, z, v) -> np.ndarray:
        z = self.check_point(z)
        v = self.check_tangent(z, v)
        return phi0(z, v)

    def metric(self, z, u, v) -> np.ndarray:
        z = self.check_point(z)
        u = self.check_tangent(z, u)
        v = self.check_tangent(z, v)
        a = self.a
        return a * _dot(u, v) + a * (a - 1.0) * self.eta0(z, u) * self.eta0(z, v)

    def curvature(self, z, u, v, w) -> np.ndarray:
        """Curvature tensor R(u,v)w of the space form at constant c."""
        z = self.check_point(z)
        u = self.check_tangent(z, u)
        v = self.check_tangent(z, v)
        w = self.check_tangent(z, w)

        g = self.metric
        eta = self.eta
        xi = self.xi(z)
        pu, pv, pw = self.phi(z, u), self.phi(z, v), self.phi(z, w)
        c = self.c

        def sc(s, vec):
            return s[..., None] * vec

        first = sc(g(z, w, v), u) - sc(g(z, w, u), v)
        second = (
            sc(eta(z, w) * eta(z, u), v)
            - sc(eta(z, w) * eta(z, v), u)
            + sc(g(z, w, u) * eta(z, v), xi)
            - sc(g(z, w, v) * eta(z, u), xi)
            + sc(g(z, w, pv), pu)
            - sc(g(z, w, pu), pv)
            + 2.0 * sc(g(z, u, pv), pw)
        )
        return (c + 3.0) / 4.0 * first + (c - 1.0) / 4.0 * second

    def sectional_curvature(self, z, u, v) -> np.ndarray:
        """Sectional curvature of span{u, v} in the deformed metric."""
        guu = self.metric(z, u, u)
        gvv = self.metric(z, v, v)
        guv = self.metric(z, u, v)
        num = self.metric(z, self.curvature(z, u, v, v), u)
        return num / (guu * gvv - guv**2)


def random_point(space: SasakianSphere, rng: np.random.Generator, size=()) -> np.ndarray:
    z = rng.standard_normal(size + (space.ambient_dim,))
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def random_tangent(space: SasakianSphere, z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(z.shape)
    return v - np.sum(v * z, axis=-1, keepdims=True) * z


def trace_vector(params) -> np.ndarray:
    p = _fields(params)
    return np.array([p.lambda1 + p.lambda2 + p.lambda3, p.alpha + p.gamma, p.beta + p.delta])


def build_matrices(params) -> np.ndarray:
    """The three symmetric 3x3 shape operator matrices, stacked as (3, 3, 3)."""
    p = _fields(params)
    l1, l2, l3 = p.lambda1, p.lambda2, p.lambda3
    a, b, g, d = p.alpha, p.beta, p.gamma, p.delta
    A1 = np.diag([l1, l2, l3])
    A2 = np.array([[0.0, l2, 0.0], [l2, a, b], [0.0, b, g]])
    A3 = np.array([[0.0, 0.0, l3], [0.0, b, g], [l3, g, d]])
    return np.stack([A1, A2, A3])


def biharmonic_eigenvalue(c: float, n: int = 3) -> float:
    """k = (c(n+3) + 3n - 7)/4, the trace-vector eigenvalue for biharmonicity in dimension 2n + 1."""
    return (c * (n + 3) + 3 * n - 7) / 4.0


def eigen_criterion_residual(params, c: float, n: int = 3, k_override: float | None = None):
    """Residual r = (sum A_i^2) t - k t and the trace vector t."""
    mats = build_matrices(params)
    t = trace_vector(params)
    k = biharmonic_eigenvalue(c, n) if k_override is None else float(k_override)
    square_sum = np.einsum("aij,ajk->ik", mats, mats)
    return square_sum @ t - k * t, t


def minus4_criterion_residual(params) -> np.ndarray:
    """Residual of (sum A_i^2) t = 6 t, the (-4)-biharmonic criterion in S^7(1)."""
    r, _ = eigen_criterion_residual(params, c=1.0, k_override=MINUS4_EIGENVALUE)
    return r


def assert_proper_biharmonic(params, c_or_mode):
    """(sum A_i^2) t = k t holds to 1e-10 relative to max(1, |t|), with |t| >= 1e-10 and k > 0."""
    if c_or_mode == "minus4":
        k, r, t = MINUS4_EIGENVALUE, minus4_criterion_residual(params), trace_vector(params)
    else:
        k, (r, t) = biharmonic_eigenvalue(c_or_mode), eigen_criterion_residual(params, c_or_mode)
    assert np.linalg.norm(r) / max(1.0, np.linalg.norm(t)) < 1e-10
    assert np.linalg.norm(t) >= 1e-10 and k > 0.0


def random_unitary(size: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def validate_unitary(basis: np.ndarray) -> np.ndarray:
    basis = np.asarray(basis, dtype=complex)
    gram = basis @ basis.conj().T
    dev = float(np.max(np.abs(gram - np.eye(basis.shape[0]))))
    if dev > UNITARY_TOL:
        raise ValueError(f"basis rows are not Hermitian-orthonormal (|Gram - I| = {dev:.3e})")
    return basis


def rotated_torus(F: ParametricImmersion, basis: np.ndarray) -> ParametricImmersion:
    """A flat torus of ``catalog.flat_torus`` with circle k along row k of the unitary ``basis``.

    F has one wave per standard basis vector, amplitude the circle
    coefficient, so its circle decomposition in ``basis`` has F's radii.
    """
    coeff = np.diagonal(F.amplitudes).real
    return replace(F, amplitudes=coeff[:, None] * validate_unitary(basis))


def helix_vectors(kappa1: float, sign: int = 1, alpha_pair=None) -> np.ndarray:
    """Constant vectors e_1..e_4 in R^6 of a proper-biharmonic Legendre helix.

    ``sign`` selects between the two admissible constructions
    e_2 = -sign (B/A) J e_1 + alpha_1 f + alpha_2 J f,  e_4 = sign J e_3;
    ``catalog.helix_vectors`` is sign +1 with alpha = (sqrt(1 - B^2/A^2), 0).
    """
    if not 0.0 < kappa1 < 1.0:
        raise ValueError("helix curvature must lie in (0, 1)")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    A = math.sqrt(1.0 + kappa1)
    B = math.sqrt(1.0 - kappa1)
    if alpha_pair is None:
        alpha_pair = (math.sqrt(1.0 - B**2 / A**2), 0.0)
    a1, a2 = alpha_pair
    if abs(a1**2 + a2**2 - (1.0 - B**2 / A**2)) > 1e-12:
        raise ValueError("alpha_1^2 + alpha_2^2 must equal 1 - B^2/A^2")
    e1 = np.array([1.0, 0, 0, 0, 0, 0])
    e3 = np.array([0, 0, 1.0, 0, 0, 0])
    e2 = np.array([0.0, a1, 0.0, -sign * B / A, a2, 0.0])
    e4 = np.array([0, 0, 0, 0, 0, float(sign)])
    return np.stack([e1, e2, e3, e4])


def validate_helix_vectors(vectors: np.ndarray, kappa1: float) -> list[str]:
    """Orthonormality and J-compatibility conditions; returns violated ones."""
    A = math.sqrt(1.0 + kappa1)
    B = math.sqrt(1.0 - kappa1)
    e = np.asarray(vectors, dtype=float)
    bad = []
    gram = e @ e.T
    if np.max(np.abs(gram - np.eye(4))) > 1e-12:
        bad.append("e_1..e_4 are not orthonormal")
    J = complex_structure
    for i, j in [(0, 2), (0, 3), (1, 2), (1, 3)]:
        if abs(np.dot(e[i], J(e[j]))) > 1e-12:
            bad.append(f"<e_{i+1}, J e_{j+1}> != 0")
    balance = A * np.dot(e[0], J(e[1])) + B * np.dot(e[2], J(e[3]))
    if abs(balance) > 1e-12:
        bad.append("A<e_1, J e_2> + B<e_3, J e_4> != 0")
    return bad


def helix_terms(kappa1: float, vectors) -> list:
    """``catalog.trig_immersion`` terms of the Legendre helix on the vectors e_1..e_4."""
    A, B = math.sqrt(1.0 + kappa1), math.sqrt(1.0 - kappa1)
    inv, q = 1.0 / math.sqrt(2.0), -math.pi / 2.0
    e1, e2, e3, e4 = vectors
    return [(inv, (A,), 0.0, e1), (inv, (A,), q, e2), (inv, (B,), 0.0, e3), (inv, (B,), q, e4)]


def legendre_helix(kappa1: float, sign: int = 1, alpha_pair=None, vectors=None) -> ParametricImmersion:
    """``catalog.legendre_helix`` on ``helix_vectors(kappa1, sign, alpha_pair)``.

    Given ``vectors`` replace those; they must satisfy ``validate_helix_vectors``.
    """
    vectors = helix_vectors(kappa1, sign, alpha_pair) if vectors is None else np.asarray(vectors, dtype=float)
    bad = validate_helix_vectors(vectors, kappa1)
    if bad:
        raise ValueError("helix vector conditions violated: " + "; ".join(bad))
    n = vectors.shape[1] // 2 - 1
    return trig_immersion(
        helix_terms(kappa1, vectors), m=1, n=n, name=f"legendre-helix:{kappa1:g}", sample_box=(2.0 * math.pi,)
    )


def great_circle(n: int = 3) -> ParametricImmersion:
    """Legendre great circle (geodesic) for negative controls."""
    dim = 2 * n + 2
    e1, e2 = np.eye(dim)[0], np.eye(dim)[1]
    terms = [(1.0, (1.0,), 0.0, e1), (1.0, (1.0,), -math.pi / 2.0, e2)]
    return trig_immersion(terms, m=1, n=n, name="great-circle", sample_box=(2.0 * math.pi,))


def jet(nvars: int, acc: int, coef) -> Jet:
    """A jet from term-last coefficients ``coef`` of shape (*lead, T), copied term-first."""
    return Jet._of(nvars, acc, np.array(np.moveaxis(np.asarray(coef, dtype=float), -1, 0), order="C"))


def constant(value, nvars: int, acc: int) -> Jet:
    """Jet of the constant function ``value`` (lead axes from its shape)."""
    value = np.asarray(value, dtype=float)
    rows = np.zeros((_nterms(nvars, acc),) + value.shape)
    rows[0] = value
    return Jet._of(nvars, acc, rows)


def variable(value, index: int, nvars: int, acc: int) -> Jet:
    """Jet of the coordinate function x_index evaluated at ``value``."""
    x = constant(value, nvars, acc)
    if acc >= 1:
        x.rows[_position(nvars, acc)[tuple(int(k == index) for k in range(nvars))]] = 1.0
    return x


def partial(f: Jet, multi_index) -> np.ndarray:
    """Mixed partial derivative of order ``multi_index`` (one entry per variable); lead axes pass through."""
    multi = tuple(multi_index)
    if sum(multi) > f.acc:
        raise ValueError(f"derivative order {sum(multi)} exceeds jet accuracy {f.acc}")
    return f.rows[_position(f.nvars, f.acc)[multi]] * math.prod(map(math.factorial, multi))


def _series(x: Jet, coeffs) -> Jet:
    """sum_k coeffs[k] * (x - value)^k by Horner."""
    tilde = x.rows.copy()
    tilde[0] = 0.0
    nil = Jet._of(x.nvars, x.acc, tilde)
    res = constant(np.broadcast_to(coeffs[-1], x.value.shape), x.nvars, x.acc)
    for k in range(len(coeffs) - 2, -1, -1):
        res = res * nil
        kc = res.rows.copy()
        kc[0] += coeffs[k]
        res = Jet._of(x.nvars, x.acc, kc)
    return res


def jet_sqrt(x: Jet) -> Jet:
    """Jet of sqrt of the function; its value part must be positive."""
    a0 = x.value
    if np.any(a0 <= 0.0):
        raise ValueError("jet sqrt requires a strictly positive value part")
    coeffs = [math.comb(2 * k, k) * (-1) ** (k + 1) / (4**k * (2 * k - 1)) for k in range(x.acc + 1)]
    return _series(x * (1.0 / a0), coeffs) * np.sqrt(a0)


def jet_reciprocal(x: Jet) -> Jet:
    """Jet of 1 / the function; its value part must be nonzero."""
    a0 = x.value
    if np.any(a0 == 0.0):
        raise ValueError("jet reciprocal requires a nonzero value part")
    coeffs = [(-1.0) ** k for k in range(x.acc + 1)]
    return _series(x * (1.0 / a0), coeffs) * (1.0 / a0)


def frenet_closure(curve: ParametricImmersion, s_grid) -> tuple[float, float]:
    """(closure residual, frame orthonormality) of the Frenet frame of an arc-length curve.

    The closure residual is max |nabla_T E_r + kappa_{r-1} E_{r-1}| over the
    grid, at the detected order r.  E_r comes from a frame of jets of
    accuracy 1 (Gram-Schmidt of the covariant ladder, normalised with
    ``jet_sqrt`` and ``jet_reciprocal``), the rest from ``frenet``'s value
    frame; the orthonormality is max |<E_i, E_j> - delta_ij| of that frame.
    Both are 0.0 below order 2.
    """
    app = frenet(curve, s_grid)
    if app.order < 2:
        return 0.0, 0.0
    X = curve.jets(np.asarray(s_grid, dtype=float).reshape(-1, 1), MAX_ORDER + 1)
    T = X.deriv(0)
    rung, jet_frame = T, []
    for j in range(app.order):
        if j:
            rung = _connection(rung, 0, T, X)
        w = rung.truncate(1)
        for e in jet_frame:
            w = w - _dotj(w, e) * e
        jet_frame.append(w * jet_reciprocal(jet_sqrt(_dotj(w, w))))
    dEr = _connection_value(jet_frame[-1], 0, T.value, X.value)
    closure = float(np.max(np.abs(dEr + app.curvatures[-1][:, None] * app.frame[-2])))
    frame = np.stack(app.frame, 1)
    gram = np.einsum("nid,njd->nij", frame, frame)
    return closure, float(np.max(np.abs(gram - np.eye(app.order))))
