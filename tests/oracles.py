"""Oracles and fixtures of the tests: code that no ``sasakian`` command runs.

``SasakianSphere`` (structure tensors and curvature of the deformed sphere),
the matrix form of the eigen-criterion (the second evaluation path of
``shape_algebra.expanded_system_residual``), the float constants (b, k) of
the classification systems, the residual of the Case II quartic and the
float admissibility path of a flat root (the float references of the exact
classifier), the field Q(sqrt D) (its exact reference), immersion fixtures (among
them the constructions the catalog does not build: flat tori rotated into a
unitary basis, and the Legendre helices of either sign and any alpha pair,
with the checks of their data), jet helpers (constants, sqrt and reciprocal),
the closure check of a curve's Frenet frame, and the paper's closed forms of
the flat tuples at c = 1 and in mode minus4, in floats or in mpmath.  The
tests import this module as ``import oracles``: pytest puts ``tests/`` on
``sys.path``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sasakian.ambient import complex_structure, connection, inner_jets, phi0
from sasakian.classifier import _branch_squares
from sasakian.catalog import trig_immersion
from sasakian.frenet import MAX_ORDER, frenet
from sasakian.immersion import ParametricImmersion
from sasakian.jets import Jet, _nterms, _position
from sasakian.shape_algebra import MINUS4_EIGENVALUE, AdaptedShapeOperators, _fields, expanded_system_residual

POINT_TOL = 1e-12
TANGENT_TOL = 1e-10
UNITARY_TOL = 1e-14
# the float admissibility path: the width of its bands, and the bound on the
# residual of an accepted float tuple, absolute, so meant for moderate |c|
CONSTRAINT_TOL = 1e-12
FLAT_RESIDUAL_TOL = 1e-10


def _dot(u, v):
    """The Euclidean inner product over the last axis."""
    return np.sum(u * v, axis=-1)


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


def corollary_tuple(sqrt=math.sqrt) -> tuple:
    """(lam, alpha, gamma, delta) of the unique proper-biharmonic flat solution at c = 1, the paper's closed form.

    ``sqrt`` sets the arithmetic: ``math.sqrt`` gives floats, ``mpmath.sqrt``
    the working precision of mpmath.
    """
    return (-1 / sqrt(5), 3 * sqrt(3) / sqrt(10), -sqrt(3) / sqrt(10), sqrt(2))


def minus4_tuples(sqrt=math.sqrt) -> tuple:
    """The three flat (-4)-biharmonic (lam, alpha, gamma, delta) in the unit 7-sphere, in the solver's order."""
    return (
        (-sqrt((4 - sqrt(13)) / 3), sqrt((7 - sqrt(13)) / 6), -sqrt((7 - sqrt(13)) / 6), 0.0),
        (-sqrt(1 / (5 + 2 * sqrt(3))), sqrt((45 + 21 * sqrt(3)) / 13), -sqrt(6 / (21 + 11 * sqrt(3))), 0.0),
        (
            -sqrt(1 / (6 + sqrt(13))),
            sqrt((523 + 139 * sqrt(13)) / 138),
            -sqrt((79 - 17 * sqrt(13)) / 138),
            sqrt((14 + 2 * sqrt(13)) / 3),
        ),
    )


# the closed forms in floats: the tests' oracle for the tuples the classifier solves
COROLLARY_TUPLE = corollary_tuple()
MINUS4_TUPLES = minus4_tuples()


def system_constants(c_or_mode):
    """(b, k) in floats, with b = (c+3)/4 and k the criterion eigenvalue."""
    if c_or_mode == "minus4":
        return 1.0, MINUS4_EIGENVALUE
    c = float(c_or_mode)
    return (c + 3.0) / 4.0, biharmonic_eigenvalue(c)


def quartic_lambda_residual(lam2: float, c: float) -> float:
    """Residual of 3 lam^4 - 2(c+1) lam^2 + (c+3)^2/16, the Case II equation, in floats."""
    b = (c + 3.0) / 4.0
    return 3.0 * lam2 * lam2 - 2.0 * (c + 1.0) * lam2 + b * b


def flat_admissibility(lam, alpha, gamma, delta, b) -> list[str]:
    """The flat admissibility constraints that a float tuple violates, each decided with a band of CONSTRAINT_TOL."""
    bad = []
    L = lam * lam
    lam1 = (L - b) / lam
    if not (lam < 0.0 and L < b):
        bad.append("lambda must satisfy -sqrt(c+3)/2 < lambda < 0")
    if not alpha > 0.0:
        bad.append("alpha must be positive")
    if alpha - lam1 > CONSTRAINT_TOL * max(1.0, abs(lam1)):
        bad.append("alpha exceeds lambda1 = (lambda^2 - (c+3)/4)/lambda")
    if delta < -CONSTRAINT_TOL:
        bad.append("delta must be nonnegative")
    if delta - alpha > CONSTRAINT_TOL * max(1.0, alpha):
        bad.append("alpha must be >= delta")
    if not alpha - 2.0 * gamma > 0.0:
        bad.append("alpha must exceed 2 gamma")
    if abs(L - b / 3.0) <= CONSTRAINT_TOL * max(1.0, b):
        bad.append("lambda^2 equals (c+3)/12 (minimal locus, excluded)")
    return bad


def float_flat_tuple(branch: str, w: float, c_or_mode):
    """The flat tuple at a float root omega = w of a branch, all in floats, or None where the float path rejects it.

    It rejects w >= 0, lam^2 or gamma^2 not positive, a violation of
    ``flat_admissibility``, and a residual of the expanded system above
    ``FLAT_RESIDUAL_TOL``.
    """
    b, k = system_constants(c_or_mode)
    lam2, gam2, del2 = _branch_squares(branch, w, b, k)
    if not (w < 0.0 and lam2 > 0.0 and gam2 > 0.0):
        return None
    lam, gamma, delta = -math.sqrt(lam2), -math.sqrt(gam2), math.sqrt(del2)
    if flat_admissibility(lam, w * gamma, gamma, delta, b):
        return None
    residual = expanded_system_residual(AdaptedShapeOperators.case_I(lam, w * gamma, gamma, delta, b), c_or_mode)
    return (lam, w * gamma, gamma, delta) if np.linalg.norm(residual) <= FLAT_RESIDUAL_TOL else None


@dataclass(frozen=True)
class Surd:
    """p + q sqrt(D) in the field Q(sqrt D): p and q fractions, D a nonnegative integer."""

    p: Fraction
    q: Fraction
    D: int

    def _lift(self, other) -> "Surd":
        return other if isinstance(other, Surd) else Surd(Fraction(other), Fraction(0), self.D)

    def __add__(self, other):
        other = self._lift(other)
        return Surd(self.p + other.p, self.q + other.q, self.D)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.p, -self.q, self.D)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        return Surd(self.p * other.p + self.q * other.q * self.D, self.p * other.q + self.q * other.p, self.D)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        norm = other.p * other.p - other.q * other.q * self.D
        return self * Surd(other.p / norm, -other.q / norm, self.D)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, n: int):
        out = self._lift(1)
        for _ in range(n):
            out = out * self
        return out

    def sign(self) -> int:
        sp, sq = (self.p > 0) - (self.p < 0), (self.q > 0) - (self.q < 0)
        if sq == 0 or self.D == 0:
            return sp
        if sp == 0 or sp == sq:
            return sq
        t = self.p * self.p - self.q * self.q * self.D
        return sp * ((t > 0) - (t < 0))

    def to_mpf(self, mp):
        p, q = (mp.mpf(x.numerator) / x.denominator for x in (self.p, self.q))
        return p + q * mp.sqrt(self.D)


def quadratic_root(c0, c1, c2, s: int, D) -> Surd:
    """The root (-c1 + s sqrt D)/(2 c2) of c0 + c1 x + c2 x^2, with D its discriminant or 0; all rational."""
    D = Fraction(D)
    # sqrt(n/d) = sqrt(n d)/d
    return Surd(Fraction(-c1) / (2 * c2), Fraction(s, 1) / (2 * c2 * D.denominator), D.numerator * D.denominator)


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
    return ParametricImmersion(coeff[:, None] * validate_unitary(basis), F.frequencies, F.phases, F.name, F.sample_box)


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
            rung = connection(rung.deriv(0), rung, T, X)
        w = rung.truncate(1)
        for e in jet_frame:
            w = w - inner_jets(w, e) * e
        jet_frame.append(w * jet_reciprocal(jet_sqrt(inner_jets(w, w))))
    dEr = connection(jet_frame[-1].deriv(0), jet_frame[-1], T, X).value
    closure = float(np.max(np.abs(dEr + app.curvatures[-1][:, None] * app.frame[-2])))
    frame = np.stack(app.frame, 1)
    gram = np.einsum("nid,njd->nij", frame, frame)
    return closure, float(np.max(np.abs(gram - np.eye(app.order))))
