"""Solvers for the flat and curve-times-sphere classification systems.

The four-equation flat system in (lam, alpha, gamma, delta) is reduced by the
substitution alpha = omega * gamma to a polynomial p in omega of degree six on
each branch, delta = 0 and delta > 0.  With b = (c+3)/4 and k the criterion
eigenvalue, both factor exactly:

    delta_zero: -(6b+k) (w-2)^2 (b w^2 + k w + 3b - k) (3b w^2 + 2(k-b) w + 3b - 2k)
    delta_pos:  -(6b+k) (w-2)^2 (b w^2 + (2b+k) w + 3b) (2b w^2 + (2b+k) w + 2b)

so the real roots are the double root omega = 2 and the roots of four
quadratics.  Their discriminants are d2, 4 d1, d1 and d2 in that order, with
d1 = k^2 + 4bk - 8b^2 and d2 = (k - 2b)(k + 6b).  The sub-family
alpha = -gamma (omega = -1), where the substitution degenerates, is solved
from the quadratic 3 L^2 - (2b + k) L + b^2 in L = lam^2, of discriminant
d1; omega = -1 is a root of p exactly when k = 2b.  The curve x sphere
solutions (Case II) take their lam^2 from the same quadratic.

Each root is kept exactly, as a root of a quadratic with integer
coefficients built from the binary fraction c, and each admissibility test
is the sign of an integer expression: cleared of its positive denominators
and reduced modulo its factor, a test is the sign of a linear form
r0 + r1 omega, r0 and r1 in Z[b, k] (``_admissibility_forms``).  No
tolerance decides a root; a rejected root keeps the test it fails as a tag.
Conversely each expanded equation, cleared of its denominators, vanishes
modulo every factor, so every admissible root solves the system, and
``system_residual`` is a measurement, not a test.

The reduction is complete.  Equation 4 reads gamma (gamma - alpha) =
b + lam^2 > 0, so gamma != 0.  gamma > 0 would need gamma > alpha, against
admissibility (alpha > 2 gamma); so gamma < 0, omega = alpha / gamma exists,
and alpha > 0 makes omega < 0.  The denominators (w-1), (w-2) and (w-3)
cleared to form p therefore never vanish at an admissible solution, and every
admissible solution is the closed-form family or a root of p on its branch.
At a root omega < 0, gamma^2 > 0, alpha > 0, alpha > 2 gamma and delta >= 0
hold outright, and delta^2 > 0 on delta_pos unless omega = -1 (k = 2b).
Each coefficient of a branch polynomial or factor is its exact rational, and
each root and tuple entry its 40-digit value, rounded once to a float.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from typing import NamedTuple

from . import shape_algebra as sa

_EXACT = Context(prec=40)
BRANCHES = ("delta_zero", "delta_pos")


class SolutionTuple(NamedTuple):
    """An admissible (lam, alpha, gamma, delta) of a flat classification system."""

    lam: float
    alpha: float
    gamma: float
    delta: float
    case: str = "FlatI"
    c: float = 1.0
    mode: str = "biharmonic"
    omega: float | None = None
    source: str = "omega_reduction"

    @property
    def b(self) -> float:
        return (self.c + 3.0) / 4.0

    @property
    def k(self) -> float:
        """The criterion eigenvalue: ``biharmonic_eigenvalue(c)``, or ``MINUS4_EIGENVALUE`` in mode minus4."""
        return sa.MINUS4_EIGENVALUE if self.mode == "minus4" else sa.biharmonic_eigenvalue(self.c)

    def operators(self) -> sa.AdaptedShapeOperators:
        return sa.AdaptedShapeOperators.case_I(self.lam, self.alpha, self.gamma, self.delta, self.b)

    @property
    def system_residual(self) -> float:
        """Norm of the expanded system at the rounded tuple: a measurement, which no decision reads."""
        arg = "minus4" if self.mode == "minus4" else self.c
        v = sa.expanded_system_residual(self.operators(), arg)
        try:
            return math.sqrt(math.fsum(x * x for x in v))
        except OverflowError:  # finite squares whose sum passes the largest float
            return math.inf


class RejectedRoot(NamedTuple):
    omega: float
    reason: str


class ReductionTrace(NamedTuple):
    omega_branch: str
    polynomial: tuple[float, ...]
    factors: tuple[tuple[float, float, float], ...] = ()
    roots: tuple[tuple[float, int], ...] = ()
    accepted: tuple[float, ...] = ()
    rejected: tuple[RejectedRoot, ...] = ()
    notes: tuple[str, ...] = ()


class CaseIISolution(NamedTuple):
    """Curve x sphere factor data: helix curvatures and sphere radius."""

    subcase: str
    c: float
    lam: float | None
    kappa1: float
    kappa2: float
    radius: float


# ----------------------------------------------------------------------
# the exact system and its roots
# ----------------------------------------------------------------------

class System(NamedTuple):
    """The integers of a system: b = B/e, k = K/e, d1 = D1/e^2 and d2 = D2/e^2."""

    B: int
    K: int
    e: int
    D1: int
    D2: int

    def decimals(self) -> tuple[Decimal, Decimal]:
        """(b, k) to 40 digits."""
        with localcontext(_EXACT):
            return Decimal(self.B) / self.e, Decimal(self.K) / self.e


def _exact_system(c_or_mode) -> System:
    """The ``System`` of the exact input, with D1 = K^2 + 4BK - 8B^2 and D2 = (K - 2B)(K + 6B).

    A float c is the binary fraction n/d, so b = (n + 3d)/4d and, in
    biharmonic mode, k = (3c+1)/2 = (6n + 2d)/4d.  Then k - 2b = c - 1 and
    d1 = (13c^2 + 14c - 11)/4, whose roots are irrational, so D1 != 0.
    """
    if c_or_mode == "minus4":
        B, K, e = 1, int(sa.MINUS4_EIGENVALUE), 1
    else:
        n, d = float(c_or_mode).as_integer_ratio()
        B, K, e = n + 3 * d, 6 * n + 2 * d, 4 * d
    return System(B, K, e, K * K + 4 * B * K - 8 * B * B, (K - 2 * B) * (K + 6 * B))


class ExactRoot(NamedTuple):
    """The root (-q1 + s sqrt D)/(2 q2) of q0 + q1 x + q2 x^2, integers with q2 > 0.

    D is q1^2 - 4 q0 q2; s is -1 or 1, and 0 where D = 0.
    """

    q: tuple[int, int, int]
    D: int
    s: int

    def sign(self, r0: int, r1: int) -> int:
        """The sign of r0 + r1 x at the root, that of x0 + x1 sqrt D with x0 = 2 q2 r0 - q1 r1 and x1 = s r1."""
        x0, x1 = 2 * self.q[2] * r0 - self.q[1] * r1, self.s * r1
        s0, s1 = (x0 > 0) - (x0 < 0), (x1 > 0) - (x1 < 0)
        if s0 * s1 >= 0:
            return s0 or s1
        t = x0 * x0 - x1 * x1 * self.D
        return s0 * ((t > 0) - (t < 0))


def _quadratic_roots(q, D):
    """The real roots of the ``ExactRoot`` quadratic q of discriminant D, ascending, as (x, multiplicity, root).

    x is the root to 40 digits; call it in the 40-digit context.
    """
    if D < 0:
        return []
    if D == 0:
        return [(Decimal(-q[1]) / (2 * q[2]), 2, ExactRoot(q, 0, 0))]
    t = -(q[1] + Decimal(D).sqrt().copy_sign(q[1])) / 2
    lo, hi = sorted((t / q[2], q[0] / t))
    return [(lo, 1, ExactRoot(q, D, -1)), (hi, 1, ExactRoot(q, D, 1))]


# ----------------------------------------------------------------------
# the branch polynomials and their exact factorisation
# ----------------------------------------------------------------------

def _branch_factors(branch: str, b, k):
    """Ascending coefficients of the two quadratic factors of a branch polynomial."""
    if branch == "delta_zero":
        return (3 * b - k, k, b), (3 * b - 2 * k, 2 * (k - b), 3 * b)
    if branch == "delta_pos":
        return (3 * b, 2 * b + k, b), (2 * b, 2 * b + k, 2 * b)
    raise ValueError(f"unknown branch {branch!r}")


def _quotient(num: int, den: int) -> float:
    """num / den rounded once; +-inf where it passes the float range (|c| beyond about 1e102)."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _branch_trace(branch: str, system: System):
    """(polynomial, factors) of a branch, ascending, every exact coefficient rounded once to a float.

    The factors are q/e and the polynomial -(6b+k) (w-2)^2 q1 q2 is P/e^3
    for integer coefficients q and P, which Python's int / int rounds once.
    """
    B, K, e = system.B, system.K, system.e
    factors = _branch_factors(branch, B, K)
    p = [-(6 * B + K) * x for x in (4, -4, 1)]
    for q in factors:
        out = [0] * (len(p) + 2)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        p = out
    return tuple(_quotient(x, e**3) for x in p), tuple(tuple(_quotient(x, e) for x in q) for q in factors)


def isolate_real_roots(branch: str, system: System):
    """The distinct real roots of a branch polynomial, ascending, as (omega, multiplicity, ``ExactRoot``).

    omega is the root to 40 digits: the double root 2, or a root of a factor,
    of discriminant D2 or 4 D1 on delta_zero and D1 or D2 on delta_pos.
    """
    discs = (system.D2, 4 * system.D1, 0) if branch == "delta_zero" else (system.D1, system.D2, 0)
    found = {}
    with localcontext(_EXACT):
        for q, D in zip(_branch_factors(branch, system.B, system.K) + ((4, -4, 1),), discs):
            for w, mult, root in _quadratic_roots(q, D):
                known = found.get(w, (0, root))
                found[w] = (known[0] + mult, known[1])
    return tuple((w, mult, root) for w, (mult, root) in sorted(found.items()))


def _lambda_squares(system: System):
    """The real roots L = lam^2 of 3 L^2 - (2b + k) L + b^2, ascending, as (L, ``ExactRoot``).

    The exact root is that of 3 X^2 - (2B + K) X + B^2 in X = e L, of
    discriminant D1.  This is the alpha = -gamma family's equation and the
    Case II quartic 3 lam^4 - 2(c+1) lam^2 + b^2, as 2b + k = 2(c+1).
    """
    B, K, e = system.B, system.K, system.e
    with localcontext(_EXACT):
        return [(X / e, root) for X, _, root in _quadratic_roots((B * B, -(2 * B + K), 3), system.D1)]


# ----------------------------------------------------------------------
# the admissibility tests, decided by exact signs
# ----------------------------------------------------------------------

def _admissibility_forms(branch: str, b, k):
    """Per factor of a branch, the forms (r0, r1) of the tests of ``_violation``, of their signs at a root w < 0.

    With the squares of ``_branch_squares`` the tests read lam^2, b - lam^2,
    (b - lam^2)^2 - w^2 gamma^2 lam^2, w^2 gamma^2 - delta^2 and 3 lam^2 - b.
    Each is cleared of its denominators, whose signs are fixed for w < 0; its
    pseudo-remainder modulo the factor, whose leading coefficient is
    positive, is r0 + r1 w times a positive polynomial in b and k.  The form
    (1, 0) holds outright: delta = 0 on delta_zero.
    """
    if branch == "delta_zero":
        alpha = (
            222 * b**4 + 359 * b**3 * k - 29 * b**2 * k**2 - 38 * b * k**3 - 4 * k**4,
            -(706 * b**4 + 277 * b**3 * k - 105 * b**2 * k**2 - 46 * b * k**3 - 4 * k**4),
        )
        return (
            ((3, -1), (k, -4 * b - k), (1, -3), (1, 0), (6 * b - k, 2 * b + k)),
            ((3 * b + k, -5 * b - k), (12 * b + k, -8 * b - k), alpha, (1, 0), (k - 6 * b, -2 * b - k)),
        )
    alpha0 = (-b * (38 * b + 9 * k), -(22 * b * b + 19 * b * k + 3 * k * k))
    alpha1 = (
        -2 * b * (24 * b**3 - 12 * b * b * k - 8 * b * k * k - k**3),
        -(4 * b + k) * (24 * b**3 - 6 * b * k * k - k**3),
    )
    return (
        ((1, -1), (-2 * b, -4 * b - k), alpha0, (-2, -3), (4 * b, 2 * b + k)),
        ((-2 * b, -4 * b - k), (1, -1), alpha1, (-2, -3), (-4 * b, -2 * b - k)),
    )


def _family_forms(b, k):
    """The forms of ``_violation`` in L = lam^2 for the alpha = -gamma family, modulo 3 L^2 - (2b + k) L + b^2.

    L > 0 as k > 0, alpha = -gamma > 0 = delta, and alpha <= lambda1 reads L^2 - 5bL + 2b^2 >= 0.
    """
    return (1, 0), (b, -1), (5 * b * b, k - 13 * b), (1, 0), (-b, 3)


def _violation(root: ExactRoot, forms) -> str | None:
    """The reason of the first test that fails at the root, else None.

    The tests are lam^2 > 0, lam^2 < b, alpha <= lambda1, delta <= alpha and
    lam^2 != b/3; each passes where the sign of its form is one listed here.
    """
    tests = (
        ("lambda^2 nonpositive in the reduction", (1,)),
        ("lambda must satisfy -sqrt(c+3)/2 < lambda < 0", (1,)),
        ("alpha exceeds lambda1 = (lambda^2 - (c+3)/4)/lambda", (0, 1)),
        ("alpha must be >= delta", (0, 1)),
        ("lambda^2 equals (c+3)/12 (minimal locus, excluded)", (-1, 1)),
    )
    return next((reason for (reason, passing), form in zip(tests, forms) if root.sign(*form) not in passing), None)


# ----------------------------------------------------------------------
# the admissible tuples
# ----------------------------------------------------------------------

def _branch_squares(branch: str, w, b, k):
    """(lam^2, gamma^2, delta^2) of the closed-form reduction at omega = w."""
    m = 6 * b + k
    if branch == "delta_zero":
        D = (w - 2) * (w - 3)
        return m * (1 - w) / D - b, m / D, 0
    return -m * w / ((w - 1) * (w - 2)) - b, m * w / ((w - 1) ** 2 * (w - 2)), m * (w + 1) ** 2 / (w - 1) ** 2


def _flat_tuple(branch, w, b, k, c, mode) -> SolutionTuple:
    """The tuple at an admissible root omega = w < 0 given to 40 digits, each entry its 40-digit value rounded once."""
    with localcontext(_EXACT):
        lam2, gam2, del2 = _branch_squares(branch, w, b, k)
        gamma = -gam2.sqrt()
        delta = float(del2.sqrt()) if branch == "delta_pos" else 0.0
        return SolutionTuple(float(-lam2.sqrt()), float(w * gamma), float(gamma), delta, c=c, mode=mode, omega=float(w))


def _alpha_eq_neg_gamma_family(system: System, b, c, mode):
    """The alpha = -gamma sub-family (omega = -1), solved in closed form.

    Equation 2 is automatic there; equation 4 pins gamma^2 = (b + lam^2)/2 and
    equation 1 factors into the minimal locus and the quadratic
    3 L^2 - (2b + k) L + b^2 in L = lam^2, whose discriminant is d1.
    """
    accepted, rejected = [], [RejectedRoot(-1.0, "lambda^2 = (c+3)/12 root is the minimal locus, excluded")]
    forms = _family_forms(system.B, system.K)
    for L, root in _lambda_squares(system):
        reason = _violation(root, forms)
        if reason is not None:
            rejected.append(RejectedRoot(-1.0, f"alpha=-gamma root lambda^2 = {float(L):.6g}: {reason}"))
            continue
        with localcontext(_EXACT):
            lam, gamma = float(-L.sqrt()), float(-((b + L) / 2).sqrt())
        accepted.append(SolutionTuple(lam, -gamma, gamma, 0.0, c=c, mode=mode, omega=-1.0, source="alpha_eq_neg_gamma"))
    return accepted, rejected


def _solve_flat_system(c_or_mode):
    mode = "minus4" if isinstance(c_or_mode, str) else "biharmonic"
    c = 1.0 if mode == "minus4" else float(c_or_mode)
    system = _exact_system(c_or_mode)
    if system.K <= 0:
        return [], []
    (b, k), B, K = system.decimals(), system.B, system.K

    solutions, fam_rejected = _alpha_eq_neg_gamma_family(system, b, c, mode)
    traces: list[ReductionTrace] = []
    for branch in BRANCHES:
        roots = isolate_real_roots(branch, system)
        forms = dict(zip(_branch_factors(branch, B, K), _admissibility_forms(branch, B, K)))
        accepted, rejected, notes = [], [], []
        if branch == "delta_zero":
            rejected.extend(fam_rejected)
            accepted.extend(s.omega for s in solutions)
            notes.append("omega = -1 family solved in closed form (substitution divides by alpha + gamma)")
        for w, _, root in roots:
            if root.sign(0, 1) >= 0:
                reason = "omega must be negative"
            elif system.D2 == 0 and root.sign(1, 1) == 0:
                # d2 = 0, so k = 2b (c = 1): omega = -1 is a root of every factor; the family covers it
                reason = "omega = -1 excluded from the rational reduction"
                if branch == "delta_pos":
                    reason = "delta not positive at omega = -1"
            else:
                reason = _violation(root, forms[root.q])
            if reason is not None:
                rejected.append(RejectedRoot(float(w), reason))
                continue
            solutions.append(_flat_tuple(branch, w, b, k, c, mode))
            accepted.append(solutions[-1].omega)
        trace = (*_branch_trace(branch, system), tuple((float(w), mult) for w, mult, _ in roots))
        traces.append(ReductionTrace(branch, *trace, tuple(accepted), tuple(rejected), tuple(notes)))

    solutions.sort(key=lambda s: (s.case, s.lam, s.alpha))
    return solutions, traces


def _finite(c) -> float:
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"phi-sectional curvature must be finite, got {c!r}")
    return c


def solve_flat(c: float):
    """All admissible flat proper-biharmonic tuples at phi-sectional curvature c.

    Returns (solutions, reduction traces).  Empty for c <= -1/3, where the
    criterion eigenvalue is nonpositive and no non-minimal solution exists.
    A non-finite c raises ValueError.
    """
    return _solve_flat_system(_finite(c))


def solve_minus4_flat():
    """All admissible flat (-4)-biharmonic tuples in the unit 7-sphere."""
    return _solve_flat_system("minus4")


def solve_caseII(c_or_mode: float | str) -> list[CaseIISolution]:
    """Curve x C-parallel-surface solutions at phi-sectional curvature c, or of the mode "minus4".

    Subcase II1 exists only at c = 5/9.  Subcase II2 has one solution per
    root L = lam^2 of ``_lambda_squares`` with 0 < L < b, decided by exact
    signs, and none where d2 = 0: at c = 1 the roots are b/3, the minimal
    locus, and b.  The roots are real from tau = (-7 + 8 sqrt 3)/13 on (d1
    vanishes at no float), and negative below c = -1.  lam = -sqrt L,
    kappa1 = (L - b)/lam and the radius 1/sqrt(L + b) are each their 40-digit
    value rounded once.  L - b, which cancels near c = 1, is Y/e for the root
    Y = e(L - b) of its own quadratic 3 Y^2 + (4B - K) Y + B(2B - K), the
    lam^2 quadratic shifted by B, of the same discriminant D1.  A non-finite
    c raises ValueError.
    """
    if c_or_mode == "minus4":
        c = 1.0
    else:
        c_or_mode = c = _finite(c_or_mode)
    out: list[CaseIISolution] = []
    if c_or_mode == 5.0 / 9.0:
        out.append(CaseIISolution("II1", c, None, math.sqrt(0.5), 1.0, math.sqrt(8.0 / (3.0 * (c + 3.0)))))

    system = _exact_system(c_or_mode)
    if system.D2 == 0:
        return out
    B, K, e = system.B, system.K, system.e
    b = system.decimals()[0]
    with localcontext(_EXACT):
        gaps = _quadratic_roots((B * (2 * B - K), 4 * B - K, 3), system.D1)
        for (L, root), (Y, _, _) in zip(_lambda_squares(system), gaps):
            if root.sign(0, 1) > 0 and root.sign(B, -1) > 0:
                lam = -L.sqrt()
                out.append(CaseIISolution("II2", c, float(lam), float(Y / e / lam), 1.0, float(1 / (L + b).sqrt())))
    return out


def curvature_tables(tup: SolutionTuple) -> dict[str, tuple[float, ...]]:
    """Frenet curvature lists of the three factor curves of a flat solution.

    Curvatures are reported positive (Gram-Schmidt normalization); the third
    curvature of the middle curve carries orientation sign -sign(lam) in the
    closed form, which is +1 for the admissible lam < 0.  Every solver tuple
    has alpha > 0 (module docstring), so the middle curve has three.
    """
    lam, alpha, gamma, delta = tup.lam, tup.alpha, tup.gamma, tup.delta
    b = tup.b
    L = lam * lam
    tables: dict[str, tuple[float, ...]] = {"X1": ((L - b) / lam, 1.0)}

    k1 = math.hypot(lam, alpha)
    tables["X2"] = (k1, alpha / k1 * math.sqrt(L + 1.0), abs(lam) * math.sqrt(L + 1.0) / k1)

    if delta > 0.0:
        k1 = math.sqrt(L + gamma * gamma + delta * delta)
        k2 = delta / k1 * math.sqrt(L + gamma * gamma + 1.0)
        tables["X3"] = (k1, k2, k2 * math.sqrt(L + gamma * gamma) / delta)
    else:
        tables["X3"] = (math.hypot(lam, gamma),)
    return tables
