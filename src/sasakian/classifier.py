"""Solvers for the flat and curve-times-sphere classification systems.

The four-equation flat system in (lam, alpha, gamma, delta) is reduced by the
substitution alpha = omega * gamma to a polynomial p in omega of degree six on
each branch, delta = 0 and delta > 0.  With b = (c+3)/4 and k the criterion
eigenvalue, both factor exactly:

    delta_zero: -(6b+k) (w-2)^2 (b w^2 + k w + 3b - k) (3b w^2 + 2(k-b) w + 3b - 2k)
    delta_pos:  -(6b+k) (w-2)^2 (b w^2 + (2b+k) w + 3b) (2b w^2 + (2b+k) w + 2b)

so the real roots are the double root omega = 2 and the roots of four
quadratics.  Their discriminants are d2, 4 d1, d1 and d2 in that order, with
d1 = k^2 + 4bk - 8b^2 and d2 = (k - 2b)(k + 6b).  The roots, and each tuple
built from one, are computed from the exact value of the input c in 40-digit
decimal arithmetic and rounded once to floats.  The sub-family alpha = -gamma
(omega = -1), where the substitution degenerates, is solved in closed form;
omega = -1 is a root of p exactly when k = 2b.  Every candidate is filtered
through the admissibility constraints and re-validated against the expanded
scalar system; rejected roots keep the violated constraint as a tag.

The reduction is complete.  Equation 4 reads gamma (gamma - alpha) =
b + lam^2 > 0, so gamma != 0.  gamma > 0 would need gamma > alpha, against
admissibility (alpha > 2 gamma); so gamma < 0, omega = alpha / gamma exists,
and alpha > 0 makes omega < 0.  The denominators (w-1), (w-2) and (w-3)
cleared to form p therefore never vanish at an admissible solution, and every
admissible solution is the closed-form family or a root of p on its branch.

The per-command arithmetic is on Python floats, except two sums that numpy's
BLAS dot computes: the products of the reduction polynomials
(``np.convolve``, printed as ``reduction_traces[].polynomial``) and the norm
of the re-substituted system (``system_residual``, ``sqrt(v.dot(v))``, which
is what ``np.linalg.norm`` runs on a real vector).  A dot kernel may fuse
multiply-adds and order its sum as it likes, so these printed bits are
stable on one machine but not across BLAS builds: with scipy-openblas
0.3.31 on an AVX-512 CPU, the norm of 20,000 random 3-vectors equals the
square root of a left-to-right fused multiply-add chain in every case and
differs from a plain left-to-right sum of squares in 2,144, and
``np.convolve`` of random series of 2 to 5 terms differs from a plain
sequential sum of products in 76,821 of 200,000 draws.  Both stay numpy
calls, so the bits follow numpy's; only exact arithmetic would make them
independent of the BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from functools import cached_property

import numpy as np

from . import shape_algebra as sa

FLAT_RESIDUAL_TOL = 1e-10
CONSTRAINT_TOL = 1e-12
CASE_II_LOWER = (-7.0 + 8.0 * math.sqrt(3.0)) / 13.0
_EXACT = Context(prec=40)
BRANCHES = ("delta_zero", "delta_pos")


@dataclass(frozen=True)
class SolutionTuple:
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
    flags: tuple[str, ...] = ()

    @property
    def b(self) -> float:
        return (self.c + 3.0) / 4.0

    def operators(self) -> sa.AdaptedShapeOperators:
        return sa.AdaptedShapeOperators.case_I(self.lam, self.alpha, self.gamma, self.delta, self.b)

    @cached_property
    def system_residual(self) -> float:
        """Norm of the expanded system at the tuple; the solver's acceptance test and the report read it once."""
        arg = "minus4" if self.mode == "minus4" else self.c
        v = sa.expanded_system_residual(self.operators(), arg)
        return math.sqrt(float(v.dot(v)))


@dataclass(frozen=True)
class RejectedRoot:
    omega: float
    reason: str


@dataclass(frozen=True)
class ReductionTrace:
    omega_branch: str
    polynomial: tuple[float, ...]
    factors: tuple[tuple[float, float, float], ...] = ()
    roots: tuple[tuple[float, int], ...] = ()
    accepted: tuple[float, ...] = ()
    rejected: tuple[RejectedRoot, ...] = ()
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class CaseIISolution:
    """Curve x sphere factor data: helix curvatures and sphere radius."""

    subcase: str
    c: float
    lam: float | None
    kappa1: float
    kappa2: float
    radius: float
    flags: tuple[str, ...] = ()


# ----------------------------------------------------------------------
# the branch polynomials and their exact factorisation
# ----------------------------------------------------------------------

def _system_constants(c_or_mode):
    """(b, k) with b = (c+3)/4 and k the criterion eigenvalue."""
    if isinstance(c_or_mode, str):
        if c_or_mode != "minus4":
            raise ValueError(f"unknown mode {c_or_mode!r}")
        return 1.0, sa.MINUS4_EIGENVALUE
    c = float(c_or_mode)
    return (c + 3.0) / 4.0, sa.biharmonic_eigenvalue(c)


def _exact_system(c_or_mode):
    """(b, k, d1, d2) in 40-digit decimals, with d1 = k^2 + 4bk - 8b^2 and d2 = (k - 2b)(k + 6b).

    A float c is an exact binary fraction, so these are exact to 40 digits,
    more than the at most 17 that cancellation costs where a factor
    coefficient such as 3b - k = (7 - 3c)/4 nearly vanishes.  In biharmonic
    mode k = (3c+1)/2, so k - 2b = c - 1 and d1 = (13c^2 + 14c - 11)/4.  d1 is
    set to 0 at c = CASE_II_LOWER, the float that stands for its root
    (-7 + 8 sqrt 3)/13.
    """
    with localcontext(_EXACT):
        if c_or_mode == "minus4":
            b, k = Decimal(1), Decimal(sa.MINUS4_EIGENVALUE)
        else:
            c = Decimal(float(c_or_mode))
            b, k = (c + 3) / 4, (3 * c + 1) / 2
        d1 = Decimal(0) if c_or_mode == CASE_II_LOWER else k * k + 4 * b * k - 8 * b * b
        return b, k, d1, (k - 2 * b) * (k + 6 * b)


def _trim(p: list[float]) -> list[float]:
    """p without its trailing zero coefficients, but never shorter than one (numpy.polynomial's trimseq)."""
    if p[-1] != 0:
        return p
    n = len(p)
    while n > 1 and p[n - 1] == 0:
        n -= 1
    return p[:n]


# numpy.polynomial's polymul and polyadd for float64 series, on lists of floats;
# each trims its operands and result.  polysub(p, q) is _polyadd(p, -q), bit for
# bit.  Sums, scalings and negations are the same IEEE operations on floats as on
# float64 arrays (scaling by s is s * x, negation -x, in numpy's order); a product
# stays np.convolve (see the module docstring).
def _polymul(p: list[float], q: list[float]) -> list[float]:
    return _trim(np.convolve(_trim(p), _trim(q)).tolist())


def _polyadd(p: list[float], q: list[float]) -> list[float]:
    p, q = _trim(p), _trim(q)
    if len(p) > len(q):
        p, q = q, p
    return _trim([x + y for x, y in zip(q, p)] + q[len(p) :])


def _branch_polynomial(branch: str, b: float, k: float) -> list[float]:
    """Degree-<=6 polynomial in omega obtained by clearing denominators of eq 1."""
    m = 6.0 * b + k
    if branch == "delta_zero":
        D = [6.0, -5.0, 1.0]  # (w-2)(w-3)
        PL = _polyadd([m * 1.0, m * -1.0], [-b * d for d in D])  # m(1-w) - bD
        extra_scale = m
    elif branch == "delta_pos":
        D = [2.0, -3.0, 1.0]  # (w-1)(w-2)
        PL = _polyadd([0.0, -m], [-b * d for d in D])  # -m w - bD
        extra_scale = 2.0 * m
    else:
        raise ValueError(f"unknown branch {branch!r}")
    PL2 = _polymul(PL, PL)
    extra = [extra_scale * x for x in _polymul(PL2, [1.0, 2.0, 1.0])]
    s, bb = 2.0 * b + k, b * b
    quart = _polyadd(
        _polyadd([3.0 * x for x in PL2], [-(s * x) for x in _polymul(PL, D)]),
        [bb * x for x in _polymul(D, D)],
    )
    main = _polymul(_polyadd([3.0 * x for x in PL], [-(b * d) for d in D]), quart)
    return _polyadd(main, extra)


def _branch_factors(branch: str, b, k):
    """Ascending coefficients of the two quadratic factors of a branch polynomial."""
    if branch == "delta_zero":
        return (3 * b - k, k, b), (3 * b - 2 * k, 2 * (k - b), 3 * b)
    if branch == "delta_pos":
        return (3 * b, 2 * b + k, b), (2 * b, 2 * b + k, 2 * b)
    raise ValueError(f"unknown branch {branch!r}")


def _quadratic_roots(coeffs, disc):
    """Real roots, with multiplicity, of the decimal c0 + c1 x + c2 x^2 (c2 != 0) of discriminant disc."""
    c0, c1, c2 = coeffs
    if disc < 0:
        return []
    if disc == 0:
        return [(-c1 / (2 * c2), 2)]
    q = -(c1 + disc.sqrt().copy_sign(c1)) / 2
    return [(q / c2, 1), (c0 / q, 1)]


def isolate_real_roots(branch: str, system):
    """The distinct real roots of a branch polynomial, ascending, as (omega, multiplicity).

    ``system`` is ``_exact_system(c_or_mode)``, and each omega is a 40-digit
    decimal.  The roots are the double root omega = 2 and those of the two
    quadratic factors, whose discriminants are d2 and 4 d1 on delta_zero and
    d1 and d2 on delta_pos.
    """
    b, k, d1, d2 = system
    found = {Decimal(2): 2}
    with localcontext(_EXACT):
        discs = (d2, 4 * d1) if branch == "delta_zero" else (d1, d2)
        for coeffs, disc in zip(_branch_factors(branch, b, k), discs):
            for w, mult in _quadratic_roots(coeffs, disc):
                found[w] = found.get(w, 0) + mult
    return tuple(sorted(found.items()))


# ----------------------------------------------------------------------
# candidates of the reduction and their validation
# ----------------------------------------------------------------------

def _branch_squares(branch: str, w, b, k):
    """(lam^2, gamma^2, delta^2) of the closed-form reduction at omega = w."""
    m = 6 * b + k
    if branch == "delta_zero":
        D = (w - 2) * (w - 3)
        return m * (1 - w) / D - b, m / D, 0
    return -m * w / ((w - 1) * (w - 2)) - b, m * w / ((w - 1) ** 2 * (w - 2)), m * (w + 1) ** 2 / (w - 1) ** 2


def _admissibility(lam, alpha, gamma, delta, b):
    """Admissibility constraints of the flat case; returns (violations, boundary flags)."""
    bad, boundary = [], []
    L = lam * lam
    lam1 = (L - b) / lam
    if not (lam < 0.0 and L < b):
        bad.append("lambda must satisfy -sqrt(c+3)/2 < lambda < 0")
    elif b - L <= CONSTRAINT_TOL * max(1.0, b):
        boundary.append("lambda at range boundary")
    if not alpha > 0.0:
        bad.append("alpha must be positive")
    if alpha - lam1 > CONSTRAINT_TOL * max(1.0, abs(lam1)):
        bad.append("alpha exceeds lambda1 = (lambda^2 - (c+3)/4)/lambda")
    elif abs(alpha - lam1) <= CONSTRAINT_TOL * max(1.0, abs(lam1)):
        boundary.append("alpha equals lambda1")
    if delta < -CONSTRAINT_TOL:
        bad.append("delta must be nonnegative")
    if delta - alpha > CONSTRAINT_TOL * max(1.0, alpha):
        bad.append("alpha must be >= delta")
    elif abs(delta - alpha) <= CONSTRAINT_TOL * max(1.0, alpha):
        boundary.append("alpha equals delta")
    if not alpha - 2.0 * gamma > 0.0:
        bad.append("alpha must exceed 2 gamma")
    if abs(L - b / 3.0) <= CONSTRAINT_TOL * max(1.0, b):
        bad.append("lambda^2 equals (c+3)/12 (minimal locus, excluded)")
    return bad, boundary


def _try_tuple(branch, w, system, c, mode):
    """Build and validate the tuple at the decimal root omega = w < 0; returns (solution, reason).

    Each entry is its 40-digit value rounded once to a float.  The reduction's
    denominators (w-1), (w-2) and (w-3) do not vanish for w < 0.
    """
    b, k, _, _ = system
    with localcontext(_EXACT):
        lam2, gam2, del2 = _branch_squares(branch, w, b, k)
        if gam2 <= 0:
            return None, "gamma^2 nonpositive in the reduction"
        if lam2 <= 0:
            return None, "lambda^2 nonpositive in the reduction"
        if branch == "delta_pos" and del2 <= CONSTRAINT_TOL:
            return None, "delta not positive"
        gamma = -gam2.sqrt()
        lam, alpha, gamma = float(-lam2.sqrt()), float(w * gamma), float(gamma)
        delta = float(del2.sqrt()) if branch == "delta_pos" else 0.0
    bad, boundary = _admissibility(lam, alpha, gamma, delta, float(b))
    if bad:
        return None, bad[0]
    sol = SolutionTuple(
        lam, alpha, gamma, delta, case="FlatI", c=c, mode=mode, omega=float(w),
        source="omega_reduction", flags=tuple(boundary),
    )
    res = sol.system_residual
    if not res <= FLAT_RESIDUAL_TOL:  # also rejects a residual that overflowed to nan
        return None, f"re-substitution residual {res:.2e} exceeds {FLAT_RESIDUAL_TOL:g}"
    return sol, None


def _alpha_eq_neg_gamma_family(system, c, mode):
    """The alpha = -gamma sub-family (omega = -1), solved in closed form.

    Equation 2 is automatic there; equation 4 pins gamma^2 = (b + lam^2)/2 and
    equation 1 factors into the minimal locus and the quadratic
    3 L^2 - (2b + k) L + b^2 in L = lam^2, whose discriminant is d1.
    """
    b, k, d1, _ = system
    accepted, rejected = [], []
    rejected.append(RejectedRoot(-1.0, "lambda^2 = (c+3)/12 root is the minimal locus, excluded"))
    # both roots are positive: their sum (2b + k)/3 and product b^2/3 are
    with localcontext(_EXACT):
        roots = sorted(L for L, _ in _quadratic_roots((b * b, -(2 * b + k), 3), d1))
        entries = [(float(L), float(-L.sqrt()), float(-((b + L) / 2).sqrt())) for L in roots]
    for lam2, lam, gamma in entries:
        alpha = -gamma
        bad, boundary = _admissibility(lam, alpha, gamma, 0.0, float(b))
        if bad:
            rejected.append(RejectedRoot(-1.0, f"alpha=-gamma root lambda^2 = {lam2:.6g}: {bad[0]}"))
            continue
        sol = SolutionTuple(
            lam, alpha, gamma, 0.0, case="FlatI", c=c, mode=mode, omega=-1.0,
            source="alpha_eq_neg_gamma", flags=tuple(boundary),
        )
        res = sol.system_residual
        if not res <= FLAT_RESIDUAL_TOL:
            rejected.append(RejectedRoot(-1.0, f"re-substitution residual {res:.2e}"))
            continue
        accepted.append(sol)
    return accepted, rejected


def _solve_flat_system(c_or_mode):
    b, k = _system_constants(c_or_mode)
    mode = "minus4" if isinstance(c_or_mode, str) else "biharmonic"
    c = 1.0 if mode == "minus4" else float(c_or_mode)
    if k <= 0.0:
        return [], []

    system = _exact_system(c_or_mode)
    solutions, fam_rejected = _alpha_eq_neg_gamma_family(system, c, mode)
    traces: list[ReductionTrace] = []
    for branch in BRANCHES:
        roots = isolate_real_roots(branch, system)
        accepted, rejected = [], []
        notes = []
        if branch == "delta_zero":
            rejected.extend(fam_rejected)
            accepted.extend(s.omega for s in solutions)
            notes.append("omega = -1 family solved in closed form (substitution divides by alpha + gamma)")
        for w, _ in roots:
            if w >= 0:
                rejected.append(RejectedRoot(float(w), "omega must be negative"))
                continue
            if w == -1 and system[3] == 0:
                # d2 = 0, so k = 2b (c = 1): omega = -1 is a root of every factor; the family covers it
                if branch == "delta_zero":
                    rejected.append(RejectedRoot(-1.0, "omega = -1 excluded from the rational reduction"))
                else:
                    rejected.append(RejectedRoot(-1.0, "delta not positive at omega = -1"))
                continue
            sol, reason = _try_tuple(branch, w, system, c, mode)
            if sol is None:
                rejected.append(RejectedRoot(float(w), reason))
            else:
                solutions.append(sol)
                accepted.append(sol.omega)
        traces.append(
            ReductionTrace(
                omega_branch=branch,
                polynomial=tuple(_branch_polynomial(branch, b, k)),
                factors=_branch_factors(branch, b, k),
                roots=tuple((float(w), mult) for w, mult in roots),
                accepted=tuple(accepted),
                rejected=tuple(rejected),
                notes=tuple(notes),
            )
        )

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


def quartic_lambda_residual(lam2: float, c: float) -> float:
    """Residual of 3 lam^4 - 2(c+1) lam^2 + (c+3)^2/16 (Case II validation oracle)."""
    b = (c + 3.0) / 4.0
    return 3.0 * lam2 * lam2 - 2.0 * (c + 1.0) * lam2 + b * b


def solve_caseII(c: float) -> list[CaseIISolution]:
    """Curve x C-parallel-surface solutions at phi-sectional curvature c.

    Subcase II1 exists only at c = 5/9; subcase II2 follows the two-branch
    square-root rule on [(-7 + 8 sqrt 3)/13, inf) minus c = 1.  The
    thresholds are decided on the exact input, as ``_exact_system`` decides
    them: c == 5/9 and c == 1 as floats, and c >= ``CASE_II_LOWER``.  The
    float nearest (-7 + 8 sqrt 3)/13 is ``CASE_II_LOWER``, so the exact
    discriminant 13c^2 + 14c - 11 is positive at every float above it and is
    taken as 0 at it.  The reported values use float formulas.  A non-finite
    c raises ValueError.
    """
    c = _finite(c)
    b = (c + 3.0) / 4.0
    out: list[CaseIISolution] = []

    if c == 5.0 / 9.0:
        out.append(
            CaseIISolution(
                subcase="II1",
                c=c,
                lam=None,
                kappa1=1.0 / math.sqrt(2.0),
                kappa2=1.0,
                radius=math.sqrt(8.0 / (3.0 * (c + 3.0))),
            )
        )

    if c >= CASE_II_LOWER and c != 1.0:
        disc = 13.0 * c * c + 14.0 * c - 11.0
        root = math.sqrt(max(disc, 0.0))
        candidates = sorted({(4.0 * c + 4.0 - root) / 12.0, (4.0 * c + 4.0 + root) / 12.0})
        for lam2 in candidates:
            flags = []
            if c == CASE_II_LOWER:
                flags.append("boundary: discriminant vanishes")
            if lam2 <= 0.0 or lam2 >= b - 1e-12:
                continue
            if abs(quartic_lambda_residual(lam2, c)) > 1e-10 * max(1.0, b * b):
                continue
            lam = -math.sqrt(lam2)
            out.append(
                CaseIISolution(
                    subcase="II2",
                    c=c,
                    lam=lam,
                    kappa1=(lam2 - b) / lam,
                    kappa2=1.0,
                    radius=2.0 / math.sqrt(4.0 * lam2 + c + 3.0),
                    flags=tuple(flags),
                )
            )
    return out


def solve_minus4_caseII() -> CaseIISolution:
    """The unique curve x sphere (-4)-biharmonic factor data in the 7-sphere."""
    lam2 = (4.0 - math.sqrt(13.0)) / 3.0
    lam = -math.sqrt(lam2)
    return CaseIISolution(
        subcase="II2",
        c=1.0,
        lam=lam,
        kappa1=(lam2 - 1.0) / lam,
        kappa2=1.0,
        radius=math.sqrt(3.0 / (7.0 - math.sqrt(13.0))),
    )


def curvature_tables(tup: SolutionTuple) -> dict[str, tuple[float, ...]]:
    """Frenet curvature lists of the three factor curves of a flat solution.

    Curvatures are reported positive (Gram-Schmidt normalization); the third
    curvature of the middle curve carries orientation sign -sign(lam) in the
    closed form, which is +1 for the admissible lam < 0.
    """
    lam, alpha, gamma, delta = tup.lam, tup.alpha, tup.gamma, tup.delta
    b = tup.b
    L = lam * lam
    tables: dict[str, tuple[float, ...]] = {"X1": ((L - b) / lam, 1.0)}

    k1 = math.hypot(lam, alpha)
    if alpha == 0.0:
        tables["X2"] = (abs(lam),)
    else:
        tables["X2"] = (
            k1,
            alpha / k1 * math.sqrt(L + 1.0),
            abs(lam) * math.sqrt(L + 1.0) / k1,
        )

    if delta > 0.0:
        k1 = math.sqrt(L + gamma * gamma + delta * delta)
        k2 = delta / k1 * math.sqrt(L + gamma * gamma + 1.0)
        tables["X3"] = (k1, k2, k2 * math.sqrt(L + gamma * gamma) / delta)
    else:
        tables["X3"] = (math.hypot(lam, gamma),)
    return tables
