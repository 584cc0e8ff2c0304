"""Solvers for the flat and curve-times-sphere classification systems.

The four-equation flat system in (lam, alpha, gamma, delta) is reduced by the
substitution alpha = omega * gamma to a univariate polynomial p in omega of
degree at most six.  One deterministic pass isolates its real roots: sign
changes on a 4096-point grid over the Cauchy bound, bisection, modified-Newton
polish; roots of p' where p nearly vanishes without a sign change (the double
root omega = 2) are reported as unresolved near-roots.  The sub-family
alpha = -gamma, where that substitution degenerates, is solved in closed form.
Every candidate is filtered through the admissibility constraints and
re-validated against the expanded scalar system; rejected roots keep the
violated constraint as a tag.  A seeded multistart Newton sweep over the full
four-variable system runs as a completeness net: anything it finds beyond the
reduction branches is reported flagged "fallback", never silently merged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import polynomial as npp

from . import shape_algebra as sa

FLAT_RESIDUAL_TOL = 1e-10
CONSTRAINT_TOL = 1e-12
# a root of multiplicity up to three is only locatable to ~(machine eps)^(1/3);
# candidates this close to a degenerate locus are boundary artifacts, not solutions
MULTIPLE_ROOT_TOL = 1e-4
CASE_II_LOWER = (-7.0 + 8.0 * math.sqrt(3.0)) / 13.0
SWEEP_STARTS = 10000


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

    def system_residual(self) -> float:
        arg = "minus4" if self.mode == "minus4" else self.c
        return float(np.linalg.norm(sa.expanded_system_residual(self.operators(), arg)))

    def as_array(self) -> np.ndarray:
        return np.array([self.lam, self.alpha, self.gamma, self.delta])


@dataclass(frozen=True)
class RejectedRoot:
    omega: float
    reason: str


@dataclass(frozen=True)
class ReductionTrace:
    omega_branch: str
    polynomial: tuple[float, ...]
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


class RootIsolationError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# deterministic real-root isolation for low-degree polynomials
# ----------------------------------------------------------------------

def _modified_newton(x, c):
    """Newton on p/p' from x, which converges quadratically even at multiple roots."""
    dc = npp.polyder(c)
    ddc = npp.polyder(dc)
    for _ in range(80):
        fx = npp.polyval(x, c)
        dfx = npp.polyval(x, dc)
        denom = dfx * dfx - fx * npp.polyval(x, ddc)
        if denom == 0.0:
            break
        step = fx * dfx / denom
        if not np.isfinite(step):
            break
        x -= step
        if abs(step) < 1e-16 * max(1.0, abs(x)):
            break
    return x


def _bisect(c, lo, hi):
    """Midpoint of a sign-change bracket of c, shrunk to relative width 1e-14."""
    flo = npp.polyval(lo, c)
    for _ in range(200):
        if hi - lo <= 1e-14 * max(1.0, abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        fmid = npp.polyval(mid, c)
        if fmid == 0.0:
            lo = hi = mid
            break
        if (flo < 0) != (fmid < 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _sign_change_roots(coeffs, grid_size: int):
    """Sorted roots of p from sign changes on a Cauchy-bound grid, and p scaled and trimmed."""
    c = np.asarray(coeffs, dtype=float)
    scale = float(np.max(np.abs(c))) if c.size else 0.0
    if scale == 0.0:
        raise RootIsolationError("zero polynomial")
    c = c / scale
    while c.size > 1 and abs(c[-1]) < 1e-13:
        c = c[:-1]
    if c.size == 1:
        return [], c

    bound = 1.0 + float(np.max(np.abs(c[:-1] / c[-1])))
    xs = np.linspace(-bound, bound, grid_size)
    vals = npp.polyval(xs, c)
    a, b = vals[:-1], vals[1:]
    roots = []
    # a grid point on a root, or a sign change into a nonzero value
    for i in np.flatnonzero((a == 0.0) | (((a < 0) != (b < 0)) & (b != 0.0))):
        x = xs[i] if a[i] == 0.0 else _bisect(c, xs[i], xs[i + 1])
        roots.append(float(_modified_newton(x, c)))
    if vals[-1] == 0.0:
        roots.append(float(_modified_newton(xs[-1], c)))

    deduped: list[float] = []
    for r in sorted(roots):
        if not deduped or abs(r - deduped[-1]) > 1e-6 * max(1.0, abs(r)):
            deduped.append(r)
    return deduped, c


def isolate_real_roots(coeffs):
    """All real roots of a low-degree polynomial, plus unresolved near-roots.

    Sign-change bisection on a bracketing grid over the Cauchy bound, then
    modified-Newton polish.  Stationary points (roots of p') where p nearly
    vanishes but no sign change exists (even-multiplicity candidates) are
    returned separately so the caller can report rather than drop them.
    """
    roots, c = _sign_change_roots(coeffs, 4096)
    deg = c.size - 1
    near = []
    if deg >= 2:
        dc = npp.polyder(c)
        stat = _sign_change_roots(dc, 2048)[0] if np.max(np.abs(dc)) > 0 else []
        for s in stat:
            if any(abs(s - r) <= 1e-9 * max(1.0, abs(s)) for r in roots):
                continue
            if abs(npp.polyval(s, c)) < 1e-12 * max(1.0, abs(s)) ** deg:
                near.append(float(s))
    return roots, near


# ----------------------------------------------------------------------
# omega-substitution reductions of the flat system
# ----------------------------------------------------------------------

def _system_constants(c_or_mode):
    """(b, k) with b = (c+3)/4 and k the criterion eigenvalue."""
    if isinstance(c_or_mode, str):
        if c_or_mode != "minus4":
            raise ValueError(f"unknown mode {c_or_mode!r}")
        return 1.0, sa.MINUS4_EIGENVALUE
    c = float(c_or_mode)
    return (c + 3.0) / 4.0, sa.biharmonic_eigenvalue(c)


def flat_system_residual(lam, alpha, gamma, delta, b, k) -> np.ndarray:
    """The four flat-case equations (first one already cleared of 1/lam^3)."""
    L = lam * lam
    s = (alpha + gamma) ** 2 + delta**2
    eq1 = (3.0 * L - b) * (3.0 * L * L - (2.0 * b + k) * L + b * b) + L * L * s
    eq2 = (alpha + gamma) * (5.0 * L + alpha**2 + gamma**2 - (b + k)) + gamma * delta**2
    eq3 = delta * (5.0 * L + delta**2 + 3.0 * gamma**2 + alpha * gamma - (b + k))
    eq4 = b + L + alpha * gamma - gamma**2
    return np.array([eq1, eq2, eq3, eq4])


def _branch_polynomial(branch: str, b: float, k: float) -> np.ndarray:
    """Degree-<=6 polynomial in omega obtained by clearing denominators of eq 1."""
    m = 6.0 * b + k
    if branch == "delta_zero":
        D = np.array([6.0, -5.0, 1.0])  # (w-2)(w-3)
        PL = npp.polyadd(m * np.array([1.0, -1.0]), -b * D)  # m(1-w) - bD
        extra = m * npp.polymul(npp.polymul(PL, PL), np.array([1.0, 2.0, 1.0]))
    elif branch == "delta_pos":
        D = np.array([2.0, -3.0, 1.0])  # (w-1)(w-2)
        PL = npp.polyadd(np.array([0.0, -m]), -b * D)  # -m w - bD
        extra = 2.0 * m * npp.polymul(npp.polymul(PL, PL), np.array([1.0, 2.0, 1.0]))
    else:
        raise ValueError(f"unknown branch {branch!r}")
    quart = npp.polyadd(
        npp.polysub(3.0 * npp.polymul(PL, PL), (2.0 * b + k) * npp.polymul(PL, D)),
        b * b * npp.polymul(D, D),
    )
    main = npp.polymul(npp.polysub(3.0 * PL, b * D), quart)
    return npp.polyadd(main, extra)


def _branch_squares(branch: str, w: float, b: float, k: float):
    """(lam^2, gamma^2, delta^2) of the closed-form reduction at omega = w."""
    m = 6.0 * b + k
    if branch == "delta_zero":
        D = (w - 2.0) * (w - 3.0)
        gam2 = m / D
        lam2 = m * (1.0 - w) / D - b
        del2 = 0.0
    else:
        gam2 = m * w / ((w - 1.0) ** 2 * (w - 2.0))
        lam2 = -m * w / ((w - 1.0) * (w - 2.0)) - b
        del2 = m * (w + 1.0) ** 2 / (w - 1.0) ** 2
    return lam2, gam2, del2


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


def _try_tuple(branch, w, b, k, c, mode):
    """Build and validate the tuple at omega = w; returns (solution, reason)."""
    lam2, gam2, del2 = _branch_squares(branch, w, b, k)
    if not np.isfinite(lam2) or not np.isfinite(gam2):
        return None, "reduction denominators vanish"
    if gam2 <= 0.0:
        return None, "gamma^2 nonpositive in the reduction"
    if lam2 <= 0.0:
        return None, "lambda^2 nonpositive in the reduction"
    if branch == "delta_pos" and del2 <= CONSTRAINT_TOL:
        return None, "delta not positive"
    lam = -math.sqrt(lam2)
    gamma = -math.sqrt(gam2)
    alpha = w * gamma
    delta = math.sqrt(del2) if branch == "delta_pos" else 0.0
    bad, boundary = _admissibility(lam, alpha, gamma, delta, b)
    if bad:
        return None, bad[0]
    sol = SolutionTuple(
        lam, alpha, gamma, delta, case="FlatI", c=c, mode=mode, omega=w,
        source="omega_reduction", flags=tuple(boundary),
    )
    res = sol.system_residual()
    if res > FLAT_RESIDUAL_TOL:
        return None, f"re-substitution residual {res:.2e} exceeds {FLAT_RESIDUAL_TOL:g}"
    return sol, None


def _neg_gamma_lam2_roots(b, k):
    """Roots lam^2 of the quartic factor 3 L^2 - (2b + k) L + b^2 of equation 1 at omega = -1."""
    disc = (2.0 * b + k) ** 2 - 12.0 * b * b
    if disc >= 0.0:
        root = math.sqrt(disc)
        return [((2.0 * b + k) - root) / 6.0, ((2.0 * b + k) + root) / 6.0]
    return []


def _alpha_eq_neg_gamma_family(b, k, c, mode):
    """The alpha = -gamma sub-family (omega = -1), solved in closed form.

    Equation 2 is automatic there; equation 4 pins gamma^2 = (b + lam^2)/2 and
    equation 1 factors into the minimal locus and a quartic in lam^2.
    """
    accepted, rejected = [], []
    rejected.append(RejectedRoot(-1.0, "lambda^2 = (c+3)/12 root is the minimal locus, excluded"))
    for lam2 in _neg_gamma_lam2_roots(b, k):
        if lam2 <= 0.0:
            rejected.append(RejectedRoot(-1.0, f"quartic root lambda^2 = {lam2:.6g} nonpositive"))
            continue
        gam2 = (b + lam2) / 2.0
        lam = -math.sqrt(lam2)
        gamma = -math.sqrt(gam2)
        alpha = -gamma
        bad, boundary = _admissibility(lam, alpha, gamma, 0.0, b)
        if bad:
            rejected.append(RejectedRoot(-1.0, f"alpha=-gamma root lambda^2 = {lam2:.6g}: {bad[0]}"))
            continue
        sol = SolutionTuple(
            lam, alpha, gamma, 0.0, case="FlatI", c=c, mode=mode, omega=-1.0,
            source="alpha_eq_neg_gamma", flags=tuple(boundary),
        )
        res = sol.system_residual()
        if res > FLAT_RESIDUAL_TOL:
            rejected.append(RejectedRoot(-1.0, f"re-substitution residual {res:.2e}"))
            continue
        accepted.append(sol)
    return accepted, rejected


def _newton_sweep(b, k, c, mode, starts: int, seed: int):
    """Multistart Newton on the full four-variable flat system (completeness net)."""
    rng = np.random.default_rng(seed)
    sb = math.sqrt(b)
    x = np.empty((starts, 4))
    x[:, 0] = rng.uniform(-sb + 1e-6, -1e-6, starts)          # lam
    x[:, 1] = rng.uniform(1e-6, 3.0 * sb, starts)             # alpha
    x[:, 2] = rng.uniform(-3.0 * sb, -1e-6, starts)           # gamma
    x[:, 3] = rng.uniform(0.0, 3.0 * sb, starts)              # delta
    alive = np.ones(starts, dtype=bool)

    def residual(v):
        return flat_system_residual(v[:, 0], v[:, 1], v[:, 2], v[:, 3], b, k).T

    def jacobian(v):
        lam, al, ga, de = v[:, 0], v[:, 1], v[:, 2], v[:, 3]
        L = lam * lam
        s = (al + ga) ** 2 + de**2
        J = np.zeros((v.shape[0], 4, 4))
        J[:, 0, 0] = 2 * lam * (
            3 * (3 * L * L - (2 * b + k) * L + b * b)
            + (3 * L - b) * (6 * L - (2 * b + k))
            + 2 * L * s
        )
        J[:, 0, 1] = 2 * L * L * (al + ga)
        J[:, 0, 2] = 2 * L * L * (al + ga)
        J[:, 0, 3] = 2 * L * L * de
        J[:, 1, 0] = 10 * lam * (al + ga)
        J[:, 1, 1] = (5 * L + al**2 + ga**2 - (b + k)) + 2 * al * (al + ga)
        J[:, 1, 2] = (5 * L + al**2 + ga**2 - (b + k)) + 2 * ga * (al + ga) + de**2
        J[:, 1, 3] = 2 * ga * de
        J[:, 2, 0] = 10 * lam * de
        J[:, 2, 1] = de * ga
        J[:, 2, 2] = de * (6 * ga + al)
        J[:, 2, 3] = (5 * L + de**2 + 3 * ga**2 + al * ga - (b + k)) + 2 * de**2
        J[:, 3, 0] = 2 * lam
        J[:, 3, 1] = ga
        J[:, 3, 2] = al - 2 * ga
        J[:, 3, 3] = 0.0
        return J

    for _ in range(60):
        if not np.any(alive):
            break
        v = x[alive]
        f = residual(v)
        J = jacobian(v)
        det = np.linalg.det(J)
        ok = (np.abs(det) > 1e-14) & np.all(np.isfinite(f), axis=1)
        step = np.zeros_like(v)
        if np.any(ok):
            step[ok] = np.linalg.solve(J[ok], f[ok][..., None])[..., 0]
        v = v - step
        idx = np.flatnonzero(alive)
        x[idx] = v
        dead = ~ok | ~np.all(np.isfinite(v), axis=1) | (np.max(np.abs(v), axis=1) > 1e6)
        alive[idx[dead]] = False

    rows = []
    fin = x[alive & np.all(np.isfinite(x), axis=1)]
    if fin.size:
        fin[:, 3] = np.abs(fin[:, 3])  # the system is even in delta; normalize its sign
        res = np.linalg.norm(residual(fin), axis=1)
        fin = fin[res < FLAT_RESIDUAL_TOL]
        for row in fin:
            if any(np.max(np.abs(row - r)) < 1e-5 for r in rows):
                continue
            rows.append(row.astype(float))
    return rows


def _canonicalize_sweep_row(row, b, k, c, mode):
    """Identify a sweep candidate with its omega-reduction representative.

    Returns the rebuilt exact SolutionTuple, None when the candidate sits on a
    root the reduction already rejected (e.g. the excluded minimal locus), or
    a raw 'fallback' tuple when the candidate lies outside the alpha = omega
    gamma parametrization entirely.
    """
    lam, al, ga, de = (float(t) for t in row)
    raw = SolutionTuple(lam, al, ga, de, case="FlatI", c=c, mode=mode, source="fallback")
    if ga >= -1e-9:
        bad, boundary = _admissibility(lam, al, ga, de, b)
        return None if bad else replace(raw, flags=tuple(boundary))
    w = al / ga
    branch = "delta_pos" if de > 1e-6 else "delta_zero"
    if branch == "delta_zero" and abs(w + 1.0) < 1e-3:
        # alpha = -gamma family: snap lambda^2 to the nearest closed-form root
        L = lam * lam
        candidates = [b / 3.0] + _neg_gamma_lam2_roots(b, k)
        near = min(candidates, key=lambda t: abs(t - L))
        if abs(near - L) > 1e-3 * max(1.0, b):
            return raw
        if abs(near - b / 3.0) <= CONSTRAINT_TOL * max(1.0, b):
            return None  # excluded minimal locus
        lam_e = -math.sqrt(near)
        gamma_e = -math.sqrt((b + near) / 2.0)
        bad, boundary = _admissibility(lam_e, -gamma_e, gamma_e, 0.0, b)
        if bad:
            return None
        return SolutionTuple(lam_e, -gamma_e, gamma_e, 0.0, case="FlatI", c=c, mode=mode,
                             omega=-1.0, source="alpha_eq_neg_gamma", flags=tuple(boundary))
    poly = _branch_polynomial(branch, b, k)
    x = _modified_newton(w, poly)
    scale = float(np.max(np.abs(poly)))
    if abs(x - w) < 1e-2 * max(1.0, abs(w)) and abs(npp.polyval(x, poly)) < 1e-9 * scale:
        if x >= -1e-12 or abs(x + 1.0) < MULTIPLE_ROOT_TOL:
            return None
        sol, _reason = _try_tuple(branch, x, b, k, c, mode)
        return sol  # None when the reduction rejected this root
    return raw


def _solve_flat_system(c_or_mode, fallback_sweep, sweep_seed):
    b, k = _system_constants(c_or_mode)
    mode = "minus4" if isinstance(c_or_mode, str) else "biharmonic"
    c = 1.0 if mode == "minus4" else float(c_or_mode)
    if k <= 0.0:
        return [], []

    solutions: list[SolutionTuple] = []
    traces: list[ReductionTrace] = []

    fam_accepted, fam_rejected = _alpha_eq_neg_gamma_family(b, k, c, mode)
    solutions.extend(fam_accepted)

    for branch in ("delta_zero", "delta_pos"):
        poly = _branch_polynomial(branch, b, k)
        roots, near = isolate_real_roots(poly)
        accepted, rejected = [], []
        notes = []
        if branch == "delta_zero":
            rejected.extend(fam_rejected)
            accepted.extend(s.omega for s in fam_accepted)
            notes.append("omega = -1 family solved in closed form (substitution divides by alpha + gamma)")
        for w in roots:
            if w >= -1e-12:
                rejected.append(RejectedRoot(w, "omega must be negative"))
                continue
            if abs(w + 1.0) < MULTIPLE_ROOT_TOL:
                # omega = -1 is a root of multiplicity three exactly when the
                # closed-form family applies; it cannot be located more sharply
                if branch == "delta_zero":
                    rejected.append(RejectedRoot(w, "omega = -1 excluded from the rational reduction"))
                else:
                    rejected.append(RejectedRoot(w, "delta not positive at omega = -1"))
                continue
            sol, reason = _try_tuple(branch, w, b, k, c, mode)
            if sol is None:
                rejected.append(RejectedRoot(w, reason))
            else:
                solutions.append(sol)
                accepted.append(w)
        for w in near:
            rejected.append(RejectedRoot(w, "unresolved near-root (no sign change); reported, not accepted"))
        traces.append(
            ReductionTrace(
                omega_branch=branch,
                polynomial=tuple(float(x) for x in poly),
                accepted=tuple(accepted),
                rejected=tuple(rejected),
                notes=tuple(notes),
            )
        )

    if fallback_sweep:
        for row in _newton_sweep(b, k, c, mode, SWEEP_STARTS, sweep_seed):
            cand = _canonicalize_sweep_row(row, b, k, c, mode)
            if cand is None:
                continue
            if any(np.max(np.abs(cand.as_array() - s.as_array())) < 1e-7 for s in solutions):
                continue
            if cand.source == "fallback" and cand.system_residual() > FLAT_RESIDUAL_TOL:
                continue
            solutions.append(cand)

    solutions.sort(key=lambda s: (s.case, s.lam, s.alpha))
    return solutions, traces


def solve_flat(c: float, fallback_sweep: bool = True, sweep_seed: int = 0):
    """All admissible flat proper-biharmonic tuples at phi-sectional curvature c.

    Returns (solutions, reduction traces).  Empty for c <= -1/3, where the
    criterion eigenvalue is nonpositive and no non-minimal solution exists.
    """
    return _solve_flat_system(float(c), fallback_sweep, sweep_seed)


def solve_minus4_flat(fallback_sweep: bool = True, sweep_seed: int = 0):
    """All admissible flat (-4)-biharmonic tuples in the unit 7-sphere."""
    return _solve_flat_system("minus4", fallback_sweep, sweep_seed)


def quartic_lambda_residual(lam2: float, c: float) -> float:
    """Residual of 3 lam^4 - 2(c+1) lam^2 + (c+3)^2/16 (Case II validation oracle)."""
    b = (c + 3.0) / 4.0
    return 3.0 * lam2 * lam2 - 2.0 * (c + 1.0) * lam2 + b * b


def solve_caseII(c: float) -> list[CaseIISolution]:
    """Curve x C-parallel-surface solutions at phi-sectional curvature c.

    Subcase II1 exists only at c = 5/9; subcase II2 follows the two-branch
    square-root rule on [(-7 + 8 sqrt 3)/13, inf) minus c = 1.
    """
    c = float(c)
    b = (c + 3.0) / 4.0
    out: list[CaseIISolution] = []

    if abs(c - 5.0 / 9.0) <= 1e-12:
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

    if abs(c - 1.0) <= 1e-12:
        return out
    disc = 13.0 * c * c + 14.0 * c - 11.0
    if c >= CASE_II_LOWER - 1e-12 and disc >= -1e-12:
        root = math.sqrt(max(disc, 0.0))
        candidates = sorted({(4.0 * c + 4.0 - root) / 12.0, (4.0 * c + 4.0 + root) / 12.0})
        for lam2 in candidates:
            flags = []
            if disc <= 1e-12:
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
