"""Verification report assembly for the registered example immersions.

Each registered name maps to an immersion plus the full check suite its
construction is supposed to satisfy (unit norm, integral condition,
C-parallelism, normal Laplacian identity, bitension, Frenet data, lattices,
circle decompositions, coordinate-Laplacian eigenvalues).  Reports serialize
to JSON (round-trip stable), CSV (``check,residual,tolerance,pass``) and
plain text.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import catalog, classifier, immersion as imm
from .ambient import complex_structure
from .frenet import frenet, phi_alignment

SQ2, SQ3, SQ5, SQ13 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0), math.sqrt(13.0)

EXAMPLE_NAMES = (
    "corollary-c1",
    "s5-surface",
    "cylinder-c1",
    "cylinder-s5",
    "legendre-circle",
    "legendre-helix:<kappa1>",
    "minus4-1",
    "minus4-2",
    "minus4-3",
    "cylinder-minus4-1",
    "cylinder-minus4-2",
    "cylinder-minus4-3",
)

# closed forms recognized when printing radicals symbolically
SYMBOLIC_FORMS: tuple[tuple[float, str], ...] = (
    (-1.0 / SQ5, "-1/sqrt(5)"),
    (3.0 * SQ3 / math.sqrt(10.0), "3*sqrt(3)/sqrt(10)"),
    (-SQ3 / math.sqrt(10.0), "-sqrt(3)/sqrt(10)"),
    (SQ2, "sqrt(2)"),
    (4.0 / SQ5, "4*sqrt(5)/5"),
    (1.0, "1"),
    (math.sqrt(29.0 / 10.0), "sqrt(29)/sqrt(10)"),
    (9.0 * SQ2 / math.sqrt(145.0), "9*sqrt(2)/sqrt(145)"),
    (2.0 * SQ3 / math.sqrt(145.0), "2*sqrt(3)/sqrt(145)"),
    (SQ5 / SQ2, "sqrt(5)/sqrt(2)"),
    (2.0 * SQ3 / math.sqrt(10.0), "2*sqrt(3)/sqrt(10)"),
    (SQ3 / math.sqrt(10.0), "sqrt(3)/sqrt(10)"),
    (2.0 / 3.0, "2/3"),
    (0.5, "1/2"),
    (1.0 / SQ2, "1/sqrt(2)"),
    (1.0 / math.sqrt(6.0), "1/sqrt(6)"),
    (SQ3 / 2.0, "sqrt(3)/2"),
    (-math.sqrt((4.0 - SQ13) / 3.0), "-sqrt((4-sqrt(13))/3)"),
    (math.sqrt((7.0 - SQ13) / 6.0), "sqrt((7-sqrt(13))/6)"),
    (-math.sqrt((7.0 - SQ13) / 6.0), "-sqrt((7-sqrt(13))/6)"),
    (-math.sqrt(1.0 / (5.0 + 2.0 * SQ3)), "-sqrt(1/(5+2*sqrt(3)))"),
    (math.sqrt((45.0 + 21.0 * SQ3) / 13.0), "sqrt((45+21*sqrt(3))/13)"),
    (-math.sqrt(6.0 / (21.0 + 11.0 * SQ3)), "-sqrt(6/(21+11*sqrt(3)))"),
    (-math.sqrt(1.0 / (6.0 + SQ13)), "-sqrt(1/(6+sqrt(13)))"),
    (math.sqrt((523.0 + 139.0 * SQ13) / 138.0), "sqrt((523+139*sqrt(13))/138)"),
    (-math.sqrt((79.0 - 17.0 * SQ13) / 138.0), "-sqrt((79-17*sqrt(13))/138)"),
    (math.sqrt((14.0 + 2.0 * SQ13) / 3.0), "sqrt((14+2*sqrt(13))/3)"),
    (math.sqrt((5.0 - SQ13) / 12.0), "sqrt((5-sqrt(13))/12)"),
    (math.sqrt((7.0 + SQ13) / 36.0), "sqrt((7+sqrt(13))/36)"),
    (math.sqrt((3.0 + SQ3) / 12.0), "sqrt((3+sqrt(3))/12)"),
    (math.sqrt((3.0 - SQ3) / 12.0), "sqrt((3-sqrt(3))/12)"),
    (math.sqrt((5.0 + SQ13) / 12.0), "sqrt((5+sqrt(13))/12)"),
    (math.sqrt((7.0 - SQ13) / 36.0), "sqrt((7-sqrt(13))/36)"),
    ((SQ13 - 1.0) / math.sqrt(12.0 - 3.0 * SQ13), "(sqrt(13)-1)/sqrt(12-3*sqrt(13))"),
    (math.sqrt(3.0 / (7.0 - SQ13)), "sqrt(3/(7-sqrt(13)))"),
)


def symbolize(value: float) -> str | None:
    for v, s in SYMBOLIC_FORMS:
        if abs(value - v) <= 1e-12 * max(1.0, abs(v)):
            return s
    return None


def format_value(value: float) -> dict:
    out = {"value": float(value), "decimal": f"{value:.17g}"}
    sym = symbolize(value)
    if sym is not None:
        out["symbolic"] = sym
    return out


@dataclass
class VerificationReport:
    subject: str
    checks: list[imm.CheckResult] = field(default_factory=list)
    computed: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: imm.CheckResult):
        self.checks.append(check)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "checks": [
                {
                    "name": c.name,
                    "residual": float(c.residual),
                    "tolerance": float(c.tolerance),
                    "pass": bool(c.passed),
                }
                for c in self.checks
            ],
            "computed": self.computed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("check,residual,tolerance,pass\n")
        for c in self.checks:
            buf.write(f"{c.name},{c.residual:.17g},{c.tolerance:.17g},{str(c.passed).lower()}\n")
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"subject: {self.subject}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name:32s} residual {c.residual:9.3e}  (tol {c.tolerance:g})")
        for key, val in sorted(self.computed.items()):
            lines.append(f"  computed {key} = {val}")
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


class UsageError(KeyError):
    """A verify request names no registered example or asks for an empty grid."""


def parse_example(name: str) -> tuple[str, float | None]:
    """Split an example name into its family and parameter (index or helix kappa1).

    Raises UsageError with a one-line message for anything not registered.
    """
    if name.startswith("legendre-helix:"):
        text = name.split(":", 1)[1]
        try:
            kappa1 = float(text)
        except ValueError:
            kappa1 = math.nan
        if not 0.0 < kappa1 < 1.0:
            raise UsageError(f"legendre-helix needs a curvature in (0, 1), got {text!r}")
        return "legendre-helix", kappa1
    family, _, text = name.rpartition("-")
    if family in ("minus4", "cylinder-minus4"):
        if text not in ("1", "2", "3"):
            raise UsageError(f"{family} needs an index 1, 2 or 3, got {text!r}")
        return family, int(text)
    if name in EXAMPLE_NAMES:
        return name, None
    raise UsageError(f"unknown example {name!r}; registered: {', '.join(EXAMPLE_NAMES)}")


def _curve_grid(curve: imm.ParametricImmersion, per_axis: int) -> np.ndarray:
    box = (curve.sample_box or (2.0 * math.pi,))[0]
    return (np.arange(per_axis) + 0.5) / per_axis * box


def _frenet_check(report, F, axis, base, want, per_axis, label):
    curve = catalog.coordinate_curve(F, axis, base)
    app = frenet(curve, _curve_grid(curve, max(per_axis, 5)))
    got = app.curvature_values
    if app.order != len(want) + 1:
        res = float("inf")
    else:
        res = max(abs(g - w) for g, w in zip(got, want))
    chk = imm.CheckResult(f"frenet_{label}", res, 1e-8)
    chk.extra["order"] = app.order
    report.add(chk)
    spread = float(np.max(app.curvature_spreads)) if len(app.curvature_spreads) else 0.0
    report.add(imm.CheckResult(f"frenet_{label}_constancy", spread, 1e-8))
    report.computed[f"curvatures_{label}"] = [format_value(v) for v in got]


def _mean_curvature_checks(report, h, want=None):
    """Constancy (and value) of |H| over the sampled norms ``h``."""
    report.add(imm.CheckResult("mean_curvature_constant", float(np.var(h)), 1e-16))
    report.computed["mean_curvature"] = format_value(float(np.mean(h)))
    if want is not None:
        report.add(imm.CheckResult("mean_curvature_value", float(np.max(np.abs(h - want))), 1e-10))


def _trace_bah_check(report, geo, factor):
    B, H = geo.second_fundamental, geo.mean_curvature
    bah = np.einsum("nik,nikd->nd", np.einsum("nikd,nd->nik", B, H), B)
    res = float(np.max(np.abs(bah - factor * H)))
    report.add(imm.CheckResult("trace_b_ah", res, 1e-8))


def _integral_submanifold_checks(report, geo, want_h=None, mode="biharmonic", bah_factor=None):
    """The shared suite of the maximum-dimension integral examples."""
    report.add(imm.check_unit_norm(geo.values))
    report.add(imm.check_integral(geo))
    cp = imm.check_C_parallel(geo)
    report.add(cp)
    report.add(imm.CheckResult("s_symmetry", cp.extra["total_symmetry"], 1e-10))
    report.add(imm.check_normal_laplacian(geo))
    _mean_curvature_checks(report, geo.mean_curvature_norm, want_h)
    report.add(imm.check_bitension(geo, mode=mode))
    if bah_factor is not None:
        _trace_bah_check(report, geo, bah_factor)


def _flow_cylinder_checks(report, F, per_axis, want_h=None):
    """The shared opening of the Reeb-flow cylinder suites; returns the sample."""
    geo = imm.sample_geometry(F, F.grid(per_axis))
    base = slice(per_axis**2)  # the first t-slice of the grid
    report.add(imm.check_unit_norm(geo.values))
    # the cylinder direction is the Reeb flow: eta0(d_t y) = 1 exactly
    eta_t = np.sum(geo.tangents[base, 0] * (-complex_structure(geo.values[base])), axis=-1)
    report.add(imm.CheckResult("flow_direction", float(np.max(np.abs(eta_t - 1.0))), 1e-10))
    _mean_curvature_checks(report, geo.mean_curvature_norm[base], want_h)
    report.add(imm.check_bitension(geo))
    return geo


def _sample_lattice_check(geo, vectors, rows):
    """``lattice_check`` based at the first ``rows`` points of a sample's grid."""
    return imm.lattice_check(geo.immersion, vectors, geo.points[:rows], base=geo.values[:rows])


def _legendre_curve_checks(report, F, per_axis):
    """The shared opening of the Legendre curve suites; returns (geo, Frenet apparatus)."""
    pts = _curve_grid(F, max(per_axis, 5))[:, None]
    geo = imm.sample_geometry(F, pts)
    report.add(imm.check_unit_norm(geo.values))
    report.add(imm.check_integral(geo))
    report.add(imm.check_bitension(geo))
    return geo, frenet(F, pts.ravel())


def _decomposition_check(report, F, want_radii, per_axis, basis=None, label="decomposition", jet=None):
    # ``jet`` is a jet of F on F.grid(per_axis); below 3 points per axis the
    # decomposition samples a grid of its own
    jet = jet if per_axis >= 3 else None
    try:
        dec = catalog.circle_decomposition(F, per_axis=max(per_axis, 3), basis=basis, jet=jet)
    except ValueError as ex:
        chk = imm.CheckResult(label, float("inf"), 1e-10)
        chk.extra["error"] = str(ex)
        report.add(chk)
        return
    got = np.sort(dec.radii)
    want = np.sort(np.asarray(want_radii, dtype=float))
    res = float(np.max(np.abs(got - want)))
    report.add(imm.CheckResult(label, res, 1e-10))
    report.add(imm.CheckResult(label + "_sum_sq", abs(float(np.sum(dec.radii**2)) - 1.0), 1e-12))
    report.computed[label + "_radii"] = [format_value(v) for v in got]


def _eigencheck(report, geo, split, want):
    res = imm.coordinate_laplacian_eigencheck(geo, split)
    for (name, chk), mu_want in zip(sorted(res.items()), [want[k] for k in sorted(want)]):
        mu = chk.extra["eigenvalue"]
        combined = max(chk.residual, abs(mu - mu_want))
        out = imm.CheckResult(chk.name, combined, chk.tolerance)
        out.extra["eigenvalue"] = mu
        report.add(out)
        report.computed[chk.name] = format_value(mu)


MINUS4_RADII = (
    (math.sqrt((5.0 - SQ13) / 12.0),) + (math.sqrt((7.0 + SQ13) / 36.0),) * 3,
    (math.sqrt((3.0 + SQ3) / 12.0),) * 2 + (math.sqrt((3.0 - SQ3) / 12.0),) * 2,
    (math.sqrt((5.0 + SQ13) / 12.0),) + (math.sqrt((7.0 - SQ13) / 36.0),) * 3,
)

COROLLARY_CURVATURES = {
    "X1": (4.0 / SQ5, 1.0),
    "X2": (math.sqrt(29.0 / 10.0), 9.0 * SQ2 / math.sqrt(145.0), 2.0 * SQ3 / math.sqrt(145.0)),
    "X3": (SQ5 / SQ2, 2.0 * SQ3 / math.sqrt(10.0), SQ3 / math.sqrt(10.0)),
}

_CURVE_BASE_FRACTIONS = np.array([0.23, 0.41, 0.67])


def _corollary_suite(report, per_axis, _param):
    F = catalog.corollary_immersion()
    geo = imm.sample_geometry(F, F.grid(per_axis))
    base = _CURVE_BASE_FRACTIONS * np.asarray(F.sample_box)
    _integral_submanifold_checks(report, geo, want_h=2.0 / 3.0, bah_factor=2.0)
    for axis, label in ((0, "X1"), (1, "X2"), (2, "X3")):
        _frenet_check(report, F, axis, base, COROLLARY_CURVATURES[label], per_axis, label)
    report.add(_sample_lattice_check(geo, catalog.COROLLARY_LATTICE, per_axis**2))
    _eigencheck(report, geo, {"x1": [3], "x2": [0, 1, 2]}, {"x1": 1.0, "x2": 5.0})


def _s5_suite(report, per_axis, _param):
    F = catalog.s5_surface()
    geo = imm.sample_geometry(F, F.grid(per_axis))
    _integral_submanifold_checks(report, geo)
    report.add(_sample_lattice_check(geo, catalog.S5_LATTICE, per_axis**2))


def _cylinder_c1_suite(report, per_axis, _param):
    F = catalog.cylinder(catalog.corollary_immersion())
    geo = _flow_cylinder_checks(report, F, per_axis, want_h=0.5)
    _decomposition_check(report, F, (1.0 / SQ2,) + (1.0 / math.sqrt(6.0),) * 3, per_axis, jet=geo.jet)
    q4 = catalog.T4_TRANSFORM_2 @ catalog.T4_TRANSFORM_1
    tilde = catalog.precompose_linear(F, q4.T, name="cylinder-c1-circleform")
    lattice = imm.lattice_check(tilde, catalog.T4_CYLINDER_LATTICE_TILDE, tilde.grid(3)[:20])
    report.add(imm.CheckResult("lattice_transformed", lattice.residual, 1e-10))
    original_gens = [q4.T @ np.asarray(a) for a in catalog.T4_CYLINDER_LATTICE_TILDE]
    lattice = _sample_lattice_check(geo, original_gens, 20)
    report.add(imm.CheckResult("lattice_original", lattice.residual, 1e-10))
    _eigencheck(report, geo, {"y1": [3], "y2": [0, 1, 2]}, {"y1": 2.0, "y2": 6.0})


def _cylinder_s5_suite(report, per_axis, _param):
    F = catalog.cylinder(catalog.s5_surface())
    geo = _flow_cylinder_checks(report, F, per_axis)
    report.add(_sample_lattice_check(geo, catalog.S5_CYLINDER_LATTICE, 20))
    q3 = catalog.S5_CYL_TRANSFORM_2 @ catalog.S5_CYL_TRANSFORM_1
    tilde = catalog.precompose_linear(F, q3.T, name="cylinder-s5-circleform")
    _decomposition_check(report, tilde, (1.0 / SQ2, 0.5, 0.5), per_axis, basis=catalog.S5_CYL_BASIS)


def _legendre_circle_suite(report, per_axis, _param):
    geo, app = _legendre_curve_checks(report, catalog.legendre_curve("circle"), per_axis)
    res = abs(app.curvature_values[0] - 1.0) if app.order == 2 else float("inf")
    chk = imm.CheckResult("frenet_circle", res, 1e-8)
    chk.extra["order"] = app.order
    report.add(chk)
    report.add(imm.CheckResult("phi_alignment_zero", abs(phi_alignment(app)), 1e-10))
    _mean_curvature_checks(report, geo.mean_curvature_norm, want=1.0)


def _legendre_helix_suite(report, per_axis, kappa1):
    geo, app = _legendre_curve_checks(report, catalog.legendre_curve("helix", kappa1=kappa1), per_axis)
    res = abs(app.curvature_values[0] - kappa1) if app.order == 3 else float("inf")
    chk = imm.CheckResult("frenet_helix", res, 1e-8)
    chk.extra["order"] = app.order
    report.add(chk)
    report.computed["curvatures"] = [format_value(v) for v in app.curvature_values]
    B = math.sqrt(1.0 - kappa1)
    report.add(imm.CheckResult("phi_alignment_magnitude", abs(abs(phi_alignment(app)) - B), 1e-10))
    _mean_curvature_checks(report, geo.mean_curvature_norm, want=kappa1)


def _minus4_suite(report, per_axis, index):
    F = catalog.minus4_immersion(index)
    base = _CURVE_BASE_FRACTIONS * np.asarray(F.sample_box)
    geo = imm.sample_geometry(F, F.grid(per_axis))
    _integral_submanifold_checks(report, geo, mode="minus4", bah_factor=6.0)
    tup = classifier.SolutionTuple(*catalog.MINUS4_TUPLES[index - 1], c=1.0, mode="minus4")
    tables = classifier.curvature_tables(tup)
    for axis, label in ((0, "X1"), (1, "X2"), (2, "X3")):
        _frenet_check(report, F, axis, base, tables[label], per_axis, label)


def _cylinder_minus4_suite(report, per_axis, index):
    F = catalog.cylinder(catalog.minus4_immersion(index))
    jet = F.jets(F.grid(per_axis), 1)
    report.add(imm.check_unit_norm(jet.value))
    _decomposition_check(report, F, MINUS4_RADII[index - 1], per_axis, jet=jet)


_SUITES = {
    "corollary-c1": _corollary_suite,
    "s5-surface": _s5_suite,
    "cylinder-c1": _cylinder_c1_suite,
    "cylinder-s5": _cylinder_s5_suite,
    "legendre-circle": _legendre_circle_suite,
    "legendre-helix": _legendre_helix_suite,
    "minus4": _minus4_suite,
    "cylinder-minus4": _cylinder_minus4_suite,
}


def build_report(name: str, per_axis: int = 5, tol: float | None = None) -> VerificationReport:
    """Run the full check suite of a registered example; see EXAMPLE_NAMES.

    The name and grid are validated before any geometry runs (UsageError).
    ``tol``, when given, replaces the tolerance of every check.
    """
    family, param = parse_example(name)
    if per_axis < 1:
        raise UsageError(f"grid needs at least 1 point per axis, got {per_axis}")
    report = VerificationReport(subject=name)
    report.computed["grid_points_per_axis"] = per_axis
    report.computed["tolerance_override"] = tol
    _SUITES[family](report, per_axis, param)
    if tol is not None:
        report.checks = [dataclasses.replace(c, tolerance=tol) for c in report.checks]
    return report


def classification_report(c: float | None = None, mode: str = "biharmonic") -> dict:
    """Classification output (flat tuples, curve-x-sphere data, traces) as a dict."""
    if mode == "minus4":
        solutions, traces = classifier.solve_minus4_flat()
        case_ii = [classifier.solve_minus4_caseII()]
        c_val = 1.0
    else:
        c_val = float(c)
        solutions, traces = classifier.solve_flat(c_val)
        case_ii = classifier.solve_caseII(c_val)

    def tuple_entry(s):
        entry = {
            "case": s.case,
            "c": s.c,
            "lam": format_value(s.lam),
            "alpha": format_value(s.alpha),
            "gamma": format_value(s.gamma),
            "delta": format_value(s.delta),
            "omega": s.omega,
            "source": s.source,
            "flags": list(s.flags),
            "system_residual": s.system_residual(),
            "curvature_tables": {
                k: [format_value(v) for v in vs] for k, vs in classifier.curvature_tables(s).items()
            },
        }
        return entry

    return {
        "mode": mode,
        "c": c_val,
        "flat_solutions": [tuple_entry(s) for s in solutions],
        "case_ii": [
            {
                "subcase": s.subcase,
                "c": s.c,
                "lam": None if s.lam is None else format_value(s.lam),
                "kappa1": format_value(s.kappa1),
                "kappa2": format_value(s.kappa2),
                "radius": format_value(s.radius),
                "flags": list(s.flags),
            }
            for s in case_ii
        ],
        "reduction_traces": [
            {
                "omega_branch": t.omega_branch,
                "polynomial": list(t.polynomial),
                "factors": [list(f) for f in t.factors],
                "roots": [{"omega": w, "multiplicity": m} for w, m in t.roots],
                "accepted": list(t.accepted),
                "rejected": [{"omega": r.omega, "reason": r.reason} for r in t.rejected],
                "notes": list(t.notes),
            }
            for t in traces
        ],
    }
