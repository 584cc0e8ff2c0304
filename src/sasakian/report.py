"""Verification report assembly for the registered example immersions.

Each registered name maps to an immersion plus the full check suite its
construction is supposed to satisfy (unit norm, integral condition,
C-parallelism, normal Laplacian identity, bitension, Frenet data, lattices,
circle decompositions, coordinate-Laplacian eigenvalues).  Reports serialize
to JSON (round-trip stable), CSV (``check,residual,tolerance,pass``) and
plain text.

The JSON writer ``json_text``, ``format_value`` with its closed forms and
``classification_report`` live in ``sasakian.output``, which imports no numpy,
so that a classify run loads none; ``report`` imports the three back.
"""

from __future__ import annotations

import io
import math

import numpy as np

from . import ambient, catalog, classifier, immersion as imm
from .frenet import FrenetError, frenet, phi_alignment
# nothing here calls classification_report; it is kept readable as report.classification_report
from .output import SQ2, SQ3, SQ13, classification_report, format_value, json_text


class VerificationReport:
    def __init__(self, subject: str):
        self.subject = subject
        self.checks: list[imm.CheckResult] = []
        self.computed: dict = {}

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: imm.CheckResult):
        self.checks.append(check)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "checks": [
                {"name": c.name, "residual": float(c.residual), "tolerance": float(c.tolerance), "pass": bool(c.passed)}
                for c in self.checks
            ],
            "computed": self.computed,
        }

    def to_json(self) -> str:
        return json_text(self.to_dict())

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
    """A verify request names no registered example or asks for an empty or oversized grid."""


def parse_example(name: str) -> tuple[str, float | None]:
    """The ``_SUITES`` key of an example name and the parameter its suite takes.

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
        return "legendre-helix:<kappa1>", kappa1
    if name in _SUITES:
        return name, _SUITES[name][2]
    family, _, text = name.rpartition("-")
    indices = [str(i) for key, (_, _, i) in _SUITES.items() if i is not None and key.rpartition("-")[0] == family]
    if indices:
        raise UsageError(f"{family} needs an index {', '.join(indices[:-1])} or {indices[-1]}, got {text!r}")
    raise UsageError(f"unknown example {name!r}; registered: {', '.join(EXAMPLE_NAMES)}")


# a suite's one ``imm.geometry_pass`` runs its per-point checks block by block
# and keeps for the whole grid only what a statistic over all points reads:
# |H| (its variance and mean) and the coordinate Laplacian (the eigenvalues)
_NORM_FIELDS = ("mean_curvature_norm",)
_EIGEN_FIELDS = ("coordinate_laplacian",)


def _unit_norm(sample):
    return imm.check_unit_norm(sample.values)


def _frenet_check(report, F, axis, base, want, per_axis, label):
    curve = catalog.coordinate_curve(F, axis, base)
    res = spread = math.inf
    extra = {}
    try:
        app = frenet(curve, curve.grid(max(per_axis, 5)))
    except FrenetError as ex:
        extra = {"error": str(ex)}
    else:
        got = app.curvature_values
        if app.order == len(want) + 1:
            res = float(np.max(np.abs(np.subtract(got, want))))
        spread = float(np.max(app.curvature_spreads)) if len(app.curvature_spreads) else 0.0
        report.computed[f"curvatures_{label}"] = [format_value(v) for v in got]
    report.add(imm.CheckResult(f"frenet_{label}", res, 1e-8, extra))
    report.add(imm.CheckResult(f"frenet_{label}_constancy", spread, 1e-8, extra))


def _mean_curvature_checks(report, h, want=None):
    """Constancy (and value) of |H| over the sampled norms ``h``."""
    report.add(imm.CheckResult("mean_curvature_constant", float(np.var(h)), 1e-16))
    report.computed["mean_curvature"] = format_value(float(np.mean(h)))
    if want is not None:
        report.add(imm.CheckResult("mean_curvature_value", float(np.max(np.abs(h - want))), 1e-10))


def _trace_bah_check(sample, factor):
    B, H = sample.second_fundamental, sample.mean_curvature
    bah = np.einsum("nik,nikd->nd", np.einsum("nikd,nd->nik", B, H), B)
    return imm.CheckResult("trace_b_ah", float(np.max(np.abs(bah - factor * H))), 1e-8)


def _integral_suite(report, F, per_axis, tup=None, want_h=None, fields=()):
    """The suite of a maximum-dimension integral example F; returns the geometry.

    For the flat 3-torus F of a solver tuple ``tup``, the bitension mode, the
    factor k of trace B(A_H ., .) = k H and the curvatures of the coordinate
    curves X1, X2, X3 come from ``tup``.  ``fields`` names what the caller's
    later checks read besides.
    """
    mode = "biharmonic" if tup is None else tup.mode
    checks = [_unit_norm, imm.check_integral, imm.check_C_parallel, imm.check_normal_laplacian,
              lambda sample: imm.check_bitension(sample, mode)]
    if tup is not None:
        checks.append(lambda sample: _trace_bah_check(sample, tup.k))
    geo = imm.geometry_pass(F, F.grid(per_axis), _NORM_FIELDS + fields, checks)
    unit, integral, cp, normal, *rest = geo.checks
    report.checks += [unit, integral, cp, imm.CheckResult("s_symmetry", cp.extra["total_symmetry"], 1e-10), normal]
    _mean_curvature_checks(report, geo.mean_curvature_norm, want_h)
    report.checks += rest  # bitension, and trace B(A_H ., .) for a tuple
    if tup is not None:
        base = _CURVE_BASE_FRACTIONS * np.asarray(F.sample_box)
        for axis, (label, want) in enumerate(classifier.curvature_tables(tup).items()):
            _frenet_check(report, F, axis, base, want, per_axis, label)
    return geo


def _flow_cylinder_checks(report, F, per_axis, want_h=None, fields=()):
    """The shared opening of the Reeb-flow cylinder suites; returns the geometry.

    ``fields`` names what the suite's later checks read besides.
    """
    geo = imm.geometry_pass(F, F.grid(per_axis), _NORM_FIELDS + fields, (_unit_norm, imm.check_bitension))
    unit, bitension = geo.checks
    report.add(unit)
    # the cylinder direction is the Reeb flow: eta0(d_t y) = 1 exactly
    eta_t = ambient.eta0(geo.values, geo.tangents[:, 0])
    report.add(imm.CheckResult("flow_direction", float(np.max(np.abs(eta_t - 1.0))), 1e-10))
    _mean_curvature_checks(report, geo.mean_curvature_norm, want_h)
    report.add(bitension)
    return geo


def _sample_lattice_check(geo, vectors, rows):
    """``lattice_check`` based at the first ``rows`` points of a sample's grid."""
    return imm.lattice_check(geo.immersion, vectors, geo.points[:rows], base=geo.values[:rows])


def _legendre_suite(report, F, per_axis, label, order, kappa1, align_name, align_want):
    """The shared suite of the Legendre curves; returns the Frenet apparatus, or None.

    A FrenetError fails the Frenet and phi-alignment checks with residual inf.
    """
    pts = F.grid(max(per_axis, 5))
    geo = imm.geometry_pass(F, pts, _NORM_FIELDS, (_unit_norm, imm.check_integral, imm.check_bitension))
    report.checks += geo.checks
    res = alignment = math.inf
    extra = {}
    try:
        app = frenet(F, pts.ravel())
        alignment = abs(abs(phi_alignment(app)) - align_want)
    except FrenetError as ex:
        app, extra = None, {"error": str(ex)}
    else:
        if app.order == order:
            res = abs(app.curvature_values[0] - kappa1)
    report.add(imm.CheckResult(f"frenet_{label}", res, 1e-8, extra))
    report.add(imm.CheckResult(align_name, alignment, 1e-10, extra))
    _mean_curvature_checks(report, geo.mean_curvature_norm, want=kappa1)
    return app


def _decomposition_check(report, F, want_radii, per_axis, basis=None, geo=None):
    # ``geo`` is F's geometry on F.grid(per_axis); below 3 points per axis the
    # decomposition samples a grid of its own
    geo = geo if per_axis >= 3 else None
    res = sum_sq = math.inf
    extra = {}
    try:
        dec = catalog.circle_decomposition(F, per_axis=max(per_axis, 3), basis=basis, geometry=geo)
    except ValueError as ex:
        extra = {"error": str(ex)}
    else:
        got = np.sort(dec.radii)
        res = float(np.max(np.abs(got - np.sort(np.asarray(want_radii, dtype=float)))))
        sum_sq = abs(float(np.sum(dec.radii**2)) - 1.0)
        report.computed["decomposition_radii"] = [format_value(v) for v in got]
    report.add(imm.CheckResult("decomposition", res, 1e-10, extra))
    report.add(imm.CheckResult("decomposition_sum_sq", sum_sq, 1e-12, extra))


def _eigencheck(report, geo, split, want):
    res = imm.coordinate_laplacian_eigencheck(geo, split)
    for (name, chk), mu_want in zip(sorted(res.items()), [want[k] for k in sorted(want)]):
        mu = chk.extra["eigenvalue"]
        report.add(chk._replace(residual=float(np.max([chk.residual, abs(mu - mu_want)]))))
        report.computed[chk.name] = format_value(mu)


MINUS4_RADII = (
    (math.sqrt((5.0 - SQ13) / 12.0),) + (math.sqrt((7.0 + SQ13) / 36.0),) * 3,
    (math.sqrt((3.0 + SQ3) / 12.0),) * 2 + (math.sqrt((3.0 - SQ3) / 12.0),) * 2,
    (math.sqrt((5.0 + SQ13) / 12.0),) + (math.sqrt((7.0 - SQ13) / 36.0),) * 3,
)

_CURVE_BASE_FRACTIONS = np.array([0.23, 0.41, 0.67])


def _corollary_suite(report, per_axis, _param):
    tup, F = catalog.corollary_torus()
    geo = _integral_suite(report, F, per_axis, tup, want_h=2.0 / 3.0, fields=_EIGEN_FIELDS)
    report.add(_sample_lattice_check(geo, catalog.COROLLARY_LATTICE, per_axis**2))
    _eigencheck(report, geo, {"x1": [3], "x2": [0, 1, 2]}, {"x1": 1.0, "x2": 5.0})


def _s5_suite(report, per_axis, _param):
    geo = _integral_suite(report, catalog.s5_surface(), per_axis)
    report.add(_sample_lattice_check(geo, catalog.S5_LATTICE, per_axis**2))


def _cylinder_c1_suite(report, per_axis, _param):
    F = catalog.cylinder(catalog.corollary_torus()[1])
    geo = _flow_cylinder_checks(report, F, per_axis, want_h=0.5, fields=_EIGEN_FIELDS)
    _decomposition_check(report, F, (1.0 / SQ2,) + (1.0 / math.sqrt(6.0),) * 3, per_axis, geo=geo)
    q4 = catalog.T4_TRANSFORM_2 @ catalog.T4_TRANSFORM_1
    tilde = catalog.precompose_linear(F, q4.T, name="cylinder-c1-circleform")
    lattice = imm.lattice_check(tilde, catalog.T4_CYLINDER_LATTICE_TILDE, tilde.grid(3)[:20])
    report.add(lattice._replace(name="lattice_transformed"))
    original_gens = [q4.T @ np.asarray(a) for a in catalog.T4_CYLINDER_LATTICE_TILDE]
    report.add(_sample_lattice_check(geo, original_gens, 20)._replace(name="lattice_original"))
    _eigencheck(report, geo, {"y1": [3], "y2": [0, 1, 2]}, {"y1": 2.0, "y2": 6.0})


def _cylinder_s5_suite(report, per_axis, _param):
    F = catalog.cylinder(catalog.s5_surface())
    geo = _flow_cylinder_checks(report, F, per_axis)
    report.add(_sample_lattice_check(geo, catalog.S5_CYLINDER_LATTICE, 20))
    q3 = catalog.S5_CYL_TRANSFORM_2 @ catalog.S5_CYL_TRANSFORM_1
    tilde = catalog.precompose_linear(F, q3.T, name="cylinder-s5-circleform")
    _decomposition_check(report, tilde, (1.0 / SQ2, 0.5, 0.5), per_axis, basis=catalog.S5_CYL_BASIS)


def _legendre_circle_suite(report, per_axis, _param):
    _legendre_suite(report, catalog.legendre_circle(), per_axis, "circle", 2, 1.0, "phi_alignment_zero", 0.0)


def _legendre_helix_suite(report, per_axis, kappa1):
    F = catalog.legendre_helix(kappa1)
    app = _legendre_suite(report, F, per_axis, "helix", 3, kappa1, "phi_alignment_magnitude", math.sqrt(1.0 - kappa1))
    if app is not None:
        report.computed["curvatures"] = [format_value(v) for v in app.curvature_values]


def _minus4_suite(report, per_axis, index):
    tup, F = catalog.minus4_torus(index)
    _integral_suite(report, F, per_axis, tup)


def _cylinder_minus4_suite(report, per_axis, index):
    F = catalog.cylinder(catalog.minus4_torus(index)[1])
    geo = imm.geometry_pass(F, F.grid(per_axis))
    report.add(imm.check_unit_norm(geo.values))
    _decomposition_check(report, F, MINUS4_RADII[index - 1], per_axis, geo=geo)


# example name -> (parameter dimension m, suite, index or None); a suite samples
# per_axis ** m points, and the helix row serves every legendre-helix:<kappa1>
_SUITES = {
    "corollary-c1": (3, _corollary_suite, None),
    "s5-surface": (2, _s5_suite, None),
    "cylinder-c1": (4, _cylinder_c1_suite, None),
    "cylinder-s5": (3, _cylinder_s5_suite, None),
    "legendre-circle": (1, _legendre_circle_suite, None),
    "legendre-helix:<kappa1>": (1, _legendre_helix_suite, None),
    **{f"{family}-{i}": (m, suite, i)
       for family, m, suite in (("minus4", 3, _minus4_suite), ("cylinder-minus4", 4, _cylinder_minus4_suite))
       for i in (1, 2, 3)},
}
EXAMPLE_NAMES = tuple(_SUITES)

# A report holds the jets and checked fields of one block of
# imm.GEOMETRY_BLOCK_COEFFICIENTS jet coefficients at a time, about 4.8 MB.
# The cap bounds what grows with the grid: run time (in process, about 0.4 s
# for cylinder-c1 at grid 11, 14,641 points, and corollary-c1 at grid 27,
# 19,683) and the 0.33-0.4 KB a point kept for the whole grid (43 MB peak RSS
# for corollary-c1 at grid 27).
MAX_GRID_POINTS = 20000


def build_report(name: str, per_axis: int = 5, tol: float | None = None) -> VerificationReport:
    """Run the full check suite of a registered example; see EXAMPLE_NAMES.

    The name and grid are validated before any geometry runs (UsageError):
    a grid needs 1 to ``MAX_GRID_POINTS`` points in all.
    ``tol``, when given, replaces the tolerance of every check.
    """
    key, param = parse_example(name)
    if per_axis < 1:
        raise UsageError(f"grid needs at least 1 point per axis, got {per_axis}")
    m, suite, _ = _SUITES[key]
    if per_axis**m > MAX_GRID_POINTS:
        raise UsageError(f"grid {per_axis} samples {per_axis}^{m} points; at most {MAX_GRID_POINTS} are allowed")
    report = VerificationReport(subject=name)
    report.computed["grid_points_per_axis"] = per_axis
    report.computed["tolerance_override"] = tol
    suite(report, per_axis, param)
    if tol is not None:
        report.checks = [c._replace(tolerance=tol) for c in report.checks]
    return report
