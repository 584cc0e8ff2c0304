"""Verification report assembly for the registered example immersions.

Each registered name maps to an immersion plus the full check suite its
construction is supposed to satisfy (unit norm, integral condition,
C-parallelism, normal Laplacian identity, bitension, Frenet data, lattices,
circle decompositions, coordinate-Laplacian eigenvalues).  Reports serialize
to JSON (round-trip stable), CSV (``check,residual,tolerance,pass``) and
plain text.

Every JSON output, verify and classify alike, is written by ``json_text``: a
recursive writer that appends to one list of strings and joins it once.  Its
text is ``json.dumps(obj, indent=2, sort_keys=True) + "\n"`` byte for byte,
at about half the cost, because with ``indent`` the stdlib falls back to its
generator-based pure-Python encoder.  The bytes agree because the writer
follows that encoder's rules: strings go through the same C escape
(``json.encoder.encode_basestring_ascii``), floats through
``float.__repr__`` with ``NaN``/``Infinity``/``-Infinity`` for non-finite
values, ints through ``int.__repr__`` after ``True``/``False``/``None``,
lists and tuples as arrays, keys sorted, ``{}``/``[]`` for empty containers,
each item on its own line indented two spaces per level, items separated by
``,`` and keys by ``": "``.  Any other value raises ``TypeError``, and so
does a key that is not a ``str`` (``json.dumps`` would convert it; no report
has one).  The writer dispatches on the exact type first and writes float and
str leaves inline in its container loops; subclasses, such as ``np.float64``
or an ``IntEnum``, take the ``isinstance`` path and are written as their base
type.  Separators and quoted keys come from tables built once per process.
"""

from __future__ import annotations

import bisect
import dataclasses
import io
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import catalog, classifier, immersion as imm
from .ambient import complex_structure
from .frenet import FrenetError, frenet, phi_alignment

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


# the forms in ascending order of value, with the match tolerance of each;
# neighbours lie further apart than the sum of their tolerances, so a value
# matches at most one form, and it is a neighbour of the value's place in this order
_SORTED_FORMS = sorted(SYMBOLIC_FORMS)
_SORTED_VALUES = [v for v, _ in _SORTED_FORMS]
_SORTED_SYMBOLS = [s for _, s in _SORTED_FORMS]
_MATCH_TOLS = [1e-12 * max(1.0, abs(v)) for v in _SORTED_VALUES]


def symbolize(value: float) -> str | None:
    # every form before i is below value and the form at i is not: |value - v|
    # is value - v before i and v - value at i, without a call to abs
    i = bisect.bisect_left(_SORTED_VALUES, value)
    if i and value - _SORTED_VALUES[i - 1] <= _MATCH_TOLS[i - 1]:
        return _SORTED_SYMBOLS[i - 1]
    if i < len(_SORTED_VALUES) and _SORTED_VALUES[i] - value <= _MATCH_TOLS[i]:
        return _SORTED_SYMBOLS[i]
    return None


def format_value(value: float) -> dict:
    out = {"value": float(value), "decimal": f"{value:.17g}"}
    sym = symbolize(value)
    if sym is not None:
        out["symbolic"] = sym
    return out


# float.__repr__ of the non-finite values, as json.dumps writes them
_FLOAT_TOKENS = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _separators(depth: int) -> tuple[str, str, str, str, str]:
    """(opening of a dict, opening of a list, between items, closing of a dict,
    closing of a list) for a container at ``depth``."""
    outer = "\n" + "  " * depth
    inner = outer + "  "
    return "{" + inner, "[" + inner, "," + inner, outer + "}", outer + "]"


# the separators at the depths reports use; deeper containers build theirs
_LEVELS = tuple(_separators(depth) for depth in range(16))
# a str key -> its quoted text and ": "; the reports' keys are a fixed set of
# a few dozen names
_KEY_PREFIXES: dict[str, str] = {}


def _key_prefix(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    prefix = _quote(key) + ": "
    if type(key) is str:
        _KEY_PREFIXES[key] = prefix
    return prefix


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte (see module docstring)."""
    out: list[str] = []
    _write_json(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _write_json(o, out: list[str], depth: int) -> None:
    # exact dicts, lists, tuples, floats and strs by type; their subclasses and
    # the other scalars by isinstance, with True, False and None before int
    t = type(o)
    if t is not dict and t is not list and t is not tuple:
        if isinstance(o, str):
            out.append(_quote(o))
            return
        if isinstance(o, float):
            r = float.__repr__(o)
            out.append(_FLOAT_TOKENS.get(r, r))
            return
        if isinstance(o, dict):
            t = dict
        elif isinstance(o, (list, tuple)):
            t = list
        elif o is None:
            out.append("null")
            return
        elif o is True:
            out.append("true")
            return
        elif o is False:
            out.append("false")
            return
        elif isinstance(o, int):
            out.append(int.__repr__(o))
            return
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not o:
        out.append("{}" if t is dict else "[]")
        return
    opening_dict, opening_list, comma, closing_dict, closing_list = (
        _LEVELS[depth] if depth < len(_LEVELS) else _separators(depth)
    )
    depth += 1
    if t is dict:
        sep = opening_dict
        for key in sorted(o):
            prefix = _KEY_PREFIXES.get(key) or _key_prefix(key)
            value = o[key]
            vt = type(value)
            if vt is float:
                r = float.__repr__(value)
                out += (sep, prefix, _FLOAT_TOKENS.get(r, r))
            elif vt is str:
                out += (sep, prefix, _quote(value))
            else:
                out += (sep, prefix)
                _write_json(value, out, depth)
            sep = comma
        out.append(closing_dict)
    else:
        sep = opening_list
        for item in o:
            vt = type(item)
            if vt is float:
                r = float.__repr__(item)
                out += (sep, _FLOAT_TOKENS.get(r, r))
            elif vt is str:
                out += (sep, _quote(item))
            else:
                out.append(sep)
                _write_json(item, out, depth)
            sep = comma
        out.append(closing_list)


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


# the per-point fields of ``imm.PointGeometry`` that the checks read, which a
# suite's one ``imm.geometry_pass`` computes: bitension and |H| read tau,
# C-parallelism and the normal Laplacian the rest of _INTEGRAL_FIELDS, the
# trace of B(A_H ., .) also B
_BITENSION_FIELDS = ("tension", "tension_laplacian")
_INTEGRAL_FIELDS = ("phi_b_form", "c_parallel_defect", "normal_laplacian_defect") + _BITENSION_FIELDS
_TRACE_BAH_FIELDS = ("second_fundamental",)
_EIGEN_FIELDS = ("coordinate_laplacian",)


def _failed_checks(report, checks, ex):
    """Add every (name, tolerance) of ``checks`` as failed, with residual inf."""
    for name, tol in checks:
        chk = imm.CheckResult(name, float("inf"), tol)
        chk.extra["error"] = str(ex)
        report.add(chk)


def _frenet_check(report, F, axis, base, want, per_axis, label):
    curve = catalog.coordinate_curve(F, axis, base)
    try:
        app = frenet(curve, curve.grid(max(per_axis, 5)))
    except FrenetError as ex:
        _failed_checks(report, ((f"frenet_{label}", 1e-8), (f"frenet_{label}_constancy", 1e-8)), ex)
        return
    got = app.curvature_values
    res = max(abs(g - w) for g, w in zip(got, want)) if app.order == len(want) + 1 else float("inf")
    report.add(imm.CheckResult(f"frenet_{label}", res, 1e-8))
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


def _flow_cylinder_checks(report, F, per_axis, want_h=None, fields=()):
    """The shared opening of the Reeb-flow cylinder suites; returns the geometry.

    ``fields`` names what the suite's later checks read besides.
    """
    geo = imm.geometry_pass(F, F.grid(per_axis), _BITENSION_FIELDS + fields)
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


def _legendre_suite(report, F, per_axis, label, order, kappa1, align_name, align_want):
    """The shared suite of the Legendre curves; returns the Frenet apparatus, or None.

    A FrenetError fails the Frenet and phi-alignment checks with residual inf.
    """
    pts = F.grid(max(per_axis, 5))
    geo = imm.geometry_pass(F, pts, _BITENSION_FIELDS)
    report.add(imm.check_unit_norm(geo.values))
    report.add(imm.check_integral(geo))
    report.add(imm.check_bitension(geo))
    try:
        app = frenet(F, pts.ravel())
        alignment = abs(abs(phi_alignment(app)) - align_want)
    except FrenetError as ex:
        _failed_checks(report, ((f"frenet_{label}", 1e-8), (align_name, 1e-10)), ex)
        app = None
    else:
        res = abs(app.curvature_values[0] - kappa1) if app.order == order else float("inf")
        report.add(imm.CheckResult(f"frenet_{label}", res, 1e-8))
        report.add(imm.CheckResult(align_name, alignment, 1e-10))
    _mean_curvature_checks(report, geo.mean_curvature_norm, want=kappa1)
    return app


def _decomposition_check(report, F, want_radii, per_axis, basis=None, geo=None):
    # ``geo`` is F's geometry on F.grid(per_axis); below 3 points per axis the
    # decomposition samples a grid of its own
    geo = geo if per_axis >= 3 else None
    try:
        dec = catalog.circle_decomposition(F, per_axis=max(per_axis, 3), basis=basis, geometry=geo)
    except ValueError as ex:
        chk = imm.CheckResult("decomposition", float("inf"), 1e-10)
        chk.extra["error"] = str(ex)
        report.add(chk)
        return
    got = np.sort(dec.radii)
    want = np.sort(np.asarray(want_radii, dtype=float))
    res = float(np.max(np.abs(got - want)))
    report.add(imm.CheckResult("decomposition", res, 1e-10))
    report.add(imm.CheckResult("decomposition_sum_sq", abs(float(np.sum(dec.radii**2)) - 1.0), 1e-12))
    report.computed["decomposition_radii"] = [format_value(v) for v in got]


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
    geo = imm.geometry_pass(F, F.grid(per_axis), _INTEGRAL_FIELDS + _TRACE_BAH_FIELDS + _EIGEN_FIELDS)
    base = _CURVE_BASE_FRACTIONS * np.asarray(F.sample_box)
    _integral_submanifold_checks(report, geo, want_h=2.0 / 3.0, bah_factor=2.0)
    for axis, label in ((0, "X1"), (1, "X2"), (2, "X3")):
        _frenet_check(report, F, axis, base, COROLLARY_CURVATURES[label], per_axis, label)
    report.add(_sample_lattice_check(geo, catalog.COROLLARY_LATTICE, per_axis**2))
    _eigencheck(report, geo, {"x1": [3], "x2": [0, 1, 2]}, {"x1": 1.0, "x2": 5.0})


def _s5_suite(report, per_axis, _param):
    F = catalog.s5_surface()
    geo = imm.geometry_pass(F, F.grid(per_axis), _INTEGRAL_FIELDS)
    _integral_submanifold_checks(report, geo)
    report.add(_sample_lattice_check(geo, catalog.S5_LATTICE, per_axis**2))


def _cylinder_c1_suite(report, per_axis, _param):
    F = catalog.cylinder(catalog.corollary_immersion())
    geo = _flow_cylinder_checks(report, F, per_axis, want_h=0.5, fields=_EIGEN_FIELDS)
    _decomposition_check(report, F, (1.0 / SQ2,) + (1.0 / math.sqrt(6.0),) * 3, per_axis, geo=geo)
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
    _legendre_suite(report, catalog.legendre_circle(), per_axis, "circle", 2, 1.0, "phi_alignment_zero", 0.0)


def _legendre_helix_suite(report, per_axis, kappa1):
    F = catalog.legendre_helix(kappa1)
    B = math.sqrt(1.0 - kappa1)
    app = _legendre_suite(report, F, per_axis, "helix", 3, kappa1, "phi_alignment_magnitude", B)
    if app is not None:
        report.computed["curvatures"] = [format_value(v) for v in app.curvature_values]


def _minus4_suite(report, per_axis, index):
    F = catalog.minus4_immersion(index)
    base = _CURVE_BASE_FRACTIONS * np.asarray(F.sample_box)
    geo = imm.geometry_pass(F, F.grid(per_axis), _INTEGRAL_FIELDS + _TRACE_BAH_FIELDS)
    _integral_submanifold_checks(report, geo, mode="minus4", bah_factor=6.0)
    tup = classifier.SolutionTuple(*catalog.MINUS4_TUPLES[index - 1], c=1.0, mode="minus4")
    tables = classifier.curvature_tables(tup)
    for axis, label in ((0, "X1"), (1, "X2"), (2, "X3")):
        _frenet_check(report, F, axis, base, tables[label], per_axis, label)


def _cylinder_minus4_suite(report, per_axis, index):
    F = catalog.cylinder(catalog.minus4_immersion(index))
    geo = imm.geometry_pass(F, F.grid(per_axis))
    report.add(imm.check_unit_norm(geo.values))
    _decomposition_check(report, F, MINUS4_RADII[index - 1], per_axis, geo=geo)


# family -> (parameter dimension m, suite); a suite samples per_axis ** m points
_SUITES = {
    "corollary-c1": (3, _corollary_suite),
    "s5-surface": (2, _s5_suite),
    "cylinder-c1": (4, _cylinder_c1_suite),
    "cylinder-s5": (3, _cylinder_s5_suite),
    "legendre-circle": (1, _legendre_circle_suite),
    "legendre-helix": (1, _legendre_helix_suite),
    "minus4": (3, _minus4_suite),
    "cylinder-minus4": (4, _cylinder_minus4_suite),
}

# A report holds the jets of one block of imm.GEOMETRY_BLOCK_POINTS points at a
# time, which peak at about 18 KB per block point (cylinder-c1, tracemalloc),
# whatever the grid.  The cap bounds what still grows with the grid: run time
# (in process, about 0.9 s for cylinder-c1 at grid 11, 14,641 points, and for
# corollary-c1 at grid 27, 19,683 points) and the per-point arrays kept for the
# whole grid, up to 1.4 KB per point (corollary-c1; 74 MB peak RSS at grid 27).
MAX_GRID_POINTS = 20000


def build_report(name: str, per_axis: int = 5, tol: float | None = None) -> VerificationReport:
    """Run the full check suite of a registered example; see EXAMPLE_NAMES.

    The name and grid are validated before any geometry runs (UsageError):
    a grid needs 1 to ``MAX_GRID_POINTS`` points in all.
    ``tol``, when given, replaces the tolerance of every check.
    """
    family, param = parse_example(name)
    if per_axis < 1:
        raise UsageError(f"grid needs at least 1 point per axis, got {per_axis}")
    m, suite = _SUITES[family]
    if per_axis**m > MAX_GRID_POINTS:
        raise UsageError(
            f"grid {per_axis} samples {per_axis}^{m} points; at most {MAX_GRID_POINTS} are allowed"
        )
    report = VerificationReport(subject=name)
    report.computed["grid_points_per_axis"] = per_axis
    report.computed["tolerance_override"] = tol
    suite(report, per_axis, param)
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
            "system_residual": s.system_residual,
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
