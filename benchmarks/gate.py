"""Correctness gate for one command's output.

The gate does not trust the code under test.  It takes the expected values
from the paper's closed forms written out here, reads the command's JSON
output, and re-checks every accepted flat tuple by substituting it into the
expanded scalar system itself.  Every problem found is returned as a string;
an empty list means the output is correct.

Each check also yields a headroom, log10(tolerance / residual): how many
decimal digits the output stays inside its tolerance.
"""

from __future__ import annotations

import math

# bound at import, before any tracing wraps the package, so the gate's own
# calls are never counted as package work
from sasakian.shape_algebra import expanded_system_residual

SQ2, SQ3, SQ5, SQ10, SQ13 = (math.sqrt(x) for x in (2.0, 3.0, 5.0, 10.0, 13.0))

# (lam, alpha, gamma, delta): the unique flat proper-biharmonic tuple at c = 1
COROLLARY_TUPLE = (-1.0 / SQ5, 3.0 * SQ3 / SQ10, -SQ3 / SQ10, SQ2)
# the three flat (-4)-biharmonic tuples in the unit 7-sphere
MINUS4_TUPLES = (
    (-math.sqrt((4.0 - SQ13) / 3.0), math.sqrt((7.0 - SQ13) / 6.0), -math.sqrt((7.0 - SQ13) / 6.0), 0.0),
    (-math.sqrt(1.0 / (5.0 + 2.0 * SQ3)), math.sqrt((45.0 + 21.0 * SQ3) / 13.0), -math.sqrt(6.0 / (21.0 + 11.0 * SQ3)), 0.0),
    (
        -math.sqrt(1.0 / (6.0 + SQ13)),
        math.sqrt((523.0 + 139.0 * SQ13) / 138.0),
        -math.sqrt((79.0 - 17.0 * SQ13) / 138.0),
        math.sqrt((14.0 + 2.0 * SQ13) / 3.0),
    ),
)
TUPLE_TOL = 1e-12
RESUBSTITUTION_TOL = 1e-10
# below this residual the headroom is capped; an exact zero has no logarithm
RESIDUAL_FLOOR = 1e-300

# Checks every report of an example must contain, with the largest tolerance
# each may use, as the seed version of the package emits them.  New checks
# may appear; none of these may vanish or loosen.
_FLAT_TORUS = {
    "unit_norm": 1e-13, "integral": 1e-10, "c_parallel": 1e-8, "s_symmetry": 1e-10,
    "normal_laplacian": 1e-8, "mean_curvature_constant": 1e-16, "trace_b_ah": 1e-8,
    "frenet_X1": 1e-8, "frenet_X1_constancy": 1e-8, "frenet_X2": 1e-8,
    "frenet_X2_constancy": 1e-8, "frenet_X3": 1e-8, "frenet_X3_constancy": 1e-8,
}
_CURVE = {"unit_norm": 1e-13, "integral": 1e-10, "bitension": 1e-8, "mean_curvature_constant": 1e-16,
          "mean_curvature_value": 1e-10}
REQUIRED_CHECKS = {
    "corollary-c1": {**_FLAT_TORUS, "mean_curvature_value": 1e-10, "bitension": 1e-8, "lattice": 1e-10,
                     "laplacian_eigen_x1": 1e-10, "laplacian_eigen_x2": 1e-10},
    "s5-surface": {"unit_norm": 1e-13, "integral": 1e-10, "c_parallel": 1e-8, "s_symmetry": 1e-10,
                   "normal_laplacian": 1e-8, "mean_curvature_constant": 1e-16, "bitension": 1e-8,
                   "lattice": 1e-10},
    "cylinder-c1": {"unit_norm": 1e-13, "flow_direction": 1e-10, "mean_curvature_constant": 1e-16,
                    "mean_curvature_value": 1e-10, "bitension": 1e-8, "decomposition": 1e-10,
                    "decomposition_sum_sq": 1e-12, "lattice_transformed": 1e-10, "lattice_original": 1e-10,
                    "laplacian_eigen_y1": 1e-10, "laplacian_eigen_y2": 1e-10},
    "cylinder-s5": {"unit_norm": 1e-13, "flow_direction": 1e-10, "mean_curvature_constant": 1e-16,
                    "bitension": 1e-8, "lattice": 1e-10, "decomposition": 1e-10, "decomposition_sum_sq": 1e-12},
    "legendre-circle": {**_CURVE, "frenet_circle": 1e-8, "phi_alignment_zero": 1e-10},
    "legendre-helix": {**_CURVE, "frenet_helix": 1e-8, "phi_alignment_magnitude": 1e-10},
    "minus4": {**_FLAT_TORUS, "bitension_minus4": 1e-8},
    "cylinder-minus4": {"unit_norm": 1e-13, "decomposition": 1e-10, "decomposition_sum_sq": 1e-12},
}


def _family(example: str) -> str:
    if example.startswith("legendre-helix:"):
        return "legendre-helix"
    head, _, tail = example.rpartition("-")
    if head in ("minus4", "cylinder-minus4") and tail.isdigit():
        return head
    return example


def _headroom(tolerance: float, residual: float) -> float:
    return math.log10(tolerance / max(residual, RESIDUAL_FLOOR))


def check_verify(argv: list[str], exit_code: int, doc: dict) -> tuple[list[str], list[float]]:
    example = argv[1]
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if doc.get("subject") != example:
        problems.append(f"subject {doc.get('subject')!r} is not {example!r}")
    checks = {c["name"]: c for c in doc.get("checks", [])}
    for name, max_tol in REQUIRED_CHECKS[_family(example)].items():
        if name not in checks:
            problems.append(f"check {name} missing")
        elif not checks[name]["tolerance"] <= max_tol:
            problems.append(f"check {name} tolerance {checks[name]['tolerance']:g} above {max_tol:g}")
    headrooms = []
    for name, c in checks.items():
        residual, tolerance = c["residual"], c["tolerance"]
        if not (math.isfinite(residual) and residual < tolerance and c["pass"] is True):
            problems.append(f"check {name} failed: residual {residual:.3e}, tolerance {tolerance:g}")
        else:
            headrooms.append(_headroom(tolerance, residual))
    return problems, headrooms


def _flat_residual(tup: tuple[float, float, float, float], c: float, mode: str) -> float:
    lam, alpha, gamma, delta = tup
    b = (c + 3.0) / 4.0
    # flat case: lambda_1 = (lam^2 - b) / lam, lambda_2 = lambda_3 = lam, beta = 0
    params = ((lam * lam - b) / lam, lam, lam, alpha, 0.0, gamma, delta)
    arg = "minus4" if mode == "minus4" else c
    return max(abs(float(r)) for r in expanded_system_residual(params, arg))


def _matches(got: list[tuple], want: tuple[tuple, ...]) -> bool:
    if len(got) != len(want):
        return False
    unused = list(want)
    for g in got:
        hit = next((w for w in unused if max(abs(a - b) for a, b in zip(g, w)) <= TUPLE_TOL), None)
        if hit is None:
            return False
        unused.remove(hit)
    return True


def check_classify(argv: list[str], exit_code: int, doc: dict) -> tuple[list[str], list[float]]:
    minus4 = "minus4" in argv
    mode = "minus4" if minus4 else "biharmonic"
    c = 1.0 if minus4 else float(argv[argv.index("--c") + 1])
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if doc.get("mode") != mode or doc.get("c") != c:
        problems.append(f"output is for mode {doc.get('mode')!r}, c {doc.get('c')!r}")
    tuples = [tuple(s[k]["value"] for k in ("lam", "alpha", "gamma", "delta")) for s in doc.get("flat_solutions", [])]
    if minus4 and not _matches(tuples, MINUS4_TUPLES):
        problems.append(f"minus4 tuples {tuples} are not the three closed-form tuples")
    elif not minus4 and c == 1.0 and not _matches(tuples, (COROLLARY_TUPLE,)):
        problems.append(f"c = 1 tuples {tuples} are not the corollary tuple")
    elif not minus4 and c <= -1.0 / 3.0 and tuples:
        problems.append(f"c = {c!r} <= -1/3 admits no solution, got {len(tuples)}")
    headrooms = []
    for tup in tuples:
        if tup[0] == 0.0:
            problems.append(f"tuple {tup} has lam = 0")
            continue
        residual = _flat_residual(tup, c, mode)
        if not residual <= RESUBSTITUTION_TOL:
            problems.append(f"tuple {tup} re-substitution residual {residual:.3e}")
        else:
            headrooms.append(_headroom(RESUBSTITUTION_TOL, residual))
    return problems, headrooms


def check(argv: list[str], exit_code: int, doc: dict) -> tuple[list[str], list[float]]:
    """Problems found in the output of ``sasakian <argv>``, and its headrooms."""
    if argv[0] == "verify":
        return check_verify(argv, exit_code, doc)
    return check_classify(argv, exit_code, doc)
