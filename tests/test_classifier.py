import functools
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp

import oracles
from sasakian import classifier as cl
from sasakian import report as rep
from sasakian import shape_algebra as sa
from sasakian.catalog import COROLLARY_TUPLE, MINUS4_TUPLES
from sasakian.cli import MAX_ABS_C

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import workloads  # noqa: E402

SQ3, SQ13 = math.sqrt(3.0), math.sqrt(13.0)


def _as_array(s: cl.SolutionTuple) -> np.ndarray:
    return np.array([s.lam, s.alpha, s.gamma, s.delta])


@pytest.fixture(scope="module")
def flat_c1():
    return cl.solve_flat(1.0)


@pytest.fixture(scope="module")
def minus4():
    return cl.solve_minus4_flat()


def test_unique_solution_at_c1(flat_c1):
    sols, _ = flat_c1
    assert len(sols) == 1
    assert np.max(np.abs(_as_array(sols[0]) - np.array(COROLLARY_TUPLE))) < 1e-12
    assert sols[0].omega == pytest.approx(-3.0, abs=1e-9)
    assert sols[0].case == "FlatI"


def test_delta_zero_branch_has_no_solutions_at_c1(flat_c1):
    _, traces = flat_c1
    dz = next(t for t in traces if t.omega_branch == "delta_zero")
    assert dz.accepted == ()
    rejected_omegas = sorted(r.omega for r in dz.rejected)
    # the two rational-branch roots -1 and 1/3 both get rejected
    assert any(abs(w - 1.0 / 3.0) < 1e-9 for w in rejected_omegas)
    assert any(abs(w + 1.0) < 1e-3 for w in rejected_omegas)


def test_nonexistence_below_threshold():
    for c in (-1.0 / 3.0, -0.5, -2.0):
        sols, traces = cl.solve_flat(c)
        assert sols == [] and traces == []


def test_near_threshold_runs_clean():
    sols, traces = cl.solve_flat(-1.0 / 3.0 + 1e-3)
    assert isinstance(sols, list) and len(traces) == 2


def test_minus4_exactly_three_tuples(minus4):
    sols, _ = minus4
    assert len(sols) == 3
    for want in MINUS4_TUPLES:
        dist = min(np.max(np.abs(_as_array(s) - np.array(want))) for s in sols)
        assert dist < 1e-12


def test_minus4_trace_contents(minus4):
    _, traces = minus4
    dz = next(t for t in traces if t.omega_branch == "delta_zero")
    dp = next(t for t in traces if t.omega_branch == "delta_pos")
    assert any(abs(w - (-3.0 - 2.0 * SQ3)) < 1e-9 for w in dz.accepted)
    assert any(abs(w + 1.0) < 1e-12 for w in dz.accepted)  # alpha = -gamma family
    assert any(abs(w - (-4.0 - SQ13)) < 1e-9 for w in dp.accepted)
    # (-5 - 2 sqrt 13)/3 solves the system but breaks alpha <= lambda1
    w_rej = (-5.0 - 2.0 * SQ13) / 3.0
    reasons = {round(r.omega, 6): r.reason for r in dz.rejected}
    assert any(abs(w - w_rej) < 1e-6 and "lambda1" in reason for w, reason in reasons.items())


def test_every_solution_revalidates():
    for c in (1.0, 0.8, 2.0, 5.0, cl.CASE_II_LOWER, 1.0 + 1e-4):
        for s in _sweep_solutions(c):
            assert s.system_residual < 1e-10
            oracles.assert_proper_biharmonic(s.operators(), c)
    for s in _sweep_solutions("minus4"):
        assert s.system_residual < 1e-10
        oracles.assert_proper_biharmonic(s.operators(), "minus4")


def _workload_cs():
    """The c values of both classify workloads at seeds 1 to 3."""
    return sorted(
        {
            float(argv[argv.index("--c") + 1])
            for seed in (1, 2, 3)
            for workload in ("classify-reduction", "classify-sweep")
            for argv in workloads.items(workload, seed)
            if "--c" in argv
        }
    )


def test_system_residual_is_the_numpy_norm_bit_for_bit(monkeypatch):
    # every tuple the solver builds, accepted or rejected; np.linalg.norm runs
    # sqrt(v.dot(v)) on a real 1-D vector, and stays the oracle here
    built = []

    class Recorded(cl.SolutionTuple):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cl, "SolutionTuple", Recorded)
    cs = _workload_cs()
    assert len(cs) > 150
    for c in cs + [MAX_ABS_C, -MAX_ABS_C, 5e-324]:
        cl.solve_flat(c)
    cl.solve_minus4_flat()
    assert len(built) > 500 and {s.mode for s in built} == {"biharmonic", "minus4"}
    for s in built:
        arg = "minus4" if s.mode == "minus4" else s.c
        want = np.linalg.norm(sa.expanded_system_residual(s.operators(), arg))
        assert np.float64(s.system_residual).tobytes() == want.tobytes(), s


def test_system_residual_is_the_numpy_norm_where_the_summation_order_shows(monkeypatch):
    # the residuals of solved tuples have many zero entries, and their norms
    # come out the same under any order of summation; random residual vectors
    # tell a left-to-right sum of squares from numpy's dot on some BLAS kernels
    rng = np.random.default_rng(20261019)
    vectors = rng.standard_normal((2000, 3)) * 10.0 ** rng.integers(-12, 3, (2000, 1))
    for v in vectors:
        monkeypatch.setattr(sa, "expanded_system_residual", lambda ops, arg, v=v: v.copy())
        got = cl.SolutionTuple(-0.5, 0.25, -0.125, 0.0).system_residual
        assert np.float64(got).tobytes() == np.linalg.norm(v).tobytes(), v


def test_accepted_omegas_reproduce_tuples(minus4):
    sols, traces = minus4
    by_branch = {"delta_zero": [], "delta_pos": []}
    for s in sols:
        if s.source == "omega_reduction":
            by_branch["delta_pos" if s.delta > 0 else "delta_zero"].append(s)
    for branch, sols_b in by_branch.items():
        for s in sols_b:
            lam2, gam2, del2 = cl._branch_squares(branch, s.omega, 1.0, 6.0)
            rebuilt = np.array(
                [-math.sqrt(lam2), s.omega * -math.sqrt(gam2), -math.sqrt(gam2), math.sqrt(del2)]
            )
            assert np.max(np.abs(rebuilt - _as_array(s))) < 1e-12


def test_solver_determinism_across_seeds():
    a = _sweep_solutions(1.0, seed=0)
    b = _sweep_solutions(1.0, seed=987654)
    assert repr(a) == repr(b)
    a4 = _sweep_solutions("minus4", seed=0)
    b4 = _sweep_solutions("minus4", seed=31415)
    assert repr(a4) == repr(b4)


def test_sweep_adds_nothing_beyond_reduction():
    for c in (1.0, "minus4", cl.CASE_II_LOWER, 1.0 + 1e-4):
        with_sweep = _sweep_solutions(c)
        without, _ = cl.solve_minus4_flat() if c == "minus4" else cl.solve_flat(c)
        assert [repr(s) for s in with_sweep] == [repr(s) for s in without]
        assert all(s.source != "fallback" for s in with_sweep)


def test_case_ii_at_5_ninths():
    sols = cl.solve_caseII(5.0 / 9.0)
    ii1 = [s for s in sols if s.subcase == "II1"]
    assert len(ii1) == 1
    assert ii1[0].kappa1 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)
    assert ii1[0].kappa2 == pytest.approx(1.0)
    assert ii1[0].radius == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-14)


def test_case_ii1_params_satisfy_criterion():
    # the curve x sphere subcase at c = 5/9 solves the eigen-equation
    c = 5.0 / 9.0
    l1 = math.sqrt(c + 3.0) / (2.0 * math.sqrt(2.0))
    beta = math.sqrt(3.0 * (c + 3.0)) / (4.0 * math.sqrt(2.0))
    ops = sa.AdaptedShapeOperators(l1, l1 / 2.0, -l1, 0.0, beta, 0.0, 0.0)
    r, t = oracles.eigen_criterion_residual(ops, c)
    assert np.linalg.norm(r) < 1e-12
    assert np.linalg.norm(t) > 0.1


def test_case_ii_excluded_at_c1():
    assert cl.solve_caseII(1.0) == []


@pytest.mark.parametrize("c", [1.0 - 5e-13, 1.0 + 5e-13, math.nextafter(cl.CASE_II_LOWER, 2.0)])
def test_case_ii2_exists_at_every_float_off_its_thresholds(c):
    # the thresholds are decided on the exact input: c = 1 alone is excluded,
    # and the discriminant vanishes at CASE_II_LOWER alone
    sols = cl.solve_caseII(c)
    assert sols and all(s.subcase == "II2" and s.flags == () for s in sols)
    for s in sols:
        assert abs(cl.quartic_lambda_residual(s.lam**2, c)) < 1e-12


def test_case_ii_thresholds_are_exact():
    assert cl.solve_caseII(math.nextafter(cl.CASE_II_LOWER, 0.0)) == []
    at = cl.solve_caseII(cl.CASE_II_LOWER)
    assert [s.flags for s in at] == [("boundary: discriminant vanishes",)]
    for c in (5.0 / 9.0 - 5e-13, 5.0 / 9.0 + 5e-13):
        assert [s.subcase for s in cl.solve_caseII(c)] == ["II2", "II2"]
    assert [s.subcase for s in cl.solve_caseII(5.0 / 9.0)] == ["II1", "II2", "II2"]


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "solve",
    [cl.solve_flat, cl.solve_caseII, lambda c: rep.classification_report(c=c)],
    ids=["solve_flat", "solve_caseII", "classification_report"],
)
def test_non_finite_c_is_refused(solve, c):
    with pytest.raises(ValueError, match="must be finite") as info:
        solve(c)
    assert "\n" not in str(info.value)


def test_case_ii_empty_below_interval():
    assert cl.solve_caseII(0.4) == []
    assert [s for s in cl.solve_caseII(0.527) if s.subcase == "II2"] == []


def test_case_ii_at_c2_single_branch():
    sols = cl.solve_caseII(2.0)
    assert len(sols) == 1
    lam2 = sols[0].lam ** 2
    # oracle: direct root of 3 lam^4 - 2(c+1) lam^2 + (c+3)^2/16 at c = 2
    assert lam2 == pytest.approx((12.0 - math.sqrt(69.0)) / 12.0, abs=1e-13)
    assert abs(cl.quartic_lambda_residual(lam2, 2.0)) < 1e-13
    assert sols[0].lam < 0
    assert sols[0].kappa1 == pytest.approx((lam2 - 1.25) / sols[0].lam, abs=1e-13)
    assert sols[0].radius == pytest.approx(2.0 / math.sqrt(4.0 * lam2 + 5.0), abs=1e-13)


def test_case_ii_both_branches_below_c1():
    sols = [s for s in cl.solve_caseII(0.8) if s.subcase == "II2"]
    assert len(sols) == 2
    for s in sols:
        assert abs(cl.quartic_lambda_residual(s.lam**2, 0.8)) < 1e-12
        assert s.lam**2 < (0.8 + 3.0) / 4.0


def test_case_ii_params_satisfy_criterion():
    for c in (0.8, 2.0, 5.0):
        for s in cl.solve_caseII(c):
            if s.subcase != "II2":
                continue
            b = (c + 3.0) / 4.0
            ops = sa.AdaptedShapeOperators.case_I(s.lam, 0.0, 0.0, 0.0, b)
            r, t = oracles.eigen_criterion_residual(ops, c)
            assert np.linalg.norm(r) < 1e-10
            assert np.linalg.norm(t) > 1e-6


def test_minus4_case_ii_closed_forms():
    s = cl.solve_minus4_caseII()
    lam2 = s.lam ** 2
    assert lam2 == pytest.approx((4.0 - SQ13) / 3.0, abs=1e-15)
    assert s.kappa1 == pytest.approx((lam2 - 1.0) / s.lam, abs=1e-12)
    assert s.kappa1 == pytest.approx((SQ13 - 1.0) / math.sqrt(12.0 - 3.0 * SQ13), abs=1e-12)
    # radius identity: sqrt(3/(7 - sqrt 13)) = 1/sqrt(1 + lam^2)
    assert s.radius == pytest.approx(1.0 / math.sqrt(1.0 + lam2), abs=1e-14)


def test_curvature_tables_corollary():
    tup = cl.SolutionTuple(*COROLLARY_TUPLE, c=1.0)
    tables = cl.curvature_tables(tup)
    assert tables["X1"] == pytest.approx((4.0 / math.sqrt(5.0), 1.0), abs=1e-14)
    assert tables["X2"] == pytest.approx(
        (math.sqrt(2.9), 9.0 * math.sqrt(2.0 / 145.0), 2.0 * math.sqrt(3.0 / 145.0)), abs=1e-12
    )
    assert tables["X3"] == pytest.approx(
        (math.sqrt(2.5), 2.0 * math.sqrt(0.3), math.sqrt(0.3)), abs=1e-12
    )


def test_curvature_tables_degenerations():
    circle_tup = cl.SolutionTuple(*MINUS4_TUPLES[0], c=1.0, mode="minus4")
    tables = cl.curvature_tables(circle_tup)
    assert len(tables["X3"]) == 1  # delta = 0: the third curve is a circle
    assert tables["X3"][0] == pytest.approx(
        math.hypot(MINUS4_TUPLES[0][0], MINUS4_TUPLES[0][2]), abs=1e-14
    )
    degen = cl.SolutionTuple(-0.5, 0.0, 0.0, 0.0, c=1.0)
    tables = cl.curvature_tables(degen)
    assert tables["X2"] == (0.5,)
    assert tables["X3"] == (0.5,)


def _branch_polynomial_npp(branch, b, k):
    """The branch polynomial built with numpy.polynomial, the oracle of the convolution form."""
    m = 6.0 * b + k
    if branch == "delta_zero":
        D = np.array([6.0, -5.0, 1.0])
        PL = npp.polyadd(m * np.array([1.0, -1.0]), -b * D)
        extra = m * npp.polymul(npp.polymul(PL, PL), np.array([1.0, 2.0, 1.0]))
    else:
        D = np.array([2.0, -3.0, 1.0])
        PL = npp.polyadd(np.array([0.0, -m]), -b * D)
        extra = 2.0 * m * npp.polymul(npp.polymul(PL, PL), np.array([1.0, 2.0, 1.0]))
    quart = npp.polyadd(
        npp.polysub(3.0 * npp.polymul(PL, PL), (2.0 * b + k) * npp.polymul(PL, D)),
        b * b * npp.polymul(D, D),
    )
    main = npp.polymul(npp.polysub(3.0 * PL, b * D), quart)
    return npp.polyadd(main, extra)


def test_branch_polynomial_is_bit_identical_to_numpy_polynomial():
    rng = np.random.default_rng(20261018)
    cs = [*rng.uniform(-1.0 / 3.0, 1e3, 2000), -5.0 / 3.0, cl.CASE_II_LOWER, 5.0 / 9.0, 1.0, 1e15, 1e100]
    # c = -5/3 gives m = 6b + k = 0, so operands and results trim down to one coefficient
    b, k = cl._system_constants(-5.0 / 3.0)
    assert 6.0 * b + k == 0.0
    # b = 1e-170 underflows the leading coefficient of PL * PL to 0, which the product trims
    extremes = [(1e-170, 1.0), (1e-170, -1e-170), (0.0, 0.0), (0.0, 1.0)]
    for b, k in [cl._system_constants(c) for c in cs] + [cl._system_constants("minus4")] + extremes:
        for branch in ("delta_zero", "delta_pos"):
            got = np.asarray(cl._branch_polynomial(branch, b, k), dtype=float)
            want = _branch_polynomial_npp(branch, b, k)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (branch, b, k)


@pytest.mark.parametrize(
    "p, q",
    [
        ([1.0, 2.0, 0.0], [3.0, 0.0]),
        ([0.0, 0.0], [0.0]),
        ([-0.0, 0.0], [2.0, -0.0, 3.0, 0.0]),
        # the sum keeps the longer operand's -0 tail, the difference negates its +0
        ([1.0], [2.0, -0.0, 3.0]),
        ([1.0], [2.0, 0.0, 3.0]),
        # a trailing zero that reached the product would make inf * 0 = nan
        ([math.inf, 1.0], [1.0, 0.0]),
        ([5.0], [-0.0, 2.0, -0.0, 0.0, 0.0]),
        # the leading coefficient of the product underflows to 0
        ([1e-170, 1e-170], [1e-170, 1e-170]),
    ],
)
def test_series_helpers_match_numpy_polynomial(p, q):
    for a, b in ((p, q), (q, p)):
        for got, want in (
            (cl._polymul(a, b), npp.polymul(a, b)),
            (cl._polyadd(a, b), npp.polyadd(a, b)),
            (cl._polyadd(a, [-y for y in b]), npp.polysub(a, b)),
        ):
            got = np.asarray(got, dtype=float)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (a, b, got, want)


def test_importing_the_cli_leaves_numpy_polynomial_unloaded():
    src = str(Path(cl.__file__).resolve().parent.parent)
    code = "import sys; import sasakian.cli; print('numpy.polynomial' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_branch_polynomials_match_displayed_factorizations():
    # delta = 0 branch at c = 1: proportional to (w+1)^3 (1-3w) (w-2)^2
    p = np.asarray(cl._branch_polynomial("delta_zero", 1.0, 2.0))
    want = npp.polymul(npp.polymul(npp.polypow([1.0, 1.0], 3), [1.0, -3.0]), npp.polypow([-2.0, 1.0], 2))
    ratio = p[np.abs(want) > 1e-9] / want[np.abs(want) > 1e-9]
    assert np.max(np.abs(ratio - ratio[0])) < 1e-9
    # delta > 0 branch at c = 1: proportional to (w+1)^3 (w+3) (w-2)^2
    p = np.asarray(cl._branch_polynomial("delta_pos", 1.0, 2.0))
    want = npp.polymul(npp.polymul(npp.polypow([1.0, 1.0], 3), [3.0, 1.0]), npp.polypow([-2.0, 1.0], 2))
    ratio = p[np.abs(want) > 1e-9] / want[np.abs(want) > 1e-9]
    assert np.max(np.abs(ratio - ratio[0])) < 1e-9
    # -4 variant, delta = 0 branch: proportional to (w-2)^2 (3w^4+28w^3+42w^2-84w+27)
    p = np.asarray(cl._branch_polynomial("delta_zero", 1.0, 6.0))
    want = npp.polymul(npp.polypow([-2.0, 1.0], 2), [27.0, -84.0, 42.0, 28.0, 3.0])
    ratio = p / want
    assert np.max(np.abs(ratio - ratio[0])) < 1e-9


def _roots(branch, c_or_mode):
    return [(float(w), mult) for w, mult in cl.isolate_real_roots(branch, cl._exact_system(c_or_mode))]


def test_minus4_delta_pos_roots_match_closed_forms():
    roots = _roots("delta_pos", "minus4")
    want = sorted([-2.0 + SQ3, -2.0 - SQ3, -4.0 + SQ13, -4.0 - SQ13])
    got = [w for w, _ in roots if w != 2.0]
    assert len(got) == len(want)
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-15
    # the double root at 2 carries no sign change; it is listed once, with multiplicity 2
    assert (2.0, 2) in roots


def test_isolate_real_roots_basic():
    # minus4, delta = 0: (w - 2)^2 (w^2 + 6w - 3) (3w^2 + 10w - 9)
    want = sorted([-3.0 - 2.0 * SQ3, -3.0 + 2.0 * SQ3, (-5.0 - 2.0 * SQ13) / 3.0, (-5.0 + 2.0 * SQ13) / 3.0])
    roots = _roots("delta_zero", "minus4")
    assert [w for w, _ in roots] == pytest.approx(want + [2.0], abs=1e-15)
    assert [m for _, m in roots] == [1, 1, 1, 1, 2]
    assert roots == sorted(roots)


def test_isolate_real_roots_double_root_reported():
    # each distinct root once, with its multiplicity
    assert _roots("delta_zero", 1.0) == [(-1.0, 3), (1.0 / 3.0, 1), (2.0, 2)]
    assert _roots("delta_pos", 1.0) == [(-3.0, 1), (-1.0, 3), (2.0, 2)]
    assert _roots("delta_zero", cl.CASE_II_LOWER) == [(pytest.approx((3.0 - 2.0 * SQ3) / 3.0, abs=1e-15), 2), (2.0, 2)]
    assert _roots("delta_pos", cl.CASE_II_LOWER) == [(pytest.approx(-SQ3, abs=1e-15), 2), (2.0, 2)]


def test_isolate_zero_polynomial_rejected(monkeypatch):
    # the branch polynomials vanish identically where 6b + k = 0, at c = -5/3; the
    # solver rejects such c (k <= 0) before it isolates anything
    b, k = cl._system_constants(-5.0 / 3.0)
    for branch in cl.BRANCHES:
        assert np.max(np.abs(cl._branch_polynomial(branch, b, k))) < 1e-12

    def refuse(*args):
        raise AssertionError("isolation of a zero polynomial")

    monkeypatch.setattr(cl, "isolate_real_roots", refuse)
    assert cl.solve_flat(-5.0 / 3.0) == ([], [])


def test_all_rejected_roots_carry_reasons(flat_c1, minus4):
    for _, traces in (flat_c1, minus4):
        for trace in traces:
            for rej in trace.rejected:
                assert rej.reason
                assert np.isfinite(rej.omega)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_residual_rejects_the_tuple():
    # at c = 1e308 the closed form still finds roots, but the float re-substitution
    # overflows to nan, which must reject the tuple rather than pass the tolerance
    sols, traces = cl.solve_flat(1e308)
    assert sols == []
    assert any("residual nan" in r.reason for t in traces for r in t.rejected)


def test_general_c_solutions_are_admissible():
    sols, _ = cl.solve_flat(2.0)
    assert len(sols) >= 1
    b = 5.0 / 4.0
    for s in sols:
        assert -math.sqrt(b) < s.lam < 0
        assert 0 < s.alpha <= (s.lam**2 - b) / s.lam + 1e-12
        assert s.alpha >= s.delta >= 0
        assert s.alpha > 2 * s.gamma
        assert abs(s.lam**2 - b / 3.0) > 1e-9


# ----------------------------------------------------------------------
# closed-form roots against numerical isolation and mpmath
# ----------------------------------------------------------------------

def _reference_isolate_real_roots(coeffs, grid_size: int = 4096, width: float = 1e-14):
    """The recursive grid-and-bisection isolation the closed form replaced, kept as the reference.

    Returns (roots at a sign change, near-roots at a stationary point).
    """
    c = np.asarray(coeffs, dtype=float)
    scale = float(np.max(np.abs(c))) if c.size else 0.0
    if scale == 0.0:
        raise ValueError("zero polynomial")
    c = c / scale
    while c.size > 1 and abs(c[-1]) < 1e-13:
        c = c[:-1]
    deg = c.size - 1
    if deg == 0:
        return [], []

    bound = 1.0 + float(np.max(np.abs(c[:-1] / c[-1]))) if deg >= 1 else 1.0
    xs = np.linspace(-bound, bound, grid_size)
    vals = npp.polyval(xs, c)
    dc = npp.polyder(c)
    ddc = npp.polyder(dc)

    def modified_newton(x):
        # Newton on p/p' converges quadratically even at multiple roots
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

    def polish(lo, hi):
        flo = npp.polyval(lo, c)
        for _ in range(200):
            if hi - lo <= width * max(1.0, abs(lo), abs(hi)):
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
        return modified_newton(0.5 * (lo + hi))

    roots = []
    for i in range(grid_size - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(float(modified_newton(xs[i])))
        elif (a < 0) != (b < 0) and b != 0.0:
            roots.append(float(polish(xs[i], xs[i + 1])))
    if vals[-1] == 0.0:
        roots.append(float(modified_newton(xs[-1])))

    roots = sorted(roots)
    deduped: list[float] = []
    for r in roots:
        if not deduped or abs(r - deduped[-1]) > 1e-6 * max(1.0, abs(r)):
            deduped.append(r)

    # even-multiplicity / unresolved candidates: near-zeros at stationary points
    near = []
    if deg >= 2:
        stat, _ = (
            _reference_isolate_real_roots(dc, grid_size=grid_size // 2) if np.max(np.abs(dc)) > 0 else ([], [])
        )
        for s in stat:
            if any(abs(s - r) <= 1e-9 * max(1.0, abs(s)) for r in deduped):
                continue
            if abs(npp.polyval(s, c)) < 1e-12 * max(1.0, abs(s)) ** deg:
                near.append(float(s))
    return deduped, near


def _assert_reference_roots_are_closed_form_roots(c_or_mode):
    """Every root the reference isolation finds on a branch polynomial is a closed-form root.

    The reference locates a double root to about 1e-8 and the triple root
    omega = -1 of c = 1, or a cluster next to it, only to about 1e-5.
    """
    b, k = cl._system_constants(c_or_mode)
    for branch in cl.BRANCHES:
        closed = [w for w, _ in _roots(branch, c_or_mode)]
        roots, near = _reference_isolate_real_roots(cl._branch_polynomial(branch, b, k))
        for r in roots + near:
            tol = 1e-5 if abs(r + 1.0) < 1e-3 else 1e-6
            assert min(abs(r - w) for w in closed) <= tol * max(1.0, abs(r)), (branch, r, closed)


@settings(max_examples=50, deadline=None)
@given(c=st.floats(-1.0 / 3.0, 10.0, exclude_min=True))
@example(c=2.7)
@example(c=1.0)
def test_isolation_matches_reference_on_random_coefficients(c):
    # the coefficients of both branch polynomials are drawn through c
    _assert_reference_roots_are_closed_form_roots(c)


@settings(max_examples=25, deadline=None)
@given(offset=st.floats(0.0, 1e-3), near_one=st.booleans())
@example(offset=0.0, near_one=False)
@example(offset=0.0, near_one=True)
def test_isolation_matches_reference_with_a_double_root(offset, near_one):
    # the double roots of the case II threshold and the triple root -1 at c = 1
    c = (1.0 if near_one else cl.CASE_II_LOWER) + offset
    _assert_reference_roots_are_closed_form_roots(c)
    if offset == 0.0:
        assert max(mult for branch in cl.BRANCHES for w, mult in _roots(branch, c) if w != 2.0) == (3 if near_one else 2)


def test_isolation_matches_reference_with_two_roots_in_one_cell():
    # just above the threshold the two roots of a factor are closer than the
    # reference's grid spacing; the reference sees at most one, the closed form both
    c = cl.CASE_II_LOWER + 1e-9
    b, k = cl._system_constants(c)
    _assert_reference_roots_are_closed_form_roots(c)
    poly = np.asarray(cl._branch_polynomial("delta_pos", b, k))
    scaled = poly / np.max(np.abs(poly))
    cell = 2.0 * (1.0 + np.max(np.abs(scaled[:-1] / scaled[-1]))) / 4095
    pair = [w for w, mult in _roots("delta_pos", c) if abs(w + SQ3) < 1e-3]
    assert len(pair) == 2 and 0.0 < pair[1] - pair[0] < cell
    found = _reference_isolate_real_roots(poly)[0]
    assert sum(abs(r + SQ3) < 1e-3 for r in found) < 2


@pytest.mark.parametrize("c", [-1.0 / 3.0, cl.CASE_II_LOWER, 5.0 / 9.0, 1.0, 2.7, "minus4"])
def test_classification_matches_the_reference_isolation(c):
    """The reference's roots, run through the same validation, accept the same omegas.

    At the case II threshold the reference finds no sign change at either
    double root, so it accepts nothing where the closed form accepts two.
    """
    b, k = cl._system_constants(c)
    sols, traces = cl.solve_minus4_flat() if c == "minus4" else cl.solve_flat(c)
    mode, c_val = ("minus4", 1.0) if c == "minus4" else ("biharmonic", c)
    system = cl._exact_system(c)
    for trace in traces:
        roots, _ = _reference_isolate_real_roots(cl._branch_polynomial(trace.omega_branch, b, k))
        # the reference needs bands: it puts the root 0 of c = 5/9 at -5e-16 and the
        # triple root -1 of c = 1 within 1e-5 of -1
        want = [
            r for r in roots
            if r < -1e-12 and abs(r + 1.0) > 1e-4
            and cl._try_tuple(trace.omega_branch, Decimal(r), system, c_val, mode)[0] is not None
        ]
        got = [w for w in trace.accepted if w != -1.0]
        if c == cl.CASE_II_LOWER:
            assert want == [] and len(got) == 1
        else:
            assert len(got) == len(want)
            assert all(min(abs(w - r) for r in want) < 1e-6 for w in got)
    if c == cl.CASE_II_LOWER:
        assert len(sols) == 2


def test_sweep_classification_matches_the_reference_isolation_at_c1():
    """At c = 1 the solver's tuples with the Newton sweep merged in have the omegas the reference accepts."""
    b, k = cl._system_constants(1.0)
    system = cl._exact_system(1.0)
    want = sorted(
        r
        for branch in cl.BRANCHES
        for r in _reference_isolate_real_roots(cl._branch_polynomial(branch, b, k))[0]
        if r < -1e-12 and abs(r + 1.0) > 1e-4
        and cl._try_tuple(branch, Decimal(r), system, 1.0, "biharmonic")[0] is not None
    )
    with_sweep = _sweep_solutions(1.0)
    assert all(s.source != "fallback" for s in with_sweep)
    got = sorted(s.omega for s in with_sweep if s.omega != -1.0)
    assert got and len(got) == len(want)
    assert all(abs(g - w) < 1e-6 for g, w in zip(got, want))


def test_solve_flat_isolates_each_branch_polynomial_once(monkeypatch):
    calls = []
    original = cl.isolate_real_roots

    def counting(branch, system):
        calls.append(branch)
        return original(branch, system)

    monkeypatch.setattr(cl, "isolate_real_roots", counting)
    cl.solve_flat(2.7)
    assert calls == ["delta_zero", "delta_pos"]


# ----------------------------------------------------------------------
# the exact factorisation
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(b=st.floats(0.01, 100.0), k=st.floats(0.01, 100.0))
@example(b=1.0, k=6.0)
@example(b=1.0, k=2.0)
def test_factors_multiply_to_branch_polynomial(b, k):
    for branch in cl.BRANCHES:
        f1, f2 = cl._branch_factors(branch, b, k)
        want = cl._branch_polynomial(branch, b, k)
        got = -(6.0 * b + k) * npp.polymul(npp.polymul([4.0, -4.0, 1.0], f1), f2)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _mpmath_roots(mp, branch, c_or_mode):
    """Real roots of the branch factors at the exact input, by mpmath at 50 digits."""
    if c_or_mode == "minus4":
        b, k = mp.mpf(1), mp.mpf(6)
    else:
        b, k = (mp.mpf(c_or_mode) + 3) / 4, (3 * mp.mpf(c_or_mode) + 1) / 2
    roots = []
    for c0, c1, c2 in cl._branch_factors(branch, b, k):
        roots += [r for r in mp.polyroots([c2, c1, c0], maxsteps=200, extraprec=200) if mp.im(r) == 0]
    return sorted(mp.re(r) for r in roots)


@settings(max_examples=60, deadline=None)
@given(c=st.floats(-1.0 / 3.0, 10.0, exclude_min=True))
@example(c=2.7)
def test_closed_form_roots_match_mpmath(c):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for c_or_mode in (c, "minus4"):
        for branch in cl.BRANCHES:
            got = [w for w, _ in _roots(branch, c_or_mode) if w != 2.0]
            want = _mpmath_roots(mp, branch, c_or_mode)
            if len(want) != len(got):  # a discriminant below mpmath's resolution
                continue
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-13 * max(1.0, abs(w))


def _flat_tuple_at_exact_threshold(mp):
    """The two flat tuples at c = (-7 + 8 sqrt 3)/13, where both double roots are accepted."""
    c = (-7 + 8 * mp.sqrt(3)) / 13
    b, k = (c + 3) / 4, (3 * c + 1) / 2
    m = 6 * b + k
    out = []
    w = (b - k) / (3 * b)  # the double root of 3b w^2 + 2(k-b) w + 3b - 2k
    D = (w - 2) * (w - 3)
    gamma = -mp.sqrt(m / D)
    out.append((-mp.sqrt(m * (1 - w) / D - b), w * gamma, gamma, mp.mpf(0)))
    w = -(2 * b + k) / (2 * b)  # the double root of b w^2 + (2b+k) w + 3b
    gamma = -mp.sqrt(m * w / ((w - 1) ** 2 * (w - 2)))
    lam = -mp.sqrt(-m * w / ((w - 1) * (w - 2)) - b)
    out.append((lam, w * gamma, gamma, mp.sqrt(m * (w + 1) ** 2 / (w - 1) ** 2)))
    return sorted(out)


def test_double_root_tuples_at_the_case_ii_threshold():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    sols, traces = cl.solve_flat(cl.CASE_II_LOWER)
    assert len(sols) == 2
    for s, want in zip(sols, _flat_tuple_at_exact_threshold(mp)):
        assert max(abs(g - float(w)) for g, w in zip(_as_array(s), want)) < 1e-12
    assert {t.omega_branch: t.roots for t in traces} == {
        "delta_zero": ((pytest.approx((3.0 - 2.0 * SQ3) / 3.0, abs=1e-15), 2), (2.0, 2)),
        "delta_pos": ((pytest.approx(-SQ3, abs=1e-15), 2), (2.0, 2)),
    }


@pytest.mark.parametrize("offset, count", [(1e-12, 4), (1e-9, 4), (1e-6, 4), (-1e-12, 0)])
def test_tuple_count_next_to_the_case_ii_threshold(offset, count):
    sols, _ = cl.solve_flat(cl.CASE_II_LOWER + offset)
    assert len(sols) == count
    assert all(s.source == "omega_reduction" for s in sols)


@pytest.mark.parametrize("c", [1.0 + 1e-6, 1.0 + 1e-4])
def test_every_admissible_root_next_to_c1_is_found(c):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    b, k = cl._system_constants(c)
    system = cl._exact_system(c)
    _, traces = cl.solve_flat(c)
    for trace in traces:
        poly = cl._branch_polynomial(trace.omega_branch, b, k)
        roots = mp.polyroots([mp.mpf(x) for x in poly[::-1]], maxsteps=500, extraprec=500)
        want = [
            float(mp.re(r)) for r in roots
            if abs(mp.im(r)) < 1e-20 and mp.re(r) < 0
            and cl._try_tuple(trace.omega_branch, Decimal(float(mp.re(r))), system, c, "biharmonic")[0] is not None
        ]
        got = [w for w in trace.accepted if w != -1.0]
        assert len(got) == len(want) > 0
        assert all(min(abs(w - r) for r in want) < 1e-6 for w in got)


def test_trace_lists_each_root_once_with_exact_omega_minus_one(flat_c1):
    _, traces = flat_c1
    for trace in traces:
        omegas = [w for w, _ in trace.roots]
        assert len(set(omegas)) == len(omegas)
        assert (2.0, 2) in trace.roots and (-1.0, 3) in trace.roots
        rejected = [r.omega for r in trace.rejected if not r.reason.startswith(("lambda^2", "alpha=-gamma"))]
        assert sorted(rejected) == sorted(w for w in omegas if w not in trace.accepted)
        assert not any("near-root" in r.reason for r in trace.rejected)
        assert len(trace.factors) == 2 and all(len(f) == 3 for f in trace.factors)
    for entry in rep.classification_report(c=1.0)["reduction_traces"]:
        assert [r for r in entry["roots"] if r["omega"] in (-1.0, 2.0)] == [
            {"omega": -1.0, "multiplicity": 3},
            {"omega": 2.0, "multiplicity": 2},
        ]
        assert [r["omega"] for r in entry["rejected"]].count(2.0) == 1


# ----------------------------------------------------------------------
# the multistart Newton sweep over the full system, kept as an oracle
# ----------------------------------------------------------------------

def _flat_system_residual(lam, alpha, gamma, delta, b, k):
    """The four flat-case equations (first one already cleared of 1/lam^3)."""
    L = lam * lam
    s = (alpha + gamma) ** 2 + delta**2
    eq1 = (3.0 * L - b) * (3.0 * L * L - (2.0 * b + k) * L + b * b) + L * L * s
    eq2 = (alpha + gamma) * (5.0 * L + alpha**2 + gamma**2 - (b + k)) + gamma * delta**2
    eq3 = delta * (5.0 * L + delta**2 + 3.0 * gamma**2 + alpha * gamma - (b + k))
    eq4 = b + L + alpha * gamma - gamma**2
    return np.array([eq1, eq2, eq3, eq4])


def _newton_sweep(b, k, seed, starts=10000):
    """Converged, deduplicated rows of a seeded multistart Newton on the full flat system."""
    rng = np.random.default_rng(seed)
    sb = math.sqrt(b)
    x = np.empty((starts, 4))
    x[:, 0] = rng.uniform(-sb + 1e-6, -1e-6, starts)          # lam
    x[:, 1] = rng.uniform(1e-6, 3.0 * sb, starts)             # alpha
    x[:, 2] = rng.uniform(-3.0 * sb, -1e-6, starts)           # gamma
    x[:, 3] = rng.uniform(0.0, 3.0 * sb, starts)              # delta
    alive = np.ones(starts, dtype=bool)

    def residual(v):
        return _flat_system_residual(v[:, 0], v[:, 1], v[:, 2], v[:, 3], b, k).T

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

    moving = alive.copy()  # rows whose last step was not negligible
    for _ in range(60):
        if not np.any(moving):
            break
        idx = np.flatnonzero(moving)
        v = x[idx]
        f = residual(v)
        J = jacobian(v)
        det = np.linalg.det(J)
        ok = (np.abs(det) > 1e-14) & np.all(np.isfinite(f), axis=1)
        step = np.zeros_like(v)
        if np.any(ok):
            step[ok] = np.linalg.solve(J[ok], f[ok][..., None])[..., 0]
        v = v - step
        x[idx] = v
        dead = ~ok | ~np.all(np.isfinite(v), axis=1) | (np.max(np.abs(v), axis=1) > 1e6)
        alive[idx[dead]] = False
        settled = np.max(np.abs(step), axis=1) <= 1e-16 * np.maximum(1.0, np.max(np.abs(v), axis=1))
        moving[idx[dead | settled]] = False

    rows = []
    fin = x[alive & np.all(np.isfinite(x), axis=1)]
    if fin.size:
        fin[:, 3] = np.abs(fin[:, 3])  # the system is even in delta; normalize its sign
        res = np.linalg.norm(residual(fin), axis=1)
        for row in fin[res < cl.FLAT_RESIDUAL_TOL]:
            if not any(np.max(np.abs(row - r)) < 1e-5 for r in rows):
                rows.append(row.astype(float))
    return rows


@functools.lru_cache(maxsize=None)
def _sweep_solutions(c_or_mode, seed=0):
    """The solver's tuples plus every admissible sweep row none of them explains, flagged "fallback".

    A row within 1e-6 of a solver tuple is that tuple: Newton converges only
    linearly to a double root, so rows there are no sharper.
    """
    mode, c = ("minus4", 1.0) if c_or_mode == "minus4" else ("biharmonic", c_or_mode)
    b, k = cl._system_constants(c_or_mode)
    solutions, _ = cl.solve_minus4_flat() if mode == "minus4" else cl.solve_flat(c)
    merged = list(solutions)
    for row in _newton_sweep(b, k, seed) if k > 0.0 else []:
        lam, alpha, gamma, delta = (float(t) for t in row)
        bad, boundary = cl._admissibility(lam, alpha, gamma, delta, b)
        if bad or any(np.max(np.abs(row - _as_array(s))) < 1e-6 for s in merged):
            continue
        merged.append(cl.SolutionTuple(
            lam, alpha, gamma, delta, c=c, mode=mode, source="fallback", flags=tuple(boundary),
        ))
    merged.sort(key=lambda s: (s.case, s.lam, s.alpha))
    return merged
