import functools
import math
import os
import platform
import subprocess
import sys
from decimal import Context, Decimal, localcontext
from fractions import Fraction
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
from sasakian.cli import MAX_ABS_C, _parse_sweep

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import workloads  # noqa: E402

SQ3, SQ13 = math.sqrt(3.0), math.sqrt(13.0)
# the float nearest the case II threshold tau = (-7 + 8 sqrt 3)/13, where d1
# changes sign; it is 5.3e-17 below tau, so d1 < 0 there
CASE_II_LOWER = (-7.0 + 8.0 * SQ3) / 13.0


def _as_array(s: cl.SolutionTuple) -> np.ndarray:
    return np.array([s.lam, s.alpha, s.gamma, s.delta])


@pytest.fixture(scope="module")
def flat_c1():
    return cl.solve_flat(1.0)


@pytest.fixture(scope="module")
def minus4():
    return cl.solve_minus4_flat()


def test_unique_solution_at_c1(flat_c1):
    mp = pytest.importorskip("mpmath")
    sols, _ = flat_c1
    assert len(sols) == 1
    # each entry is its 50-digit closed form, rounded once
    with mp.workdps(50):
        want = [float(x) for x in oracles.corollary_tuple(mp.sqrt)]
    assert _as_array(sols[0]).tolist() == want
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
    # k <= 0 is decided on the exact c: the float nearest -1/3 and the next one
    # up lie above -1/3, where k > 0, so both branches are traced there, with
    # every root rejected, though their float k is 0
    for c in (-1.0 / 3.0, math.nextafter(-1.0 / 3.0, 0.0), math.nextafter(-1.0 / 3.0, -1.0), -0.5, -2.0):
        sols, traces = cl.solve_flat(c)
        assert sols == []
        assert len(traces) == (2 if Fraction(c) > Fraction(-1, 3) else 0), c
        assert all(t.accepted == () for t in traces)


def test_near_threshold_runs_clean():
    sols, traces = cl.solve_flat(-1.0 / 3.0 + 1e-3)
    assert isinstance(sols, list) and len(traces) == 2


def test_minus4_exactly_three_tuples(minus4):
    mp = pytest.importorskip("mpmath")
    sols, _ = minus4
    with mp.workdps(50):
        want = [[float(x) for x in tup] for tup in oracles.minus4_tuples(mp.sqrt)]
    assert [_as_array(s).tolist() for s in sols] == want


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
    for c in (1.0, 0.8, 2.0, 5.0, CASE_II_LOWER, 1.0 + 1e-4):
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


def _norm_of_squares(v) -> float:
    """The square root of the exact sum of the rounded squares x * x, the sum rounded once."""
    return math.sqrt(float(sum(Fraction(x * x) for x in v)))


def test_system_residual_is_the_norm_of_the_exact_sum_of_squares(monkeypatch):
    # every tuple the solver builds; it builds only accepted ones
    built = []

    class Recorded(cl.SolutionTuple):
        def __new__(cls, *args, **kwargs):
            built.append(super().__new__(cls, *args, **kwargs))
            return built[-1]

    monkeypatch.setattr(cl, "SolutionTuple", Recorded)
    cs = _workload_cs()
    assert len(cs) > 150
    for c in cs + [MAX_ABS_C, -MAX_ABS_C, 5e-324]:
        cl.solve_flat(c)
    cl.solve_minus4_flat()
    assert len(built) > 500 and {s.mode for s in built} == {"biharmonic", "minus4"}
    for s in built:
        arg = "minus4" if s.mode == "minus4" else s.c
        want = _norm_of_squares(sa.expanded_system_residual(s.operators(), arg))
        assert np.float64(s.system_residual).tobytes() == np.float64(want).tobytes(), s


def test_system_residual_is_the_norm_of_the_exact_sum_of_squares_on_random_vectors(monkeypatch):
    # the residuals of solved tuples have many zero entries, so the order of a
    # float sum rarely shows there; on random vectors it does
    rng = np.random.default_rng(20261019)
    vectors = rng.standard_normal((2000, 3)) * 10.0 ** rng.integers(-12, 3, (2000, 1))
    for v in vectors:
        monkeypatch.setattr(sa, "expanded_system_residual", lambda ops, arg, v=v: v.copy())
        got = cl.SolutionTuple(-0.5, 0.25, -0.125, 0.0).system_residual
        assert np.float64(got).tobytes() == np.float64(_norm_of_squares(v)).tobytes(), v
    # finite squares whose sum passes the largest float give an infinite norm
    monkeypatch.setattr(sa, "expanded_system_residual", lambda ops, arg: np.array([1e154, 1e154, 0.0]))
    assert cl.SolutionTuple(-0.5, 0.25, -0.125, 0.0).system_residual == math.inf


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
    for c in (1.0, "minus4", CASE_II_LOWER, 1.0 + 1e-4):
        with_sweep = _sweep_solutions(c)
        without, _ = cl.solve_minus4_flat() if c == "minus4" else cl.solve_flat(c)
        if c == CASE_II_LOWER:
            # the sweep's rows there solve the system only to float precision
            assert without == [] and _threshold_float_solutions() == with_sweep
            continue
        assert [repr(s) for s in with_sweep] == [repr(s) for s in without]
        assert all(s.source != "fallback" for s in with_sweep)


def test_case_ii_at_5_ninths():
    sols = cl.solve_caseII(5.0 / 9.0)
    ii1 = [s for s in sols if s.subcase == "II1"]
    assert len(ii1) == 1
    # 1/sqrt(2) rounded once; 1.0 / math.sqrt(2.0) is one ulp below it
    with localcontext(Context(prec=40)):
        assert ii1[0].kappa1 == float(Decimal(0.5).sqrt())
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
    # the roots at c = 1 are b/3, the minimal locus, and b
    assert cl.solve_caseII(1.0) == []


def test_case_ii_next_to_c1():
    # below 1 the root next to b lies under b; above 1 it lies over b
    below = cl.solve_caseII(math.nextafter(1.0, 0.0))
    assert [s.subcase for s in below] == ["II2", "II2"]
    # kappa1 = (lam^2 - b)/lam > 0: lam^2 is 5.6e-17 under b, and lam rounds to -1
    assert below[1].lam == -1.0 and 0 < below[1].kappa1 < 1e-16
    assert [s.subcase for s in cl.solve_caseII(math.nextafter(1.0, 2.0))] == ["II2"]


@pytest.mark.parametrize("c", [-2.0, -5.0])
def test_case_ii_has_no_negative_lambda_square(c):
    # the discriminant d1 is positive here, but both roots L = lam^2 are negative
    system = cl._exact_system(c)
    assert system.D1 > 0 and all(L < 0 for L, _ in cl._lambda_squares(system))
    assert cl.solve_caseII(c) == []


@pytest.mark.parametrize("c", [1.0 - 5e-13, 1.0 + 5e-13, math.nextafter(CASE_II_LOWER, 2.0)])
def test_case_ii2_exists_at_every_float_off_its_thresholds(c):
    # the thresholds are decided on the exact input: c = 1 alone is excluded,
    # and d1 > 0 from the float above CASE_II_LOWER on
    sols = cl.solve_caseII(c)
    assert sols and all(s.subcase == "II2" for s in sols)
    for s in sols:
        assert abs(oracles.quartic_lambda_residual(s.lam**2, c)) < 1e-12


def test_case_ii_thresholds_are_exact():
    # d1 < 0 at CASE_II_LOWER and the float below it, and d1 > 0 at the float above
    below, above = math.nextafter(CASE_II_LOWER, 0.0), math.nextafter(CASE_II_LOWER, 2.0)
    for c, flat, case_ii in ((below, 0, []), (CASE_II_LOWER, 0, []), (above, 4, ["II2", "II2"])):
        assert (len(cl.solve_flat(c)[0]), [s.subcase for s in cl.solve_caseII(c)]) == (flat, case_ii), c
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
    assert abs(oracles.quartic_lambda_residual(lam2, 2.0)) < 1e-13
    assert sols[0].lam < 0
    assert sols[0].kappa1 == pytest.approx((lam2 - 1.25) / sols[0].lam, abs=1e-13)
    assert sols[0].radius == pytest.approx(2.0 / math.sqrt(4.0 * lam2 + 5.0), abs=1e-13)


def test_case_ii_both_branches_below_c1():
    sols = [s for s in cl.solve_caseII(0.8) if s.subcase == "II2"]
    assert len(sols) == 2
    for s in sols:
        assert abs(oracles.quartic_lambda_residual(s.lam**2, 0.8)) < 1e-12
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
    [s] = cl.solve_caseII("minus4")
    assert (s.subcase, s.c, s.kappa2) == ("II2", 1.0, 1.0)
    lam2 = s.lam ** 2
    assert lam2 == pytest.approx((4.0 - SQ13) / 3.0, abs=1e-15)
    assert s.kappa1 == pytest.approx((lam2 - 1.0) / s.lam, abs=1e-12)
    assert s.kappa1 == pytest.approx((SQ13 - 1.0) / math.sqrt(12.0 - 3.0 * SQ13), abs=1e-12)
    # radius identity: sqrt(3/(7 - sqrt 13)) = 1/sqrt(1 + lam^2)
    assert s.radius == pytest.approx(1.0 / math.sqrt(1.0 + lam2), abs=1e-14)


def test_curvature_tables_corollary():
    tup = cl.SolutionTuple(*oracles.COROLLARY_TUPLE, c=1.0)
    tables = cl.curvature_tables(tup)
    assert tables["X1"] == pytest.approx((4.0 / math.sqrt(5.0), 1.0), abs=1e-14)
    assert tables["X2"] == pytest.approx(
        (math.sqrt(2.9), 9.0 * math.sqrt(2.0 / 145.0), 2.0 * math.sqrt(3.0 / 145.0)), abs=1e-12
    )
    assert tables["X3"] == pytest.approx(
        (math.sqrt(2.5), 2.0 * math.sqrt(0.3), math.sqrt(0.3)), abs=1e-12
    )


def test_curvature_tables_degenerations():
    circle_tup = cl.SolutionTuple(*oracles.MINUS4_TUPLES[0], c=1.0, mode="minus4")
    tables = cl.curvature_tables(circle_tup)
    assert len(tables["X3"]) == 1  # delta = 0: the third curve is a circle
    assert tables["X3"][0] == pytest.approx(
        math.hypot(oracles.MINUS4_TUPLES[0][0], oracles.MINUS4_TUPLES[0][2]), abs=1e-14
    )


def _branch_polynomial_npp(branch, b, k):
    """Equation 1 with its denominators cleared, in floats with numpy.polynomial: the input of the reference isolations."""
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


def test_importing_the_cli_leaves_numpy_polynomial_unloaded():
    src = str(Path(cl.__file__).resolve().parent.parent)
    code = "import sys; import sasakian.cli; print('numpy.polynomial' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_branch_polynomials_match_displayed_factorizations(flat_c1, minus4):
    printed = {
        (c, t.omega_branch): np.asarray(t.polynomial)
        for c, (_, traces) in ((1.0, flat_c1), ("minus4", minus4))
        for t in traces
    }
    # delta = 0 branch at c = 1: proportional to (w+1)^3 (1-3w) (w-2)^2
    p = printed[1.0, "delta_zero"]
    want = npp.polymul(npp.polymul(npp.polypow([1.0, 1.0], 3), [1.0, -3.0]), npp.polypow([-2.0, 1.0], 2))
    ratio = p[np.abs(want) > 1e-9] / want[np.abs(want) > 1e-9]
    assert np.max(np.abs(ratio - ratio[0])) < 1e-9
    # delta > 0 branch at c = 1: proportional to (w+1)^3 (w+3) (w-2)^2
    p = printed[1.0, "delta_pos"]
    want = npp.polymul(npp.polymul(npp.polypow([1.0, 1.0], 3), [3.0, 1.0]), npp.polypow([-2.0, 1.0], 2))
    ratio = p[np.abs(want) > 1e-9] / want[np.abs(want) > 1e-9]
    assert np.max(np.abs(ratio - ratio[0])) < 1e-9
    # -4 variant, delta = 0 branch: proportional to (w-2)^2 (3w^4+28w^3+42w^2-84w+27)
    p = printed["minus4", "delta_zero"]
    want = npp.polymul(npp.polypow([-2.0, 1.0], 2), [27.0, -84.0, 42.0, 28.0, 3.0])
    ratio = p / want
    assert np.max(np.abs(ratio - ratio[0])) < 1e-9


def _roots(branch, c_or_mode):
    return [(float(w), mult) for w, mult, _ in cl.isolate_real_roots(branch, cl._exact_system(c_or_mode))]


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
    # d1 < 0 at CASE_II_LOWER: the d1 factors' double roots at tau are complex
    # pairs there and two simple roots at the float above
    for branch, near in (("delta_zero", (3.0 - 2.0 * SQ3) / 3.0), ("delta_pos", -SQ3)):
        assert _roots(branch, CASE_II_LOWER) == [(2.0, 2)]
        above = _roots(branch, math.nextafter(CASE_II_LOWER, 2.0))
        assert above[:2] == [(pytest.approx(near, abs=1e-7), 1)] * 2 and above[0][0] < above[1][0]


def test_isolate_zero_polynomial_rejected(monkeypatch):
    # the branch polynomials vanish identically where 6b + k = 0, at c = -5/3; the
    # solver rejects such c (k <= 0) before it isolates anything
    b, k = oracles.system_constants(-5.0 / 3.0)
    for branch in cl.BRANCHES:
        assert np.max(np.abs(_branch_polynomial_npp(branch, b, k))) < 1e-12

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
def test_overflowing_residual_is_reported_not_used():
    # at c = 1e308 the float re-substitution overflows to nan; the exact signs
    # accept the tuples all the same, and system_residual reports the nan
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    sols, traces = cl.solve_flat(1e308)
    assert [(s.source, s.omega) for s in sols] == [
        ("alpha_eq_neg_gamma", -1.0),
        ("omega_reduction", pytest.approx(-3.0 - 2.0 * SQ3, rel=1e-12)),
        ("omega_reduction", pytest.approx(-4.0 - SQ13, rel=1e-12)),
    ]
    decisions, tuples, _ = _surd_classification(mp, 1e308)
    assert [tuple(_as_array(s)) for s in sols] == tuples
    assert _trace_decisions(traces) == decisions
    assert all(math.isnan(s.system_residual) for s in sols)


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
    b, k = oracles.system_constants(c_or_mode)
    for branch in cl.BRANCHES:
        closed = [w for w, _ in _roots(branch, c_or_mode)]
        roots, near = _reference_isolate_real_roots(_branch_polynomial_npp(branch, b, k))
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
    # the near-double roots next to the case II threshold and the triple root -1 at c = 1
    c = (1.0 if near_one else CASE_II_LOWER) + offset
    if c == CASE_II_LOWER:
        _assert_reference_sees_double_roots_where_d1_is_negative(c)
    else:
        _assert_reference_roots_are_closed_form_roots(c)
    if offset == 0.0 and near_one:
        assert max(mult for branch in cl.BRANCHES for w, mult in _roots(branch, c) if w != 2.0) == 3


def _assert_reference_sees_double_roots_where_d1_is_negative(c):
    """The reference's near-roots at c lie at the real parts of complex pairs, where d1 < 0 exactly.

    At CASE_II_LOWER d1 is -3.6e-16, so a d1 factor's polynomial has a
    minimum below float resolution at the real part of its roots, which the
    reference takes for a double root; the exact roots besides 2 are none.
    """
    assert cl._exact_system(c).D1 < 0
    b, k = oracles.system_constants(c)
    fb, fk = _exact_constants(c)
    for branch in cl.BRANCHES:
        assert _roots(branch, c) == [(2.0, 2)]
        pairs = [float(-q[1] / (2 * q[2])) for q in cl._branch_factors(branch, fb, fk) if q[1] ** 2 < 4 * q[0] * q[2]]
        roots, near = _reference_isolate_real_roots(_branch_polynomial_npp(branch, b, k))
        assert roots == [] and near[-1] == pytest.approx(2.0, abs=1e-8), branch
        assert near[:-1] and all(min(abs(r - x) for x in pairs) < 1e-6 for r in near[:-1]), (branch, near, pairs)


def test_isolation_matches_reference_with_two_roots_in_one_cell():
    # just above the threshold the two roots of a factor are closer than the
    # reference's grid spacing; the reference sees at most one, the closed form both
    c = CASE_II_LOWER + 1e-9
    b, k = oracles.system_constants(c)
    _assert_reference_roots_are_closed_form_roots(c)
    poly = _branch_polynomial_npp("delta_pos", b, k)
    scaled = poly / np.max(np.abs(poly))
    cell = 2.0 * (1.0 + np.max(np.abs(scaled[:-1] / scaled[-1]))) / 4095
    pair = [w for w, mult in _roots("delta_pos", c) if abs(w + SQ3) < 1e-3]
    assert len(pair) == 2 and 0.0 < pair[1] - pair[0] < cell
    found = _reference_isolate_real_roots(poly)[0]
    assert sum(abs(r + SQ3) < 1e-3 for r in found) < 2


@pytest.mark.parametrize("c", [-1.0 / 3.0, CASE_II_LOWER, 5.0 / 9.0, 1.0, 2.7, "minus4"])
def test_classification_matches_the_reference_isolation(c):
    """The reference's roots, run through the same validation, accept the same omegas.

    At CASE_II_LOWER, below the case II threshold, neither accepts any.
    """
    b, k = oracles.system_constants(c)
    sols, traces = cl.solve_minus4_flat() if c == "minus4" else cl.solve_flat(c)
    for trace in traces:
        roots, _ = _reference_isolate_real_roots(_branch_polynomial_npp(trace.omega_branch, b, k))
        # the reference needs bands: it puts the root 0 of c = 5/9 at -5e-16 and the
        # triple root -1 of c = 1 within 1e-5 of -1
        want = [
            r for r in roots
            if r < -1e-12 and abs(r + 1.0) > 1e-4
            and oracles.float_flat_tuple(trace.omega_branch, r, c) is not None
        ]
        got = [w for w in trace.accepted if w != -1.0]
        assert len(got) == len(want)
        assert all(min(abs(w - r) for r in want) < 1e-6 for w in got)
    if c == CASE_II_LOWER:
        assert sols == []


def test_sweep_classification_matches_the_reference_isolation_at_c1():
    """At c = 1 the solver's tuples with the Newton sweep merged in have the omegas the reference accepts."""
    b, k = oracles.system_constants(1.0)
    want = sorted(
        r
        for branch in cl.BRANCHES
        for r in _reference_isolate_real_roots(_branch_polynomial_npp(branch, b, k))[0]
        if r < -1e-12 and abs(r + 1.0) > 1e-4
        and oracles.float_flat_tuple(branch, r, 1.0) is not None
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

def _pmul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _padd(*ps):
    return [sum(p[i] for p in ps if i < len(p)) for i in range(max(map(len, ps)))]


def _scale(s, p):
    return [s * x for x in p]


def _branch_polynomial_exact(branch, b, k):
    """Equation 1 with its denominators cleared, as ``_branch_polynomial_npp`` builds it, in exact rationals."""
    m = 6 * b + k
    if branch == "delta_zero":
        D = [6, -5, 1]  # (w-2)(w-3)
        PL, extra_scale = _padd([m, -m], _scale(-b, D)), m  # m(1-w) - bD
    else:
        D = [2, -3, 1]  # (w-1)(w-2)
        PL, extra_scale = _padd([0, -m], _scale(-b, D)), 2 * m  # -m w - bD
    PL2 = _pmul(PL, PL)
    quart = _padd(_scale(3, PL2), _scale(-(2 * b + k), _pmul(PL, D)), _scale(b * b, _pmul(D, D)))
    main = _pmul(_padd(_scale(3, PL), _scale(-b, D)), quart)
    return _padd(main, _scale(extra_scale, _pmul(PL2, [1, 2, 1])))


def _exact_constants(c_or_mode):
    """(b, k) of the exact input, as fractions."""
    if c_or_mode == "minus4":
        return Fraction(1), Fraction(sa.MINUS4_EIGENVALUE)
    c = Fraction(c_or_mode)
    return (c + 3) / 4, (3 * c + 1) / 2


@settings(max_examples=200, deadline=None)
@given(b=st.floats(0.01, 100.0), k=st.floats(0.01, 100.0))
@example(b=1.0, k=6.0)
@example(b=1.0, k=2.0)
def test_factors_multiply_to_branch_polynomial(b, k):
    # -(6b+k) (w-2)^2 q1 q2 is equation 1 with its denominators cleared, exactly
    b, k = Fraction(b), Fraction(k)
    for branch in cl.BRANCHES:
        f1, f2 = cl._branch_factors(branch, b, k)
        got = _scale(-(6 * b + k), _pmul(_pmul([4, -4, 1], f1), f2))
        assert got == _branch_polynomial_exact(branch, b, k)


_RNG = np.random.default_rng(20261019)
ORACLE_CS = [
    *workloads.SPECIAL_C, "minus4", 2.3333333333333335, -0.3, 1e9, 1e100,
    *_RNG.uniform(-1.0 / 3.0, 3.0, 40).tolist(), *(10.0 ** _RNG.uniform(-20.0, 100.0, 20)).tolist(),
]


@pytest.mark.parametrize("c", ORACLE_CS)
def test_printed_trace_coefficients_are_the_exact_values_rounded_once(c):
    # at c = 5/9 the constant coefficient of delta_zero is +1.97e-15, and at the
    # float nearest 7/3 it is -2.13e-14
    report = rep.classification_report(mode="minus4") if c == "minus4" else rep.classification_report(c=c)
    traces = report["reduction_traces"]
    b, k = _exact_constants(c)
    assert [t["omega_branch"] for t in traces] == list(cl.BRANCHES)
    for t in traces:
        want = _branch_polynomial_exact(t["omega_branch"], b, k)
        assert t["polynomial"] == [float(x) for x in want], t["omega_branch"]
        exact = cl._branch_factors(t["omega_branch"], b, k)
        assert t["factors"] == [[float(x) for x in q] for q in exact], t["omega_branch"]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="the core names are x86-64 kernels")
def test_classify_output_does_not_depend_on_the_blas_kernel():
    # OPENBLAS_CORETYPE picks the kernel of numpy's OpenBLAS for one process
    src = str(Path(cl.__file__).resolve().parent.parent)
    env = {key: v for key, v in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = src
    argv = [sys.executable, "-m", "sasakian.cli", "classify", "--c-sweep", "0.1:2.9:0.7", "--format", "json"]
    default, prescott = (
        subprocess.run(argv, env={**env, **extra}, capture_output=True, text=True, check=True).stdout
        for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"})
    )
    assert default == prescott


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


def _case_ii2_exact(mp, c_or_mode):
    """(lam, kappa1, radius) of each II2 solution at the exact input, by mpmath, ascending in lam^2."""
    if c_or_mode == "minus4":
        b, k = mp.mpf(1), mp.mpf(6)
    else:
        b, k = (mp.mpf(c_or_mode) + 3) / 4, (3 * mp.mpf(c_or_mode) + 1) / 2
    if k == 2 * b:
        return []
    disc = (2 * b + k) ** 2 - 12 * b * b
    if disc < 0:
        return []
    squares = sorted({(2 * b + k - mp.sqrt(disc)) / 6, (2 * b + k + mp.sqrt(disc)) / 6})
    return [(-mp.sqrt(L), (L - b) / -mp.sqrt(L), 1 / mp.sqrt(L + b)) for L in squares if 0 < L < b]


_CASE_II_RNG = np.random.default_rng(20261020)
CASE_II_ORACLE_CS = [
    *workloads.SPECIAL_C, 0.99, 0.9999993484121499, 0.9999999999999947, math.nextafter(1.0, 0.0), 0.9999999999995,
    2.0, 3.0, 1e6, "minus4", *_CASE_II_RNG.uniform(0.53, 3.0, 200).tolist(),
    # 1 -+ 2^-n, where lam^2 - b cancels hardest
    *(1.0 + s * 2.0**-n for n in (20, 30, 40, 50, 52) for s in (-1, 1)),
]


def test_printed_case_ii_values_are_the_exact_values_rounded_once():
    # the float formulas misrounded kappa1 by 210 ulps at c = 0.99 and by
    # 42,000 at 0.9999993484121499, through the cancellation in lam^2 - b; the
    # 40-digit lam^2 - b misrounds it at 0.9999999999999947
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    wrong = []
    for c in CASE_II_ORACLE_CS:
        report = rep.classification_report(mode="minus4") if c == "minus4" else rep.classification_report(c=c)
        got = [
            tuple(s[key]["value"] for key in ("lam", "kappa1", "radius"))
            for s in report["case_ii"] if s["subcase"] == "II2"
        ]
        if got != [tuple(float(x) for x in entry) for entry in _case_ii2_exact(mp, c)]:
            wrong.append(c)
    assert wrong == []


def test_case_ii_gap_quadratic_is_the_lambda_square_quadratic_shifted_by_b(monkeypatch):
    # kappa1 = (L - b)/lam takes Y = e(L - b) as a root of its own quadratic, in X = e L shifted by B
    sp = pytest.importorskip("sympy")
    X, Y, B, K = sp.symbols("X Y B K")
    lambda_square = 3 * X**2 - (2 * B + K) * X + B**2
    gap = sp.expand(lambda_square.subs(X, Y + B))
    assert sp.expand(gap - (3 * Y**2 + (4 * B - K) * Y + B * (2 * B - K))) == 0
    assert sp.expand(sp.discriminant(gap, Y) - (K**2 + 4 * B * K - 8 * B**2)) == 0
    # the solver's two quadratics are these, at the integers of its system, both of discriminant D1
    calls = []
    real = cl._quadratic_roots
    monkeypatch.setattr(cl, "_quadratic_roots", lambda q, D: calls.append((q, D)) or real(q, D))
    for c in (0.99, 1.0 - 2.0**-52, 2.0, "minus4"):
        calls.clear()
        cl.solve_caseII(c)
        system = cl._exact_system(c)
        at = {B: system.B, K: system.K}
        want = {tuple(sp.Poly(f.subs(at), x).all_coeffs()[::-1]) for f, x in ((lambda_square, X), (gap, Y))}
        assert {q for q, _ in calls} == want and {D for _, D in calls} == {system.D1}, c


def _flat_tuple_at_exact_threshold(mp):
    """The two flat tuples at c = (-7 + 8 sqrt 3)/13, where both double roots are accepted, ascending in alpha."""
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
    return sorted(out, key=lambda t: t[1])


def _threshold_float_solutions():
    """The Newton sweep's rows at CASE_II_LOWER, each admissible and a solution to float precision.

    The exact answer there is no tuple: d1 < 0.  The rows are the tuples of
    the double roots at tau, 5.3e-17 away in c, which floats cannot tell apart.
    """
    rows = _sweep_solutions(CASE_II_LOWER)
    assert cl._exact_system(CASE_II_LOWER).D1 < 0 and [s.source for s in rows] == ["fallback"] * 2
    for s in rows:
        assert s.system_residual < 1e-10 and oracles.flat_admissibility(s.lam, s.alpha, s.gamma, s.delta, s.b) == []
        oracles.assert_proper_biharmonic(s.operators(), CASE_II_LOWER)
    return rows


def test_double_root_tuples_at_the_case_ii_threshold():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    sols, traces = cl.solve_flat(CASE_II_LOWER)
    assert sols == []
    assert {t.omega_branch: t.roots for t in traces} == {"delta_zero": ((2.0, 2),), "delta_pos": ((2.0, 2),)}
    rows = sorted(_threshold_float_solutions(), key=lambda s: s.alpha)
    # Newton converges only linearly to a double root
    for s, want in zip(rows, _flat_tuple_at_exact_threshold(mp)):
        assert max(abs(g - float(w)) for g, w in zip(_as_array(s), want)) < 1e-7


@settings(max_examples=200, deadline=None)
@given(c=st.floats(allow_nan=False, allow_infinity=False))
@example(c=CASE_II_LOWER)
@example(c=math.nextafter(CASE_II_LOWER, 0.0))
@example(c=math.nextafter(CASE_II_LOWER, 2.0))
@example(c=-1.0 / 3.0)
@example(c=5.0 / 9.0)
@example(c=1.0)
def test_d1_vanishes_at_no_float(c):
    # the roots of d1 = (13c^2 + 14c - 11)/4 are irrational and a float c is a binary fraction
    system = cl._exact_system(c)
    assert system.D1 != 0
    assert all(root.s != 0 for _, root in cl._lambda_squares(system))


@pytest.mark.parametrize("offset, count", [(1e-12, 4), (1e-9, 4), (1e-6, 4), (-1e-12, 0)])
def test_tuple_count_next_to_the_case_ii_threshold(offset, count):
    sols, _ = cl.solve_flat(CASE_II_LOWER + offset)
    assert len(sols) == count
    assert all(s.source == "omega_reduction" for s in sols)


@pytest.mark.parametrize("c", [1.0 + 1e-6, 1.0 + 1e-4])
def test_every_admissible_root_next_to_c1_is_found(c):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    b, k = oracles.system_constants(c)
    _, traces = cl.solve_flat(c)
    for trace in traces:
        poly = _branch_polynomial_npp(trace.omega_branch, b, k)
        roots = mp.polyroots([mp.mpf(x) for x in poly[::-1]], maxsteps=500, extraprec=500)
        want = [
            float(mp.re(r)) for r in roots
            if abs(mp.im(r)) < 1e-20 and mp.re(r) < 0
            and oracles.float_flat_tuple(trace.omega_branch, float(mp.re(r)), c) is not None
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
# the exact admissibility decisions
# ----------------------------------------------------------------------

# the reasons of the admissibility tests, in the order of ``cl._violation``
_REASONS = (
    "lambda^2 nonpositive in the reduction",
    "lambda must satisfy -sqrt(c+3)/2 < lambda < 0",
    "alpha exceeds lambda1 = (lambda^2 - (c+3)/4)/lambda",
    "alpha must be >= delta",
    "lambda^2 equals (c+3)/12 (minimal locus, excluded)",
)
# the reasons of the d2 = 0 path, where omega = -1 is a root of every factor
_AT_C1 = {
    "delta_zero": "omega = -1 excluded from the rational reduction",
    "delta_pos": "delta not positive at omega = -1",
}


def _symbolic_tests(branch, w, b, k):
    """The expressions whose signs decide the tests of ``cl._violation`` at omega = w, from the reduction's squares."""
    lam2, gam2, del2 = cl._branch_squares(branch, w, b, k)
    return lam2, b - lam2, (b - lam2) ** 2 - w**2 * gam2 * lam2, w**2 * gam2 - del2, 3 * lam2 - b


def _sign_for_negative_w(sp, expr, w, b, k):
    """The sign for w < 0 < b, k of a product of w - a, a >= 0, and polynomials in b, k of positive coefficients."""
    const, factors = sp.factor_list(expr)
    sign = 1 if const > 0 else -1
    for f, e in factors:
        if f.has(w):
            poly = sp.Poly(f, w)
            assert poly.degree() == 1 and -poly.nth(0) / poly.nth(1) >= 0, f
            sign *= (-1) ** e if poly.nth(1) > 0 else 1
        else:
            assert all(x > 0 for x in sp.Poly(f, b, k).coeffs()), f
    return sign


@pytest.mark.parametrize("branch", cl.BRANCHES)
def test_admissibility_forms_are_the_remainders_of_their_tests(branch):
    sp = pytest.importorskip("sympy")
    w, b, k = sp.symbols("w b k")
    tests = _symbolic_tests(branch, w, b, k)
    for q, forms in zip(cl._branch_factors(branch, b, k), cl._admissibility_forms(branch, b, k)):
        factor = sp.expand(q[0] + q[1] * w + q[2] * w**2)
        for test, (r0, r1) in zip(tests, forms):
            if (r0, r1) == (1, 0):
                # delta = 0 <= alpha on delta_zero
                assert branch == "delta_zero" and cl._branch_squares(branch, w, b, k)[2] == 0
                continue
            num, den = sp.fraction(sp.together(test))
            cleared = sp.expand(num * _sign_for_negative_w(sp, den, w, b, k))
            content = sp.cancel(sp.prem(cleared, factor, w) / (r0 + r1 * w))
            assert not content.has(w) and _sign_for_negative_w(sp, content, w, b, k) == 1, (test, r0, r1)
    # the alpha = -gamma family: omega = -1, gamma^2 = (b + L)/2 and delta = 0, in X = e L with e = 1
    L = sp.Symbol("L")
    quadratic = 3 * L**2 - (2 * b + k) * L + b * b
    gam2 = (b + L) / 2
    tests = (L, b - L, (b - L) ** 2 - gam2 * L, gam2, 3 * L - b)
    for test, (r0, r1) in zip(tests, cl._family_forms(b, k)):
        if (r0, r1) != (1, 0):
            content = sp.cancel(sp.prem(sp.expand(test), quadratic, L) / (r0 + r1 * L))
            assert not content.has(L) and _sign_for_negative_w(sp, content, w, b, k) == 1, test


def test_the_expanded_equations_vanish_modulo_every_factor(monkeypatch):
    # the converse of the reduction: every root of a factor solves the system
    sp = pytest.importorskip("sympy")
    w, b, k = sp.symbols("w b k")
    L, G, Dl = sp.symbols("L G Dl", positive=True)
    lam, gamma, delta = -sp.sqrt(L), -sp.sqrt(G), sp.sqrt(Dl)
    monkeypatch.setattr(sa, "biharmonic_eigenvalue", lambda c: k)

    def cleared(alpha, delta, squares, modulus, x):
        ops = sa.AdaptedShapeOperators.case_I(lam, alpha, gamma, delta, b)
        eq1, eq2, eq3 = sa.expanded_system_residual(ops, 0.0)
        # lam eq1, eq2 / gamma and eq3 / delta are rational in L, G and Dl
        for eq in (lam * eq1, eq2 / gamma, eq3 / delta if delta != 0 else eq3):
            num = sp.fraction(sp.together(sp.expand(eq).subs(squares)))[0]
            yield sp.prem(sp.expand(num), sp.expand(modulus), x)

    for branch in cl.BRANCHES:
        lam2, gam2, del2 = cl._branch_squares(branch, w, b, k)
        # equation 4, b + lam^2 + alpha gamma - gamma^2 = 0, holds by construction
        assert sp.cancel(b + lam2 + (w - 1) * gam2) == 0
        for q in cl._branch_factors(branch, b, k):
            factor = q[0] + q[1] * w + q[2] * w**2
            squares = {L: lam2, G: gam2, Dl: del2}
            assert list(cleared(w * gamma, delta if branch == "delta_pos" else 0, squares, factor, w)) == [0, 0, 0]
    quadratic = 3 * L**2 - (2 * b + k) * L + b * b
    assert list(cleared(-gamma, 0, {G: (b + L) / 2}, quadratic, L)) == [0, 0, 0]


def test_no_admissibility_test_reaches_equality_at_an_admissible_float_root():
    # so no decision sits on a boundary: at c = 9, alpha = lambda1 at omega = 1/3 > 0,
    # and at c = 1, lambda^2 = b/3 at omega = -1, which the d2 = 0 path decides,
    # and the family's roots are b/3 and b, both rejected
    sp = pytest.importorskip("sympy")
    c = sp.Symbol("c")
    b, k = (c + 3) / 4, (3 * c + 1) / 2
    equalities = []

    def scan(label, q, forms):
        for i, (r0, r1) in enumerate(forms):
            if (r0, r1) == (1, 0):
                continue
            # r0 + r1 x and q0 + q1 x + q2 x^2 share a root where this resultant vanishes
            resultant = sp.expand(q[0] * r1**2 - q[1] * r0 * r1 + q[2] * r0**2)
            assert resultant != 0
            for f, _ in sp.factor_list(resultant)[1]:
                if sp.degree(f, c) == 1:
                    at = sp.solve(f, c)[0]
                    if at > sp.Rational(-1, 3) and at.q & (at.q - 1) == 0:  # a float
                        equalities.append((label, i, at, sp.simplify((sp.sympify(-r0) / r1).subs(c, at))))

    for branch in cl.BRANCHES:
        for j, (q, forms) in enumerate(zip(cl._branch_factors(branch, b, k), cl._admissibility_forms(branch, b, k))):
            scan((branch, j), q, ((0, 1),) + forms)
    scan(("alpha_eq_neg_gamma", 0), (b * b, -(2 * b + k), 3), cl._family_forms(b, k))
    assert sorted({at for _, _, at, _ in equalities}) == [1, 9]
    for label, i, at, x in equalities:
        if at == 9:
            assert (label, i, x) == (("delta_zero", 0), 3, sp.Rational(1, 3))
        elif label[0] in cl.BRANCHES:
            assert x == -1
        else:
            assert x in (b.subs(c, 1), b.subs(c, 1) / 3)
    _, traces = cl.solve_flat(1.0)
    assert [r.reason.rpartition(": ")[2] for r in traces[0].rejected[1:3]] == [_REASONS[4], _REASONS[1]]


def _trace_decisions(traces):
    """Per branch, the sorted (omega, reason or "accepted") of a solver's traces."""
    return {
        t.omega_branch: sorted([(r.omega, r.reason) for r in t.rejected] + [(w, "accepted") for w in t.accepted])
        for t in traces
    }


def _surd_reason(lam2, gam2, del2, w2, b):
    """The reason of the first test of ``_REASONS`` that the squares fail, each evaluated in Q(sqrt D), else None."""
    assert gam2.sign() > 0 and (0 * gam2 + del2).sign() >= 0  # del2 is the integer 0 on delta_zero
    alpha2 = w2 * gam2
    passed = (
        lam2.sign() > 0,
        (b - lam2).sign() > 0,
        ((b - lam2) ** 2 - alpha2 * lam2).sign() >= 0,
        (alpha2 - del2).sign() >= 0,
        (3 * lam2 - b).sign() != 0,
    )
    return next((reason for reason, ok in zip(_REASONS, passed) if not ok), None)


def _surd_classification(mp, c_or_mode):
    """What the solver should return at the exact input, from Q(sqrt D) and mpmath.

    That is ``_trace_decisions`` of its traces, its sorted tuples and the lam
    of each II2 entry.  Each root of a factor is kept in Q(sqrt D) and each
    test evaluated on its tuple's squares.
    """
    b, k = _exact_constants(c_or_mode)
    d2 = (k - 2 * b) * (k + 6 * b)
    d1 = k * k + 4 * b * k - 8 * b * b
    mb, mk = mp.mpf(b.numerator) / b.denominator, mp.mpf(k.numerator) / k.denominator
    decisions, tuples = {}, []

    def flat_tuple(w, branch):
        lam2, gam2, del2 = cl._branch_squares(branch, w, mb, mk)
        return -mp.sqrt(lam2), w * -mp.sqrt(gam2), -mp.sqrt(gam2), mp.sqrt(del2)

    family = [(-1.0, "lambda^2 = (c+3)/12 root is the minimal locus, excluded")]
    for s in (-1, 1) if d1 > 0 else ():
        L = oracles.quadratic_root(b * b, -(2 * b + k), 3, s, d1)
        reason = _surd_reason(L, (b + L) / 2, L * 0, 1, b)
        if reason is None:
            family.append((-1.0, "accepted"))
            gamma = -mp.sqrt((mb + L.to_mpf(mp)) / 2)
            tuples.append((-mp.sqrt(L.to_mpf(mp)), -gamma, gamma, mp.mpf(0)))
        else:
            family.append((-1.0, f"alpha=-gamma root lambda^2 = {float(L.to_mpf(mp)):.6g}: {reason}"))
    for branch in cl.BRANCHES:
        found = {2.0: "omega must be negative"}
        for q in cl._branch_factors(branch, b, k):
            disc = q[1] ** 2 - 4 * q[0] * q[2]
            for s in (-1, 1) if disc > 0 else (0,) if disc == 0 else ():
                w = oracles.quadratic_root(*q, s, disc)
                if w.sign() >= 0:
                    reason = "omega must be negative"
                elif d2 == 0 and (w + 1).sign() == 0:
                    reason = _AT_C1[branch]
                else:
                    reason = _surd_reason(*cl._branch_squares(branch, w, b, k), w * w, b)
                found.setdefault(float(w.to_mpf(mp)), reason or "accepted")
                if reason is None:
                    tuples.append(flat_tuple(w.to_mpf(mp), branch))
        decisions[branch] = sorted(list(found.items()) + (family if branch == "delta_zero" else []))
    lams = []
    for s in (-1, 1) if d1 > 0 and d2 != 0 else ():
        L = oracles.quadratic_root(b * b, -(2 * b + k), 3, s, d1)
        if L.sign() > 0 and (b - L).sign() > 0:
            lams.append(float(-mp.sqrt(L.to_mpf(mp))))
    return decisions, sorted(tuple(float(x) for x in t) for t in tuples), lams


_SURD_RNG = np.random.default_rng(20261021)
SURD_ORACLE_CS = [
    *workloads.SPECIAL_C, "minus4", 2.3333333333333335, 0.9999993484121499, 0.9999999999995, 2400.0, 2500.0, 9.0,
    math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1e100, *_parse_sweep("1e9:1000000000.3:0.1"),
    *(1.0 + s * 10.0**-e for e in range(1, 17) for s in (1, -1)),
    *(CASE_II_LOWER + s * 10.0**-e for e in range(3, 17) for s in (1, -1)),
    *_SURD_RNG.uniform(-1.0 / 3.0, 3.0, 215).tolist(), *(10.0 ** _SURD_RNG.uniform(-20.0, 100.0, 215)).tolist(),
]


def test_every_decision_and_value_matches_the_exact_oracle():
    # the bands of 1e-12 and the residual bound of 1e-10 rejected admissible
    # roots next to c = 1 and from about c = 2,400 on
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    assert len(SURD_ORACLE_CS) > 500
    wrong = []
    for c in SURD_ORACLE_CS:
        decisions, tuples, lams = _surd_classification(mp, c)
        sols, traces = cl.solve_minus4_flat() if c == "minus4" else cl.solve_flat(c)
        case_ii = [s.lam for s in cl.solve_caseII(c) if s.subcase == "II2"]
        got = _trace_decisions(traces), sorted(tuple(_as_array(s)) for s in sols), case_ii
        if got != (decisions, tuples, lams):
            wrong.append(c)
    assert wrong == []


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
        for row in fin[res < oracles.FLAT_RESIDUAL_TOL]:
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
    b, k = oracles.system_constants(c_or_mode)
    solutions, _ = cl.solve_minus4_flat() if mode == "minus4" else cl.solve_flat(c)
    merged = list(solutions)
    for row in _newton_sweep(b, k, seed) if k > 0.0 else []:
        lam, alpha, gamma, delta = (float(t) for t in row)
        if oracles.flat_admissibility(lam, alpha, gamma, delta, b) or any(
            np.max(np.abs(row - _as_array(s))) < 1e-6 for s in merged
        ):
            continue
        merged.append(cl.SolutionTuple(lam, alpha, gamma, delta, c=c, mode=mode, source="fallback"))
    merged.sort(key=lambda s: (s.case, s.lam, s.alpha))
    return merged
