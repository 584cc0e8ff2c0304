import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp

from sasakian import classifier as cl
from sasakian import report as rep
from sasakian import shape_algebra as sa
from sasakian.catalog import COROLLARY_TUPLE, MINUS4_TUPLES

SQ3, SQ13 = math.sqrt(3.0), math.sqrt(13.0)


@pytest.fixture(scope="module")
def flat_c1():
    return cl.solve_flat(1.0)


@pytest.fixture(scope="module")
def minus4():
    return cl.solve_minus4_flat()


def test_unique_solution_at_c1(flat_c1):
    sols, _ = flat_c1
    assert len(sols) == 1
    assert np.max(np.abs(sols[0].as_array() - np.array(COROLLARY_TUPLE))) < 1e-12
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
        dist = min(np.max(np.abs(s.as_array() - np.array(want))) for s in sols)
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


def test_every_solution_revalidates(minus4):
    for c in (1.0, 0.8, 2.0, 5.0):
        sols, _ = cl.solve_flat(c)
        for s in sols:
            assert s.system_residual() < 1e-10
            assert sa.biharmonic_verdict(s.operators(), c) == "proper-biharmonic"
    sols, _ = minus4
    for s in sols:
        assert s.system_residual() < 1e-10
        assert sa.biharmonic_verdict(s.operators(), "minus4") == "proper-biharmonic"


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
            assert np.max(np.abs(rebuilt - s.as_array())) < 1e-12


def test_solver_determinism_across_seeds():
    a = cl.solve_flat(1.0, sweep_seed=0)
    b = cl.solve_flat(1.0, sweep_seed=987654)
    assert repr(a[0]) == repr(b[0])
    a4 = cl.solve_minus4_flat(sweep_seed=0)
    b4 = cl.solve_minus4_flat(sweep_seed=31415)
    assert repr(a4[0]) == repr(b4[0])


def test_sweep_adds_nothing_beyond_reduction():
    with_sweep, _ = cl.solve_flat(1.0, fallback_sweep=True)
    without, _ = cl.solve_flat(1.0, fallback_sweep=False)
    assert [repr(s) for s in with_sweep] == [repr(s) for s in without]
    assert all(s.source != "fallback" for s in with_sweep)
    m_with, _ = cl.solve_minus4_flat(fallback_sweep=True)
    m_without, _ = cl.solve_minus4_flat(fallback_sweep=False)
    assert [repr(s) for s in m_with] == [repr(s) for s in m_without]


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
    r, t = sa.eigen_criterion_residual(ops, c)
    assert np.linalg.norm(r) < 1e-12
    assert np.linalg.norm(t) > 0.1


def test_case_ii_excluded_at_c1():
    assert cl.solve_caseII(1.0) == []


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
            r, t = sa.eigen_criterion_residual(ops, c)
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


def test_branch_polynomials_match_displayed_factorizations():
    # delta = 0 branch at c = 1: proportional to (w+1)^3 (1-3w) (w-2)^2
    p = cl._branch_polynomial("delta_zero", 1.0, 2.0)
    want = npp.polymul(npp.polymul(npp.polypow([1.0, 1.0], 3), [1.0, -3.0]), npp.polypow([-2.0, 1.0], 2))
    ratio = p[np.abs(want) > 1e-9] / want[np.abs(want) > 1e-9]
    assert np.max(np.abs(ratio - ratio[0])) < 1e-9
    # delta > 0 branch at c = 1: proportional to (w+1)^3 (w+3) (w-2)^2
    p = cl._branch_polynomial("delta_pos", 1.0, 2.0)
    want = npp.polymul(npp.polymul(npp.polypow([1.0, 1.0], 3), [3.0, 1.0]), npp.polypow([-2.0, 1.0], 2))
    ratio = p[np.abs(want) > 1e-9] / want[np.abs(want) > 1e-9]
    assert np.max(np.abs(ratio - ratio[0])) < 1e-9
    # -4 variant, delta = 0 branch: proportional to (w-2)^2 (3w^4+28w^3+42w^2-84w+27)
    p = cl._branch_polynomial("delta_zero", 1.0, 6.0)
    want = npp.polymul(npp.polypow([-2.0, 1.0], 2), [27.0, -84.0, 42.0, 28.0, 3.0])
    ratio = p / want
    assert np.max(np.abs(ratio - ratio[0])) < 1e-9


def test_minus4_delta_pos_roots_match_closed_forms():
    poly = cl._branch_polynomial("delta_pos", 1.0, 6.0)
    roots, near = cl.isolate_real_roots(poly)
    want = sorted([-2.0 + SQ3, -2.0 - SQ3, -4.0 + SQ13, -4.0 - SQ13])
    got = sorted(roots)
    assert len(got) == len(want)
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-6
    # the double root at 2 carries no sign change; it must surface somewhere
    assert any(abs(r - 2.0) < 1e-5 for r in list(roots) + list(near))


def test_isolate_real_roots_basic():
    # (x-1)(x+2)(x-0.5) with ascending coefficients
    poly = npp.polymul(npp.polymul([-1.0, 1.0], [2.0, 1.0]), [-0.5, 1.0])
    roots, near = cl.isolate_real_roots(poly)
    assert np.allclose(sorted(roots), [-2.0, 0.5, 1.0], atol=1e-12)
    assert near == []


def test_isolate_real_roots_double_root_reported():
    poly = npp.polymul(npp.polypow([-1.0, 1.0], 2), [1.0, 0.0, 1.0])  # (x-1)^2 (x^2+1)
    roots, near = cl.isolate_real_roots(poly)
    assert any(abs(r - 1.0) < 1e-6 for r in roots) or any(abs(r - 1.0) < 1e-6 for r in near)


def test_isolate_zero_polynomial_rejected():
    with pytest.raises(cl.RootIsolationError):
        cl.isolate_real_roots([0.0, 0.0])


def test_all_rejected_roots_carry_reasons(flat_c1, minus4):
    for _, traces in (flat_c1, minus4):
        for trace in traces:
            for rej in trace.rejected:
                assert rej.reason
                assert np.isfinite(rej.omega)


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
# root isolation against the recursive implementation it replaced
# ----------------------------------------------------------------------

def _reference_isolate_real_roots(coeffs, grid_size: int = 4096, width: float = 1e-14):
    """The recursive isolation with a per-cell scan, kept verbatim as the reference."""
    c = np.asarray(coeffs, dtype=float)
    scale = float(np.max(np.abs(c))) if c.size else 0.0
    if scale == 0.0:
        raise cl.RootIsolationError("zero polynomial")
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


def _assert_isolation_matches_reference(poly):
    try:
        want = _reference_isolate_real_roots(poly)
    except cl.RootIsolationError:
        with pytest.raises(cl.RootIsolationError):
            cl.isolate_real_roots(poly)
        return
    assert repr(cl.isolate_real_roots(poly)) == repr(want)


# exact zeros and leading coefficients small enough to be trimmed
_COEF = st.one_of(st.sampled_from([0.0, 1e-15, -1e-14]), st.floats(-1e3, 1e3))
_ROOT = st.floats(-10.0, 10.0)
_LEAD = st.sampled_from([1.0, -1.0, 0.01, 250.0])


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(_COEF, min_size=2, max_size=7))
@example(coeffs=[-17.0 / 256.0, 1.0])  # the root is grid point 2175, where p is exactly 0
def test_isolation_matches_reference_on_random_coefficients(coeffs):
    _assert_isolation_matches_reference(coeffs)


@settings(max_examples=100, deadline=None)
@given(simple=st.lists(_ROOT, max_size=4), double=_ROOT, lead=_LEAD)
def test_isolation_matches_reference_with_a_double_root(simple, double, lead):
    _assert_isolation_matches_reference(lead * npp.polyfromroots(simple + [double, double]))


@settings(max_examples=60, deadline=None)
@given(low=st.floats(-1.0, 1.0), gap=st.floats(1e-4, 0.1), far=st.floats(-1000.0, -100.0), lead=_LEAD)
@example(low=0.3, gap=0.01, far=-900.0, lead=1.0)
def test_isolation_matches_reference_with_two_roots_in_one_cell(low, gap, far, lead):
    _assert_isolation_matches_reference(lead * npp.polyfromroots([low, low + gap, far]))


@pytest.mark.parametrize(
    "c, sweep",
    [
        (-1.0 / 3.0, False),
        (cl.CASE_II_LOWER, False),
        (5.0 / 9.0, False),
        (1.0, False),
        (2.7, False),
        ("minus4", False),
        (1.0, True),
    ],
)
def test_classification_report_is_identical_under_the_reference_isolation(c, sweep, monkeypatch):
    def report_json():
        if c == "minus4":
            payload = rep.classification_report(mode="minus4", sweep=sweep)
        else:
            payload = rep.classification_report(c=c, sweep=sweep)
        return json.dumps(payload, indent=2, sort_keys=True)

    got = report_json()
    monkeypatch.setattr(cl, "isolate_real_roots", _reference_isolate_real_roots)
    assert report_json() == got


def test_solve_flat_isolates_each_branch_polynomial_once(monkeypatch):
    calls = []
    original = cl.isolate_real_roots

    def counting(coeffs):
        calls.append(coeffs)
        return original(coeffs)

    monkeypatch.setattr(cl, "isolate_real_roots", counting)
    cl.solve_flat(2.7, fallback_sweep=False)
    assert len(calls) == 2
