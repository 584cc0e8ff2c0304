import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sasakian import shape_algebra as sa

C1_OPS = sa.AdaptedShapeOperators.case_I(*oracles.COROLLARY_TUPLE, b=1.0)


def test_build_matrices_zero_params():
    mats = oracles.build_matrices((0, 0, 0, 0, 0, 0, 0))
    assert np.max(np.abs(mats)) == 0.0


def test_build_matrices_single_lambda():
    mats = oracles.build_matrices((1, 0, 0, 0, 0, 0, 0))
    assert np.allclose(mats[0], np.diag([1.0, 0.0, 0.0]))
    assert np.max(np.abs(mats[1])) == 0.0
    assert np.max(np.abs(mats[2])) == 0.0


def test_build_matrices_corollary_alpha_entry():
    mats = oracles.build_matrices(C1_OPS)
    assert mats[1][1][1] == pytest.approx(3 * math.sqrt(3) / math.sqrt(10), abs=1e-14)
    for m in mats:
        assert np.max(np.abs(m - m.T)) == 0.0


def test_eigenvalue_formula():
    assert sa.biharmonic_eigenvalue(1.0) == pytest.approx(2.0)
    assert sa.biharmonic_eigenvalue(5.0 / 9.0) == pytest.approx(4.0 / 3.0)
    assert sa.biharmonic_eigenvalue(-1.0 / 3.0) == pytest.approx(0.0)
    # general-n form at n = 2, and the runtime n = 3 form bit for bit (at
    # c = 0.1, (c * 6 + 2) / 4 would round differently)
    assert oracles.biharmonic_eigenvalue(1.0, n=2) == pytest.approx((1 * 5 + 6 - 7) / 4)
    for c in (1.0, 5.0 / 9.0, -1.0 / 3.0, 0.1, 2.7, -1e300, 1e-320):
        assert sa.biharmonic_eigenvalue(c) == oracles.biharmonic_eigenvalue(c)


def test_corollary_tuple_is_proper_biharmonic():
    r, t = oracles.eigen_criterion_residual(C1_OPS, c=1.0)
    assert np.linalg.norm(r) < 1e-12
    assert np.linalg.norm(t) > 1.0
    oracles.assert_proper_biharmonic(C1_OPS, 1.0)


def test_minimal_params_trivially_satisfy_criterion():
    params = (1.0, -0.4, -0.6, 0.3, 0.2, -0.3, -0.2)
    ops = sa.AdaptedShapeOperators(*params)
    t = oracles.trace_vector(ops)
    assert np.max(np.abs(t)) < 1e-15
    r, _ = oracles.eigen_criterion_residual(ops, c=0.7)
    assert np.linalg.norm(r) < 1e-15
    assert np.linalg.norm(t) < 1e-10


def test_flat_minimal_locus_is_flagged_minimal():
    # lam^2 = (c+3)/12 with alpha = -gamma makes the whole trace vector vanish
    b = 1.0
    lam = -math.sqrt(b / 3.0)
    gamma = -math.sqrt((b + b / 3.0) / 2.0)
    ops = sa.AdaptedShapeOperators.case_I(lam, -gamma, gamma, 0.0, b)
    t = oracles.trace_vector(ops)
    assert np.max(np.abs(t)) < 1e-15
    assert np.linalg.norm(t) < 1e-10


def test_minus4_criterion_on_known_tuples():
    for tup in oracles.MINUS4_TUPLES:
        ops = sa.AdaptedShapeOperators.case_I(*tup, b=1.0)
        assert np.linalg.norm(oracles.minus4_criterion_residual(ops)) < 1e-12
        oracles.assert_proper_biharmonic(ops, "minus4")


def test_minus4_criterion_zero_params():
    assert np.linalg.norm(oracles.minus4_criterion_residual((0,) * 7)) == 0.0


def test_c1_tuple_fails_minus4_criterion():
    # oracle: direct matrix arithmetic; the eigenvalues 2 and 6 differ and t != 0
    r = oracles.minus4_criterion_residual(C1_OPS)
    t = oracles.trace_vector(C1_OPS)
    assert np.linalg.norm(r) > 1.0
    assert np.linalg.norm(t) >= 1e-10
    assert np.linalg.norm(r) / max(1.0, np.linalg.norm(t)) >= 1e-10


def test_expanded_equals_eigen_on_corollary():
    assert np.max(np.abs(sa.expanded_system_residual(C1_OPS, 1.0))) < 1e-12
    assert np.max(np.abs(sa.expanded_system_residual((0,) * 7, 1.0))) == 0.0


def test_expanded_equals_eigen_random_draws():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        params = rng.uniform(-2.0, 2.0, size=7)
        c = rng.uniform(-1.0 / 3.0, 5.0)
        ops = sa.AdaptedShapeOperators(*params)
        r, _ = oracles.eigen_criterion_residual(ops, c)
        e = sa.expanded_system_residual(ops, c)
        assert np.max(np.abs(r - e)) < 1e-10


@settings(max_examples=80, deadline=None)
@given(
    params=st.lists(st.floats(-3, 3), min_size=7, max_size=7),
    c=st.floats(-1.0 / 3.0, 5.0),
)
def test_expanded_equals_eigen_property(params, c):
    ops = sa.AdaptedShapeOperators(*params)
    r, _ = oracles.eigen_criterion_residual(ops, c)
    e = sa.expanded_system_residual(ops, c)
    assert np.max(np.abs(r - e)) < 1e-9 * max(1.0, float(np.max(np.abs(r))))


def test_expanded_minus4_mode():
    for tup in oracles.MINUS4_TUPLES:
        ops = sa.AdaptedShapeOperators.case_I(*tup, b=1.0)
        assert np.max(np.abs(sa.expanded_system_residual(ops, "minus4"))) < 1e-12
    with pytest.raises(ValueError, match="mode"):
        sa.expanded_system_residual(C1_OPS, "plus4")


def test_criterion_invariance_under_trace_rescaling():
    # (M - k) t = 0 is linear in t, so rescaling t cannot change the verdict
    mats = oracles.build_matrices(C1_OPS)
    square = np.einsum("aij,ajk->ik", mats, mats)
    t = oracles.trace_vector(C1_OPS)
    for s in (0.5, -3.0, 1e4):
        assert np.linalg.norm(square @ (s * t) - 2.0 * (s * t)) < 1e-8 * abs(s)
    bad = sa.AdaptedShapeOperators(1.0, 0.2, 0.1, 0.4, 0.0, 0.1, 0.2)
    r, t = oracles.eigen_criterion_residual(bad, 1.0)
    mats = oracles.build_matrices(bad)
    square = np.einsum("aij,ajk->ik", mats, mats)
    for s in (0.5, -3.0):
        assert np.linalg.norm(square @ (s * t) - 2.0 * (s * t)) > 1e-3


def test_nonpositive_eigenvalue_blocks_proper_verdict():
    # at c <= -1/3 the eigenvalue k is nonpositive and nothing non-minimal passes
    for c in (-1.0 / 3.0, -0.4, -2.0):
        assert sa.biharmonic_eigenvalue(c) <= 0.0
        assert np.linalg.norm(oracles.trace_vector(C1_OPS)) >= 1e-10


def test_k_override():
    r6, _ = oracles.eigen_criterion_residual(C1_OPS, c=1.0, k_override=6.0)
    assert np.allclose(r6, oracles.minus4_criterion_residual(C1_OPS))
