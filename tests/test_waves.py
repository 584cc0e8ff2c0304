"""Closed-form plane-wave jets against jet arithmetic and against 50-digit mpmath.

The reference evaluators below are the per-constructor jet-arithmetic
closures the catalog used before every immersion became a wave table: each
parameter enters as a coordinate jet and the immersion is assembled from
``Jet.sincos`` and products.  They share no code with
``ParametricImmersion.jets``.
"""

import math

import numpy as np
import pytest

import oracles
from sasakian import catalog, classifier
from sasakian.jets import _terms

SQ2 = math.sqrt(2.0)
INV = 1.0 / SQ2
TOL = 1e-14


def _stack(jets):
    return oracles.jet(jets[0].nvars, jets[0].acc, np.concatenate([j.coef for j in jets], axis=-2))


def _constant(value, us):
    return oracles.constant(np.broadcast_to(value, us[0].value.shape), us[0].nvars, us[0].acc)


def circle_ref(F, basis=None):
    """sum_k coeff_k exp(i(<f_k, p> + theta_k)) E_k, coefficients read off the table.

    E_k are the rows of ``basis``, the standard basis when None.
    """
    basis = np.eye(F.n + 1, dtype=complex) if basis is None else basis
    coeff = np.einsum("kj,kj->k", F.amplitudes, basis.conj()).real
    assert np.max(np.abs(coeff[:, None] * basis - F.amplitudes)) < 1e-15
    freqs, phases = F.frequencies, F.phases
    cre, cim = coeff[:, None] * basis.real, coeff[:, None] * basis.imag

    def ev(us):
        phase_jets = []
        for k in range(len(coeff)):
            p = _constant(phases[k], us)
            for i in range(len(us)):
                if freqs[k, i] != 0.0:
                    p = p + us[i] * freqs[k, i]
            phase_jets.append(p)
        s, c = _stack(phase_jets).sincos()
        re = np.einsum("...kt,kj->...jt", c.coef, cre) - np.einsum("...kt,kj->...jt", s.coef, cim)
        im = np.einsum("...kt,kj->...jt", s.coef, cre) + np.einsum("...kt,kj->...jt", c.coef, cim)
        return oracles.jet(s.nvars, s.acc, np.concatenate([re, im], axis=-2))

    return ev


def s5_ref(us):
    su, cu = us[0].sincos()
    sv, cv = (us[1] * SQ2).sincos()
    return _stack([cu * INV, su * sv * INV, su * cv * INV, su * INV, cu * sv * INV, cu * cv * INV])


def trig_ref(terms):
    def ev(us):
        total = None
        for cf, fr, th, vec in terms:
            p = _constant(th, us)
            for i, f in enumerate(fr):
                if f != 0.0:
                    p = p + us[i] * f
            term = oracles.jet(p.nvars, p.acc, p.sincos()[1].coef * (cf * np.asarray(vec))[:, None])
            total = term if total is None else total + term
        return total

    return ev


def cylinder_ref(inner_ev, half):
    def ev(us):
        inner = inner_ev(us[1:])
        st, ct = us[0].sincos()
        re = oracles.jet(inner.nvars, inner.acc, inner.coef[..., :half, :])
        im = oracles.jet(inner.nvars, inner.acc, inner.coef[..., half:, :])
        return _stack([re * ct + im * st, im * ct - re * st])

    return ev


def precompose_ref(inner_ev, A):
    def ev(us):
        new = []
        for i in range(len(us)):
            acc = _constant(0.0, us)
            for j in range(len(us)):
                if A[i, j] != 0.0:
                    acc = acc + us[j] * A[i, j]
            new.append(acc)
        return inner_ev(new)

    return ev


def curve_ref(inner_ev, axis, base):
    def ev(us):
        return inner_ev([us[0] if i == axis else _constant(b, us) for i, b in enumerate(base)])

    return ev


E8 = np.eye(8)
LEGENDRE_CIRCLE_TERMS = [(INV, (SQ2,), 0.0, E8[0]), (INV, (SQ2,), -math.pi / 2.0, E8[1]), (INV, (0.0,), 0.0, E8[2])]
GREAT_CIRCLE_TERMS = [(1.0, (1.0,), 0.0, E8[0]), (1.0, (1.0,), -math.pi / 2.0, E8[1])]
Q4 = catalog.T4_TRANSFORM_2 @ catalog.T4_TRANSFORM_1
Q3 = catalog.S5_CYL_TRANSFORM_2 @ catalog.S5_CYL_TRANSFORM_1
BASE = np.array([0.7, 2.1, 4.4])


def _bases():
    """(id, immersion, reference) for every catalog constructor."""
    cor, s5 = catalog.corollary_immersion(), catalog.s5_surface()
    basis = oracles.random_unitary(4, np.random.default_rng(3))
    rot = oracles.rotated_torus(cor, basis)
    flat = catalog.flat_torus(2.0, classifier.solve_flat(2.0)[0][0])
    out = [
        ("corollary", cor, circle_ref(cor)),
        ("corollary-random-basis", rot, circle_ref(rot, basis)),
        ("flat-torus-c2", flat, circle_ref(flat)),
        ("s5", s5, s5_ref),
        ("legendre-circle", catalog.legendre_circle(), trig_ref(LEGENDRE_CIRCLE_TERMS)),
        ("great-circle", oracles.great_circle(), trig_ref(GREAT_CIRCLE_TERMS)),
    ]
    for index in (1, 2, 3):
        F = catalog.minus4_immersion(index)
        out.append((f"minus4-{index}", F, circle_ref(F)))
    for sign, F in ((1, catalog.legendre_helix(0.5)), (-1, oracles.legendre_helix(0.5, sign=-1))):
        ref = trig_ref(oracles.helix_terms(0.5, oracles.helix_vectors(0.5, sign=sign)))
        out.append((f"helix-0.5-sign{sign:+d}", F, ref))
    return out


def _orthogonal(m):
    q, r = np.linalg.qr(np.random.default_rng(m).standard_normal((m, m)))
    return q * np.sign(np.diagonal(r))


def _cases():
    """(id, immersion, reference, accuracy): every constructor, its cylinder,
    a precomposition and a coordinate curve, and the transforms the reports use."""
    cases, bases = [], {}
    for name, F, ev in _bases():
        bases[name] = (F, ev)
        A, base = _orthogonal(F.m), BASE[: F.m]
        axis = F.m - 1
        cases += [
            (name, F, ev, 5 if F.m == 1 else 4),
            (f"cylinder({name})", catalog.cylinder(F), cylinder_ref(ev, F.n + 1), 4),
            (f"precompose({name})", catalog.precompose_linear(F, A, name), precompose_ref(ev, A), 5 if F.m == 1 else 4),
            (f"curve{axis}({name})", catalog.coordinate_curve(F, axis, base), curve_ref(ev, axis, base), 5),
        ]
    for name, Q in (("corollary", Q4), ("s5", Q3)):
        F, ev = bases[name]
        ref = precompose_ref(cylinder_ref(ev, F.n + 1), Q.T)
        tilde = catalog.precompose_linear(catalog.cylinder(F), Q.T, f"cylinder({name})")
        cases.append((f"precompose(cylinder({name}))", tilde, ref, 4))
    F, ev = bases["corollary"]
    base = np.r_[0.3, BASE]
    ref = curve_ref(cylinder_ref(ev, F.n + 1), 0, base)
    cases.append(("curve0(cylinder(corollary))", catalog.coordinate_curve(catalog.cylinder(F), 0, base), ref, 5))
    return cases


CASES = _cases()


def _points(F, count, seed=11):
    box = np.asarray(F.sample_box or (2.0 * math.pi,) * F.m)
    return np.random.default_rng(seed).uniform(-0.5, 1.0, size=(count, F.m)) * box


def _reference_jet(ev, pts, acc):
    m = pts.shape[1]
    return ev([oracles.variable(pts[:, i : i + 1], i, m, acc) for i in range(m)])


@pytest.mark.parametrize("name,F,ev,acc", CASES, ids=[c[0] for c in CASES])
def test_closed_form_jets_match_jet_arithmetic(name, F, ev, acc):
    pts = _points(F, 6)
    got = F.jets(pts, acc)
    want = _reference_jet(ev, pts, acc)
    assert got.coef.shape == want.coef.shape
    assert got.rows.flags.c_contiguous
    assert np.max(np.abs(got.coef - want.coef)) <= TOL
    # lower accuracies are prefixes of the same closed form
    assert np.array_equal(F.jets(pts, acc - 2).coef, got.truncate(acc - 2).coef)


MP_NAMES = (
    "corollary", "minus4-2", "s5", "legendre-circle", "helix-0.5-sign+1", "cylinder(corollary)",
    "cylinder(s5)", "precompose(cylinder(corollary))", "curve2(corollary)",
)
MP_CASES = [c for c in CASES if c[0] in MP_NAMES]


def _mpmath_jet(F, pts, acc, mp):
    """Taylor coefficients of the wave sum at 50 digits, from the exact float table."""
    W = [[mp.mpc(float(w.real), float(w.imag)) for w in row] for row in F.amplitudes]
    f = [[mp.mpf(float(x)) for x in row] for row in F.frequencies]
    terms = _terms(F.m, acc)
    half = F.n + 1
    out = np.empty((len(pts), 2 * half, len(terms)))
    for n, p in enumerate(pts):
        waves = []
        for k in range(len(W)):
            phase = mp.mpf(float(F.phases[k])) + mp.fsum(mp.mpf(float(x)) * fk for x, fk in zip(p, f[k]))
            waves.append(mp.expj(phase))
        for t, a in enumerate(terms):
            turn = mp.mpc(0, 1) ** sum(a)
            total = [mp.mpc(0)] * half
            for k in range(len(W)):
                scale = turn * waves[k]
                for i, e in enumerate(a):
                    scale *= f[k][i] ** e / math.factorial(e)
                total = [z + scale * w for z, w in zip(total, W[k])]
            out[n, :half, t] = [float(z.real) for z in total]
            out[n, half:, t] = [float(z.imag) for z in total]
    return out


@pytest.mark.parametrize("name,F,ev,acc", MP_CASES, ids=[c[0] for c in MP_CASES])
def test_closed_form_jets_against_mpmath(name, F, ev, acc, record_property):
    mpmath = pytest.importorskip("mpmath")
    pts = _points(F, 3, seed=23)
    with mpmath.workdps(50):
        want = _mpmath_jet(F, pts, acc, mpmath.mp)
    err = float(np.max(np.abs(F.jets(pts, acc).coef - want)))
    record_property("max_abs_error", err)
    record_property("closure_max_abs_error", float(np.max(np.abs(_reference_jet(ev, pts, acc).coef - want))))
    # the phase is carried to about ulp^2, so the error stays within a few
    # ulps of the largest coefficient; the jet-arithmetic closures erred by up
    # to about 4e-15 on the tori, from the rounding of the phase
    assert err <= 4.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(want))))
