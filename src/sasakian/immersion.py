"""Induced geometry of parametric immersions into the unit sphere.

Everything here works at the canonical structure (a = 1), where the sphere's
Levi-Civita connection along a map F is exact: nabla_X V = D_X V + <X,V> F.
Charts are required to be flat-orthonormal (induced metric identically the
identity on the sampled grid) before any covariant differentiation; the
explicit product-of-curves immersions all satisfy this, and anything else
raises ChartError instead of silently using Christoffel symbols.

Every immersion is a finite sum of plane waves, so its Taylor coefficients
come in closed form, and derived quantities are differentiated by jet
arithmetic (see ``jets``): residuals reported by the checks are at numerical
noise level or genuinely nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .ambient import complex_structure
from .jets import MAX_ORDER, Jet, _terms

FLAT_CHART_TOL = 1e-9
UNIT_NORM_TOL = 1e-13
INTEGRAL_TOL = EIGEN_TOL = LATTICE_TOL = 1e-10
C_PARALLEL_TOL = NORMAL_LAPLACIAN_TOL = BITENSION_TOL = 1e-8


class ChartError(ValueError):
    """The induced metric of the chart is not flat-orthonormal."""


_FACTORIAL = np.array([math.factorial(k) for k in range(MAX_ORDER + 1)], dtype=float)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, each half with at most 26 significant bits (Dekker)."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _phase(theta: np.ndarray, pts: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta + p_0 f_0 + p_1 f_1 + ... as (hi, lo).

    hi is the float sum in exactly that order; lo accumulates the rounding
    error of every product and sum in it, each found exactly by Dekker's
    product and Knuth's sum, so hi + lo is the phase to about ulp^2.
    """
    hi, lo = theta, 0.0
    for i in range(f.shape[1]):
        a, b = pts[:, i : i + 1], f[:, i]
        prod = a * b
        total = hi + prod
        (ah, al), (bh, bl) = _split(a), _split(b)
        prod_err = ((ah * bh - prod) + ah * bl + al * bh) + al * bl
        back = total - hi
        lo = lo + (prod_err + ((hi - (total - back)) + (prod - back)))
        hi = total
    return hi, lo


@dataclass
class ParametricImmersion:
    """A finite sum of plane waves sum_k W_k exp(i(<f_k, p> + theta_k)) in C^{n+1}.

    ``amplitudes`` W is complex (K, n+1), ``frequencies`` f is (K, m) and
    ``phases`` theta is (K,); ambient coordinates are blocked (Re..., Im...)
    in R^{2n+2}.  ``basis`` is the complex unitary matrix whose rows are the
    defining basis of the construction (identity, or None, in standard
    coordinates); the circle decomposition reads it.
    """

    amplitudes: np.ndarray
    frequencies: np.ndarray
    phases: np.ndarray
    name: str = ""
    sample_box: tuple[float, ...] | None = None
    basis: np.ndarray | None = None

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.phases = np.asarray(self.phases, dtype=float)
        K = self.amplitudes.shape[0] if self.amplitudes.ndim == 2 else -1
        if K < 1 or self.frequencies.ndim != 2 or self.frequencies.shape[0] != K or self.phases.shape != (K,):
            raise ValueError(
                f"wave table shapes disagree: amplitudes {self.amplitudes.shape}, "
                f"frequencies {self.frequencies.shape}, phases {self.phases.shape}; "
                "expected (K, n+1), (K, m) and (K,)"
            )

    @property
    def m(self) -> int:
        return self.frequencies.shape[1]

    @property
    def n(self) -> int:
        return self.amplitudes.shape[1] - 1

    @property
    def ambient_dim(self) -> int:
        return 2 * self.n + 2

    def jets(self, pts: np.ndarray, acc: int) -> Jet:
        """Jet of accuracy ``acc`` at each point, every coefficient in closed form.

        The coefficient of the multi-index a is f^a / a! times
        W exp(i(phi + |a| pi/2)); the quarter turn i^|a| is one of 1, i, -1,
        -i, so multiplying by it is exact.  The phase phi = hi + lo comes from
        ``_phase``, and exp(i phi) = exp(i hi) (1 + i lo): lo is a few ulps of
        phi, so lo^2 is far below an ulp of 1.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[-1] != self.m:
            raise ValueError(f"points have dimension {pts.shape[-1]}, immersion has m={self.m}")
        f = self.frequencies
        hi, lo = _phase(self.phases, pts, f)
        c, s = np.cos(hi), np.sin(hi)
        wave = (c - lo * s) + 1j * (s + lo * c)  # (N, K)
        exps = np.array(_terms(self.m, acc))  # (T, m) in jet order
        turn = np.array([1.0, 1j, -1.0, -1j])[exps.sum(axis=1) % 4]  # i^|a|
        scale = np.prod(f[:, None, :] ** exps / _FACTORIAL[exps], axis=-1) * turn  # (K, T)
        # the einsum writes the terms last, its fastest loop; the real and
        # imaginary halves are copied once into term-first rows
        coef = np.einsum("nk,ktj->njt", wave, scale[:, :, None] * self.amplitudes[:, None, :], order="C")
        half = coef.shape[1]
        rows = np.empty((coef.shape[2], coef.shape[0], 2 * half))
        rows[..., :half] = coef.real.transpose(2, 0, 1)
        rows[..., half:] = coef.imag.transpose(2, 0, 1)
        return Jet._of(self.m, acc, rows)

    def values(self, pts: np.ndarray) -> np.ndarray:
        return self.jets(pts, 0).value

    def grid(self, per_axis: int = 5) -> np.ndarray:
        """Uniform midpoint grid over one period cell (or a 2*pi box)."""
        box = self.sample_box or (2.0 * np.pi,) * self.m
        axes = [(np.arange(per_axis) + 0.5) / per_axis * box[i] for i in range(self.m)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool = field(init=False)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.passed = bool(self.residual < self.tolerance)


@dataclass
class GeometrySample:
    """Induced geometry of F at a grid of points, from one accuracy-4 jet.

    The eager fields carry the grid as leading axis.  The covariant jets
    (tangents, B_ij, tau) are built on first use, and only on a
    flat-orthonormal chart: asking for them on any other raises ChartError.
    """

    immersion: ParametricImmersion
    jet: Jet                           # accuracy-4 jet of F at the points
    points: np.ndarray                 # (N, m)
    metric: np.ndarray                 # (N, m, m)
    tangents: np.ndarray               # (N, m, dim)
    second_fundamental: np.ndarray     # (N, m, m, dim)
    mean_curvature: np.ndarray         # (N, dim)
    mean_curvature_norm: np.ndarray    # (N,)
    tangential_residual: float         # max |<nabla_i d_j F, T_k>| before projection

    @property
    def values(self) -> np.ndarray:
        return self.jet.value

    @cached_property
    def tangent_jets(self) -> list[Jet]:
        """d_i F as jets of accuracy 3; the chart must be flat-orthonormal."""
        require_flat_chart(self)
        return [self.jet.deriv(i) for i in range(self.immersion.m)]

    def _second_fundamental_jet(self, i: int, j: int, acc: int) -> Jet:
        """B_ij = (nabla_i d_j F)^perp as a jet of accuracy ``acc`` <= 2.

        Products keep their low-degree coefficients bit-equal at any
        accuracy (see ``jets``), so this is the truncation of the
        accuracy-2 jet.
        """
        X = self.jet.truncate(acc)
        T = [t.truncate(acc) for t in self.tangent_jets]
        nab = self.tangent_jets[i].truncate(acc + 1).deriv(j) + _dotj(T[i], T[j]) * X
        proj = nab
        for t in T:
            proj = proj - _dotj(nab, t) * t
        return proj

    @cached_property
    def _diagonal_second_fundamental_jets(self) -> list[Jet]:
        """B_ii as jets of accuracy 2, the terms of tau."""
        return [self._second_fundamental_jet(i, i, 2) for i in range(self.immersion.m)]

    @cached_property
    def second_fundamental_jets(self) -> dict[tuple[int, int], Jet]:
        """B_ij as jets of accuracy 1 (flat-orthonormal chart).

        Read by ``check_C_parallel``, which needs the values and first
        derivatives only.  The diagonal is the truncation of the accuracy-2
        B_ii that ``tension_jet`` sums.
        """
        m = self.immersion.m
        B: dict[tuple[int, int], Jet] = {}
        for i in range(m):
            B[(i, i)] = self._diagonal_second_fundamental_jets[i].truncate(1)
            for j in range(i + 1, m):
                B[(i, j)] = B[(j, i)] = self._second_fundamental_jet(i, j, 1)
        return B

    @cached_property
    def tension_jet(self) -> Jet:
        """tau = trace B = m H as a jet of accuracy 2 (flat-orthonormal chart).

        Read by ``check_normal_laplacian`` and ``bitension``, which take two
        covariant derivatives of it.  Only the diagonal B_ii are built.
        """
        diagonal = self._diagonal_second_fundamental_jets
        tau = diagonal[0]
        for b in diagonal[1:]:
            tau = tau + b
        return tau


def _dotj(a: Jet, b: Jet) -> Jet:
    """Inner product of two component-stacked jets (sums the component axis)."""
    return (a * b).sum(axis=-2)


def _dotv(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.sum(u * v, axis=-1)


def sample_geometry(F: ParametricImmersion, pts: np.ndarray) -> GeometrySample:
    """First and second fundamental data of F at the given points.

    Evaluates the accuracy-4 jet of F once; every derivative check reads it
    from the returned sample.  Uses the sphere connection
    nabla_X Y = D_X Y + <X,Y> F and projects the second derivatives onto the
    normal space of span{dF} with the actual induced metric (no flatness
    assumption here).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    jet = F.jets(pts, 4)
    X = jet.truncate(2)
    m, dim = F.m, F.ambient_dim
    xval = X.value
    npts = xval.shape[0]

    Tj = [X.deriv(i) for i in range(m)]
    tangents = np.stack([t.value for t in Tj], axis=1)
    G = np.einsum("nid,njd->nij", tangents, tangents)

    det = np.linalg.det(G)
    if np.any(np.abs(det) < 1e-14):
        raise ValueError("induced metric is singular: not an immersion at a sampled point")

    nabla = np.empty((npts, m, m, dim))
    for i in range(m):
        for j in range(i, m):
            d2 = Tj[i].deriv(j).value
            nabla[:, i, j] = d2 + G[:, i, j][:, None] * xval
            nabla[:, j, i] = nabla[:, i, j]

    # tangential part solved against the actual metric
    rhs = np.einsum("nijd,nkd->nijk", nabla, tangents)
    coeff = np.linalg.solve(G[:, None, None, :, :], rhs[..., None])[..., 0]
    B = nabla - np.einsum("nijk,nkd->nijd", coeff, tangents)

    Ginv = np.linalg.inv(G)
    H = np.einsum("nij,nijd->nd", Ginv, B) / m
    return GeometrySample(
        immersion=F,
        jet=jet,
        points=pts,
        metric=G,
        tangents=tangents,
        second_fundamental=B,
        mean_curvature=H,
        mean_curvature_norm=np.linalg.norm(H, axis=-1),
        tangential_residual=float(np.max(np.abs(rhs))),
    )


def check_unit_norm(values: np.ndarray) -> CheckResult:
    """Max of ||F|^2 - 1| over an (N, dim) array of values of F."""
    res = float(np.max(np.abs(_dotv(values, values) - 1.0)))
    return CheckResult("unit_norm", res, UNIT_NORM_TOL)


def check_integral(sample: GeometrySample) -> CheckResult:
    """Max of |eta0(d_i F)| over the grid: zero iff F is an integral submanifold."""
    xi0 = -complex_structure(sample.values)
    res = 0.0
    for i in range(sample.immersion.m):
        res = max(res, float(np.max(np.abs(_dotv(sample.tangents[:, i], xi0)))))
    return CheckResult("integral", res, INTEGRAL_TOL)


def require_flat_chart(sample: GeometrySample) -> None:
    F = sample.immersion
    dev = float(np.max(np.abs(sample.metric - np.eye(F.m))))
    if dev > FLAT_CHART_TOL:
        raise ChartError(
            f"chart of '{F.name or 'immersion'}' is not flat-orthonormal "
            f"(max |G - I| = {dev:.3e} > {FLAT_CHART_TOL:.1e}); covariant checks unsupported"
        )


def _normal_project_values(W: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    # flat-orthonormal chart: G = I, so projection is plain Gram sum
    return W - np.einsum("nkd,nk->nd", tangents, np.einsum("nd,nkd->nk", W, tangents))


def check_C_parallel(sample: GeometrySample) -> CheckResult:
    """Residual of (nabla^perp B)(X_i, X_j, X_k) = g(phi X_i, B(X_j, X_k)) xi.

    Also reports the total-symmetry spread of S(X,Y,Z) = g(phi X, B(Y,Z)) in
    ``extra['total_symmetry']``.
    """
    B = sample.second_fundamental_jets
    m = sample.immersion.m
    xval, tangents = sample.values, sample.tangents
    xi0 = -complex_structure(xval)

    phiT = np.empty_like(tangents)
    for i in range(m):
        jt = complex_structure(tangents[:, i])
        phiT[:, i] = jt - _dotv(jt, xval)[:, None] * xval

    res = 0.0
    S = np.empty((xval.shape[0], m, m, m))
    for i in range(m):
        for j in range(m):
            for k in range(j, m):
                Bjk = B[(j, k)]
                dB = Bjk.deriv(i).value + _dotv(tangents[:, i], Bjk.value)[:, None] * xval
                dB_perp = _normal_project_values(dB, tangents)
                s_val = _dotv(phiT[:, i], Bjk.value)
                diff = dB_perp - s_val[:, None] * xi0
                res = max(res, float(np.max(np.abs(diff))))
                S[:, i, j, k] = s_val
                S[:, i, k, j] = s_val

    sym = 0.0
    for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        if max(perm) >= m:
            continue
        axes = (0,) + tuple(1 + p for p in perm)
        sym = max(sym, float(np.max(np.abs(S - np.transpose(S, axes)))))
    out = CheckResult("c_parallel", res, C_PARALLEL_TOL)
    out.extra["total_symmetry"] = sym
    return out


def _rough_laplacian(sample: GeometrySample, V: Jet, normal: bool) -> np.ndarray:
    """-sum_i nabla_i nabla_i V along F for an accuracy-2 jet V of ambient vectors.

    With ``normal`` every covariant step is projected onto the normal bundle,
    which gives the normal Laplacian Delta^perp; otherwise the sphere
    connection along the map is used as is.
    """
    xval, tangents = sample.values, sample.tangents
    X1 = sample.jet.truncate(1)
    T1 = [t.truncate(1) for t in sample.tangent_jets]
    lap = np.zeros_like(V.value)
    for i in range(sample.immersion.m):
        dV = V.deriv(i) + _dotj(T1[i], V.truncate(1)) * X1
        if normal:
            proj = dV
            for t in T1:
                proj = proj - _dotj(dV, t) * t
            dV = proj
        d2 = dV.deriv(i).value + _dotv(tangents[:, i], dV.value)[:, None] * xval
        lap -= _normal_project_values(d2, tangents) if normal else d2
    return lap


def check_normal_laplacian(sample: GeometrySample) -> CheckResult:
    """Residual of Delta^perp H = H (geometric sign, Delta = -sum nabla nabla)."""
    H = sample.tension_jet * (1.0 / sample.immersion.m)
    lap = _rough_laplacian(sample, H, normal=True)
    res = float(np.max(np.abs(lap - H.value)))
    out = CheckResult("normal_laplacian", res, NORMAL_LAPLACIAN_TOL)
    hnorm = np.linalg.norm(H.value, axis=-1)
    out.extra["mean_curvature_norm"] = float(np.mean(hnorm))
    out.extra["mean_curvature_variance"] = float(np.var(hnorm))
    return out


def bitension(sample: GeometrySample, mode: str = "biharmonic") -> np.ndarray:
    """Bitension field tau_2 (mode 'biharmonic') or tau_2 + 4 tau (mode 'minus4').

    tau = m H; Delta tau = -sum_i nabla^F_i nabla^F_i tau along the map with
    the sphere connection; the curvature term is the constant-curvature-one
    tensor of the canonical structure.
    """
    if mode not in ("biharmonic", "minus4"):
        raise ValueError(f"unknown bitension mode {mode!r}")
    tau = sample.tension_jet
    tau2 = -_rough_laplacian(sample, tau, normal=False)
    # - trace R^N(dF, tau) dF at c = 1:  R(u,v)w = <w,v>u - <w,u>v
    tv = tau.value
    for i in range(sample.immersion.m):
        ti = sample.tangents[:, i]
        r = _dotv(ti, tv)[:, None] * ti - _dotv(ti, ti)[:, None] * tv
        tau2 -= r
    if mode == "minus4":
        tau2 += 4.0 * tv
    return tau2


def check_bitension(sample: GeometrySample, mode: str = "biharmonic") -> CheckResult:
    t2 = bitension(sample, mode)
    name = "bitension" if mode == "biharmonic" else "bitension_minus4"
    return CheckResult(name, float(np.max(np.abs(t2))), BITENSION_TOL)


def coordinate_laplacian_eigencheck(
    sample: GeometrySample, split_spec: dict[str, Sequence[int]]
) -> dict[str, CheckResult]:
    """Verify Delta x_g = mu_g x_g per component group of complex coordinates.

    Delta is -sum_i d_i d_i on ambient components (flat-orthonormal chart);
    ``split_spec`` maps group names to complex coordinate indices.  The fitted
    eigenvalue is reported in ``extra['eigenvalue']``.
    """
    xval = sample.values
    lap = np.zeros_like(xval)
    for i, t in enumerate(sample.tangent_jets):
        lap -= t.deriv(i).value

    half = sample.immersion.n + 1
    out = {}
    for name, idxs in split_spec.items():
        comp = [j for j in idxs] + [j + half for j in idxs]
        xg = xval[:, comp]
        lg = lap[:, comp]
        mu = float(np.sum(lg * xg) / np.sum(xg * xg))
        res = float(np.max(np.abs(lg - mu * xg)))
        r = CheckResult(f"laplacian_eigen_{name}", res, EIGEN_TOL)
        r.extra["eigenvalue"] = mu
        out[name] = r
    return out


def lattice_check(
    F: ParametricImmersion,
    vectors: Sequence[Sequence[float]],
    pts: np.ndarray,
    base: np.ndarray | None = None,
) -> CheckResult:
    """Max of |F(p + a) - F(p)| over the grid and the given generators.

    ``base`` holds F's values at ``pts`` when the caller has them already.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if base is None:
        base = F.values(pts)
    res = 0.0
    for a in vectors:
        shifted = F.values(pts + np.asarray(a, dtype=float))
        res = max(res, float(np.max(np.abs(shifted - base))))
    return CheckResult("lattice", res, LATTICE_TOL)
