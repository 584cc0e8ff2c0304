"""Induced geometry of parametric immersions into the unit sphere.

Everything here works at the canonical structure (a = 1), where the sphere's
Levi-Civita connection along a map F is exact: nabla_X V = D_X V + <X,V> F.
Charts are required to be flat-orthonormal (induced metric identically the
identity on the sampled grid) before any covariant differentiation; the
explicit product-of-curves immersions all satisfy this, and anything else
raises ChartError instead of silently using Christoffel symbols.

B and H are the values of the jets that the C-parallel, normal-Laplacian and
bitension checks read (B_ij = (nabla_i d_j F)^perp from ``_connection`` and
``_normal``, H = tau / m), so they need a flat-orthonormal chart too.  On
such a chart the Laplacians sum second derivatives along the m coordinate
directions, so the diagonal B_ii, tau and both Laplacians are computed on
coordinate-line jets (``Jet.lines``): derivatives of F are taken on its full
jet and only then restricted (``Jet.deriv_lines``), and every product after
that runs once over all lines, bit-equal to the multivariate product on the
terms it keeps (see ``jets``).

Every identity checked here holds point by point, so the checks read
per-point fields (``PointGeometry``) and reduce them over the grid.
``geometry_pass`` computes those fields over fixed-size blocks of points, one
``GeometrySample`` at a time, so a report's jets take memory in proportion to
``GEOMETRY_BLOCK_POINTS``, not to the grid.

Every immersion is a finite sum of plane waves, so its Taylor coefficients
come in closed form, and derived quantities are differentiated by jet
arithmetic (see ``jets``): residuals reported by the checks are at numerical
noise level or genuinely nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .ambient import complex_structure, phi0
from .jets import MAX_ORDER, Jet, _line_terms, _position, _terms

FLAT_CHART_TOL = 1e-9
UNIT_NORM_TOL = 1e-13
INTEGRAL_TOL = EIGEN_TOL = LATTICE_TOL = 1e-10
C_PARALLEL_TOL = NORMAL_LAPLACIAN_TOL = BITENSION_TOL = 1e-8
# most grid points whose jets ``geometry_pass`` holds at once; a grid of up to
# 625 points (grid 5 of a four-parameter example) stays one block.  Smaller
# blocks hold less but pay each jet product's fixed cost (a few numpy calls
# per table pair) more often; with the second-order fields on line jets that
# cost is small: three blocks of 432 points of cylinder-c1 take about 0.8
# times the time of one of 1296 (in process, best of 7, 2-vCPU Xeon VM).
GEOMETRY_BLOCK_POINTS = 640


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


@lru_cache(maxsize=None)
def _term_table(m: int, acc: int):
    """Per term of a jet in m variables: exponents a (T, m), a!, i^|a|, the parity of |a| and the term index (T, 1)."""
    exps = np.array(_terms(m, acc))  # (T, m) in jet order
    degree = exps.sum(axis=1)
    turn = np.array([1.0, 1j, -1.0, -1j])[degree % 4]
    return exps, _FACTORIAL[exps], turn, degree % 2, np.arange(len(exps))[:, None]


@lru_cache(maxsize=256)
def _wave_layout(amplitudes: bytes, K: int):
    """Which real products ``ParametricImmersion.jets`` forms for one amplitude table W (K, J).

    Keyed by the table's bytes, so every immersion of one table shares it.
    On a term of multi-index a, wave k's coefficient x + i y is
    s W_k with s = f_k^a / a! i^|a|, one complex product; it adds
    wr x - wi y to a component's real column and wr y + wi x to its
    imaginary column.  s is real on even terms and s = i t, t real, on odd
    ones, so up to the sign of zero x = s Re W, y = s Im W on even terms and
    x = -t Im W, y = t Re W on odd ones: where W is purely real or
    imaginary, one half is a signed zero on every term of a parity.

    Layer r takes, for each component, its r-th wave with W nonzero
    (ascending k), or else a wave with W zero, whose halves are signed zeros.
    Returns ``wave`` (R, 1, J), the layers' waves, and ``columns`` (J,);
    ``half`` (R, 2, J), per parity 0 where the first product takes x and 1
    where it takes y (the half that can be nonzero, x where W is complex);
    ``first`` and ``second`` (R, 2, 2J), per parity and column the part of
    [wr | wi | -wi] (N, 3K) that multiplies that half and the other one; and
    ``complex_layer``, per layer whether some W in it is complex, so that the
    other half is needed.
    """
    W = np.frombuffer(amplitudes, dtype=complex).reshape(K, -1)
    nonzero = W != 0
    wave = np.argsort(~nonzero, axis=0, kind="stable")[: int(nonzero.sum(axis=0).max(initial=0))]
    w = np.take_along_axis(W, wave, 0)
    half = np.stack([w.real == 0, w.imag == 0], axis=1).astype(int)
    # the part for half h: x by wr in a real column and by wi in an imaginary one, y by -wi and wr
    offset = np.array([[0, 2 * K], [K, 0]])
    k = np.concatenate((wave, wave), axis=-1)[:, None, :]

    def parts(h):
        return np.concatenate((offset[0][h], offset[1][h]), axis=-1) + k

    complex_layer = ((w.real != 0) & (w.imag != 0)).any(axis=1).tolist()
    return wave[:, None, :], np.arange(W.shape[1]), half, parts(half), parts(1 - half), complex_layer


@lru_cache(maxsize=256)
def _wave_plan(amplitudes: bytes, frequencies: bytes, K: int, m: int, acc: int):
    """``_wave_layout``'s products with their coefficients, for one wave table and accuracy.

    Keyed by the table's bytes, like the layout.  Returns ``parity`` (T,),
    each term's degree parity, and per layer one or two products (idx, C):
    idx (2, 2J) from the layout, and C (T, 2J) the coefficient half that the
    part multiplies, the same in a component's real and imaginary column.
    """
    wave, columns, half, first, second, complex_layer = _wave_layout(amplitudes, K)
    W = np.frombuffer(amplitudes, dtype=complex).reshape(K, -1)
    f = np.frombuffer(frequencies, dtype=float).reshape(K, m)
    exps, factorials, turn, parity, terms = _term_table(m, acc)
    scale = np.prod(f[:, None, :] ** exps / factorials, axis=-1) * turn  # (K, T)
    coefficient = scale[:, :, None] * W[:, None, :]  # (K, T, J)
    halves = coefficient.view(float).reshape(coefficient.shape + (2,))  # x, y
    h = half[:, parity]  # (R, T, J)
    C = halves[wave, terms, columns, h]
    C = np.concatenate((C, C), axis=-1)  # (R, T, 2J)
    layers = []
    for r, both in enumerate(complex_layer):
        if both:
            other = halves[wave[r], terms, columns, 1 - h[r]]
            layers.append(((first[r], C[r]), (second[r], np.concatenate((other, other), axis=-1))))
        else:
            layers.append(((first[r], C[r]),))
    return parity, tuple(layers)


def _wave_term(parts: np.ndarray, parity: np.ndarray, idx: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The term-first rows (T, N, 2J) of one product (idx, C) of ``_wave_plan``, C-contiguous."""
    rows = parts.take(idx, axis=1).transpose(1, 0, 2).take(parity, axis=0)
    rows *= C[:, None, :]
    return rows


@dataclass
class ParametricImmersion:
    """A finite sum of plane waves sum_k W_k exp(i(<f_k, p> + theta_k)) in C^{n+1}.

    ``amplitudes`` W is complex (K, n+1), ``frequencies`` f is (K, m) and
    ``phases`` theta is (K,); ambient coordinates are blocked (Re..., Im...)
    in R^{2n+2}.
    """

    amplitudes: np.ndarray
    frequencies: np.ndarray
    phases: np.ndarray
    name: str = ""
    sample_box: tuple[float, ...] | None = None

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

    def jets(self, pts: np.ndarray, acc: int) -> Jet:
        """Jet of accuracy ``acc`` at each point, every coefficient in closed form.

        The coefficient of the multi-index a is the sum over the waves k of
        w_k c_k: w_k = exp(i phi_k) = wr + i wi at the point, and
        c_k = (f_k^a / a!) i^|a| W_k, formed as one complex product.  The
        quarter turn i^|a| is one of 1, i, -1, -i, so multiplying by it is
        exact.  The phase phi = hi + lo comes from ``_phase``, and
        exp(i phi) = exp(i hi) (1 + i lo): lo is a few ulps of phi, so lo^2 is
        far below an ulp of 1.

        The rows are written term-first by ``_wave_plan``'s layers: real
        products with the same operands as the complex sum
        0 + w_0 c_0 + w_1 c_1 + ..., where w c = (wr Re c - wi Im c,
        wr Im c + wi Re c), added in ascending k, so the bits are the same,
        sign of zero included.  Where Re c or Im c is zero on every term of a
        parity (every amplitude entry is purely real or imaginary), a product
        with it is a signed zero, which leaves any nonzero sum unchanged: a
        layer skips it, and adds only signed zeros for a component with fewer
        waves.  Dropping or adding zeros changes at most the sign of a zero
        total, and the final ``+ 0.0``, the zero start of the sum, turns -0.0
        into +0.0.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[-1] != self.m:
            raise ValueError(f"points have dimension {pts.shape[-1]}, immersion has m={self.m}")
        f, W = self.frequencies, self.amplitudes
        parity, layers = _wave_plan(W.tobytes(), f.tobytes(), *f.shape, acc)
        hi, lo = _phase(self.phases, pts, f)
        c, s = np.cos(hi), np.sin(hi)
        wi = s + lo * c
        parts = np.concatenate((c - lo * s, wi, -wi), axis=1)  # [wr | wi | -wi], (N, 3K)
        rows = None
        for products in layers:
            layer = _wave_term(parts, parity, *products[0])
            if len(products) > 1:
                # a complex amplitude: both products, as one rounded sum
                layer += _wave_term(parts, parity, *products[1])
            if rows is None:
                rows = layer
            else:
                rows += layer
        if rows is None:  # every amplitude zero
            rows = np.zeros((parity.size, len(pts), 2 * W.shape[1]))
        rows += 0.0
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
class PointGeometry:
    """Geometry of F at a grid of points, every array with the grid as leading axis.

    Besides the first-order fields, the checks read per-point covariant
    fields, which exist on flat-orthonormal charts only: ``second_fundamental``
    B (N, m, m, dim), ``tension`` tau = trace B (N, dim), ``phi_b_form``,
    ``c_parallel_defect``, ``normal_laplacian_defect``, ``tension_laplacian``
    and ``coordinate_laplacian``.  A ``GeometrySample`` derives them from its jets;
    ``geometry_pass`` assembles the ones it is asked for over a whole grid.
    """

    immersion: ParametricImmersion
    points: np.ndarray                 # (N, m)
    values: np.ndarray                 # (N, dim)
    tangents: np.ndarray               # (N, m, dim)

    @cached_property
    def metric(self) -> np.ndarray:
        """The induced metric G_ij = <d_i F, d_j F>, (N, m, m)."""
        return np.einsum("nid,njd->nij", self.tangents, self.tangents)

    @cached_property
    def mean_curvature(self) -> np.ndarray:
        """H = tau / m at the points, (N, dim)."""
        return self.tension * (1.0 / self.immersion.m)

    @cached_property
    def mean_curvature_norm(self) -> np.ndarray:
        return np.linalg.norm(self.mean_curvature, axis=-1)


@dataclass
class GeometrySample(PointGeometry):
    """Induced geometry of F at one block of points, from its accuracy-4 jet.

    Everything covariant (tangent jets, B_ij, tau and the per-point fields of
    ``PointGeometry``) is built on first use, and only on a flat-orthonormal
    chart: asking for it on any other raises ChartError.  Building every
    field peaks at about 16 KB per point (``cylinder-c1``, one block of 640
    points, tracemalloc), some 7 times the 2.4 KB per point of fields kept
    from them, so ``geometry_pass`` holds one block at a time.

    The diagonal B_ii, tau and both Laplacians live on the coordinate lines
    (see the module docstring).  Restriction to line k does not commute with
    d_i for i != k, so d_i F and d_i d_i F are read off the full jet by
    ``Jet.deriv_lines``, which restricts after the derivatives.
    """

    jet: Jet                           # accuracy-4 jet of F at the points

    @cached_property
    def line_jet(self) -> Jet:
        """F on the coordinate lines at accuracy 2; the chart must be flat-orthonormal.

        Every covariant field starts here, so the chart is checked once per sample.
        """
        require_flat_chart(self)
        return self.jet.truncate(2).lines()

    @cached_property
    def _diagonal(self) -> tuple[Jet, list[Jet]]:
        """tau on the coordinate lines at accuracy 2, and the B_ii as (multivariate) jets of accuracy 1.

        B_ii = (d_i d_i F + <d_i F, d_i F> F)^perp on every line at once.  The
        B_ii of accuracy 1 gather the value and the x_k coefficient of line k.
        """
        m, X = self.immersion.m, self.line_jet
        T = [self.jet.deriv_lines((j,), 2) for j in range(m)]
        tau, diagonal = None, []
        for i in range(m):
            # _connection(d_i F, i, d_i F, F), with d_i d_i F restricted after both derivatives
            b = _normal(self.jet.deriv_lines((i, i), 2) + _dotj(T[i], T[i]) * X, T)
            tau = b if tau is None else tau + b
            # undo the restriction on the terms of degree <= 1; every line holds the same value
            rows = np.empty((m + 1,) + b.rows.shape[2:])
            rows[_line_terms(m, 1)] = b.rows[:2].reshape((2 * m,) + rows.shape[1:])
            diagonal.append(Jet._of(m, 1, rows))
        return tau, diagonal

    @property
    def tension_lines(self) -> Jet:
        """tau = trace B = m H on the coordinate lines, a line jet of accuracy 2 (flat-orthonormal chart).

        Read by ``normal_laplacian_defect`` and ``tension_laplacian``, which
        take two covariant derivatives of it along each line.
        """
        return self._diagonal[0]

    @cached_property
    def second_fundamental_jets(self) -> dict[tuple[int, int], Jet]:
        """B_ij as jets of accuracy 1 (flat-orthonormal chart).

        Read by ``c_parallel_defect``, which needs the values and first
        derivatives only.  The diagonal comes from the line jets of tau's terms.
        """
        m, diagonal = self.immersion.m, self._diagonal[1]
        tangents = [self.jet.truncate(3).deriv(j) for j in range(m)]  # d_j F, accuracy 2
        B: dict[tuple[int, int], Jet] = {}
        for i in range(m):
            B[(i, i)] = diagonal[i]
            for j in range(i + 1, m):
                B[(i, j)] = B[(j, i)] = _normal(_connection(tangents[j], i, tangents[i], self.jet), tangents)
        return B

    @cached_property
    def second_fundamental(self) -> np.ndarray:
        """B at the points, (N, m, m, dim): the values of the B_ij jets."""
        B, m = self.second_fundamental_jets, self.immersion.m
        return np.stack([np.stack([B[(i, j)].value for j in range(m)], axis=1) for i in range(m)], axis=1)

    @cached_property
    def tension(self) -> np.ndarray:
        """tau at the points, (N, dim)."""
        return self.tension_lines.rows[0, 0]

    @cached_property
    def phi_b_form(self) -> np.ndarray:
        """S(X_i, X_j, X_k) = g(phi X_i, B(X_j, X_k)) at the points, (N, m, m, m)."""
        B = self.second_fundamental_jets
        m = self.immersion.m
        phiT = phi0(self.values[:, None], self.tangents)
        S = np.empty((len(self.points), m, m, m))
        for i in range(m):
            for j in range(m):
                for k in range(j, m):
                    S[:, i, j, k] = S[:, i, k, j] = _dotv(phiT[:, i], B[(j, k)].value)
        return S

    @cached_property
    def c_parallel_defect(self) -> np.ndarray:
        """max over components of |(nabla^perp B)(X_i, X_j, X_k) - S(X_i, X_j, X_k) xi|.

        (N, K): one column per (i, j, k) with j <= k, in loop order.
        """
        B, S = self.second_fundamental_jets, self.phi_b_form
        m = self.immersion.m
        xval, tangents = self.values, self.tangents
        xi0 = -complex_structure(xval)
        defect = np.empty((len(self.points), m * m * (m + 1) // 2))
        column = 0
        for i in range(m):
            for j in range(m):
                for k in range(j, m):
                    dB_perp = _normal_project_values(_connection_value(B[(j, k)], i, tangents[:, i], xval), tangents)
                    diff = dB_perp - S[:, i, j, k][:, None] * xi0
                    _abs_max_per_point(diff, out=defect[:, column])
                    column += 1
        return defect

    @cached_property
    def normal_laplacian_defect(self) -> np.ndarray:
        """max over components of |Delta^perp H - H| (geometric sign), (N,)."""
        H = self.tension_lines * (1.0 / self.immersion.m)
        lap = _rough_laplacian(self, H, normal=True)
        return _abs_max_per_point(lap - H.rows[0, 0])

    @cached_property
    def tension_laplacian(self) -> np.ndarray:
        """Delta tau = -sum_i nabla_i nabla_i tau with the sphere connection along F, (N, dim)."""
        return _rough_laplacian(self, self.tension_lines, normal=False)

    @cached_property
    def coordinate_laplacian(self) -> np.ndarray:
        """-sum_i d_i d_i F on ambient components (flat-orthonormal chart), (N, dim)."""
        second = self.line_jet.deriv(0).rows[1]  # d_i d_i F, read on line i
        lap = np.zeros_like(self.values)
        for i in range(self.immersion.m):
            lap -= second[i]
        return lap


def _dotj(a: Jet, b: Jet) -> Jet:
    """Inner product of two component-stacked jets (sums the component axis)."""
    return (a * b).sum(axis=-2)


def _abs_max_per_point(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max |a| over the components of an (N, dim) array, per point.

    np.max(np.abs(a), axis=-1) runs numpy's loop along each short row, about
    five times slower than reducing the transposed copy along its rows.
    """
    return np.max(np.ascontiguousarray(np.abs(a).T), axis=0, out=out)


def _dotv(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.sum(u * v, axis=-1)


def _connection(V: Jet, i: int, T_i: Jet, X: Jet) -> Jet:
    """nabla_i V = d_i V + <T_i, V> X for jets of V, T_i = d_i F and X = F; accuracy drops by one."""
    a = V.acc - 1
    return V.deriv(i) + _dotj(T_i.truncate(a), V.truncate(a)) * X.truncate(a)


def _normal(V: Jet, tangents: list[Jet]) -> Jet:
    """The normal part of a jet V of ambient vectors, given the jets of the d_j F (G = I, so a plain Gram sum)."""
    proj = V
    for t in tangents:
        proj = proj - _dotj(V, t) * t
    return proj


def _deriv_value(V: Jet, i: int) -> np.ndarray:
    """The value of d_i V, read off V: its coefficient of x_i (a view)."""
    return V.rows[_position(V.nvars, 1)[tuple(int(k == i) for k in range(V.nvars))]]


def _connection_value(V: Jet, i: int, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The value of nabla_i V, from a jet V and the values t of d_i F and x of F."""
    return _deriv_value(V, i) + _dotv(t, V.value)[:, None] * x


def _tangents(X: Jet) -> np.ndarray:
    """d_i F at the points, (N, m, dim), from a jet X of F of accuracy >= 1."""
    return np.stack([_deriv_value(X, i) for i in range(X.nvars)], axis=1)


def _require_immersion(geo: PointGeometry) -> None:
    if np.any(np.abs(np.linalg.det(geo.metric)) < 1e-14):
        raise ValueError("induced metric is singular: not an immersion at a sampled point")


def sample_geometry(F: ParametricImmersion, pts: np.ndarray) -> GeometrySample:
    """The accuracy-4 jet of F at one block of points, with its tangents and metric.

    A metric singular at a sampled point is refused (ValueError).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    jet = F.jets(pts, 4)
    sample = GeometrySample(immersion=F, points=pts, values=jet.value, tangents=_tangents(jet), jet=jet)
    _require_immersion(sample)
    return sample


def point_blocks(n: int) -> list[slice]:
    """range(n) in equal consecutive slices (sizes differ by one at most) of at most GEOMETRY_BLOCK_POINTS."""
    count = max(1, -(-n // GEOMETRY_BLOCK_POINTS))
    edges = [n * k // count for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def geometry_pass(F: ParametricImmersion, pts: np.ndarray, fields: Sequence[str] = ()) -> PointGeometry:
    """F's geometry on a whole grid: values, tangents and the named per-point fields.

    Without ``fields`` this is one accuracy-1 evaluation of F, and the metric
    is not checked.  Otherwise the grid is cut into ``point_blocks``; each
    block's ``GeometrySample`` is built, read and dropped before the next, so
    the jets held at once grow with ``GEOMETRY_BLOCK_POINTS``, not with the
    grid, and F is evaluated once at each point.  Every field is computed
    point by point, so no value depends on the block size.  A singular metric
    raises ValueError, and a block whose chart is not flat-orthonormal raises
    ChartError before its covariant work, judged on the whole grid as one
    block would be.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if not fields:
        X = F.jets(pts, 1)
        return PointGeometry(F, pts, X.value, _tangents(X))
    names = ("values", "tangents") + tuple(fields)
    assembled: dict[str, np.ndarray] = {}
    for block in point_blocks(len(pts)):
        sample = sample_geometry(F, pts[block])
        try:
            require_flat_chart(sample)
        except ChartError:
            # judge the whole grid, as one block would: a singular metric
            # anywhere first, then the deviation over all points
            grid = geometry_pass(F, pts)
            _require_immersion(grid)
            require_flat_chart(grid)
            raise
        for name in names:
            part = getattr(sample, name)
            if name not in assembled:
                assembled[name] = np.empty((len(pts),) + part.shape[1:])
            assembled[name][block] = part
        del sample  # its jets go before the next block's are built
    grid = PointGeometry(F, pts, assembled.pop("values"), assembled.pop("tangents"))
    vars(grid).update(assembled)
    return grid


def check_unit_norm(values: np.ndarray) -> CheckResult:
    """Max of ||F|^2 - 1| over an (N, dim) array of values of F."""
    res = float(np.max(np.abs(_dotv(values, values) - 1.0)))
    return CheckResult("unit_norm", res, UNIT_NORM_TOL)


def check_integral(sample: PointGeometry) -> CheckResult:
    """Max of |eta0(d_i F)| over the grid: zero iff F is an integral submanifold."""
    xi0 = -complex_structure(sample.values)
    res = 0.0
    for i in range(sample.immersion.m):
        res = max(res, float(np.max(np.abs(_dotv(sample.tangents[:, i], xi0)))))
    return CheckResult("integral", res, INTEGRAL_TOL)


def require_flat_chart(sample: PointGeometry) -> None:
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


def check_C_parallel(sample: PointGeometry) -> CheckResult:
    """Residual of (nabla^perp B)(X_i, X_j, X_k) = g(phi X_i, B(X_j, X_k)) xi.

    Reads ``c_parallel_defect`` and ``phi_b_form``.  Also reports the
    total-symmetry spread of S(X,Y,Z) = g(phi X, B(Y,Z)) in
    ``extra['total_symmetry']``.
    """
    res = 0.0
    for column_max in np.max(sample.c_parallel_defect, axis=0):
        res = max(res, float(column_max))

    S, m = sample.phi_b_form, sample.immersion.m
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
    """-sum_i nabla_i nabla_i V along F for a line jet V of ambient vectors, accuracy 2.

    Line i gives nabla_i nabla_i V at the point.  With ``normal`` every
    covariant step is projected onto the normal bundle, which gives the
    normal Laplacian Delta^perp; otherwise the sphere connection along the
    map is used as is.
    """
    xval, tangents = sample.values, sample.tangents
    # along line i the derivative d_i is the line's own, and so is the tangent d_i F
    X = sample.line_jet
    dV = _connection(V, 0, X.deriv(0), X)
    if normal:
        dV = _normal(dV, [sample.jet.deriv_lines((j,), 1) for j in range(sample.immersion.m)])
    lap = np.zeros_like(xval)
    for i in range(sample.immersion.m):
        # _connection_value on line i: its x_i coefficient and its value
        d2 = dV.rows[1, i] + _dotv(tangents[:, i], dV.rows[0, i])[:, None] * xval
        lap -= _normal_project_values(d2, tangents) if normal else d2
    return lap


def check_normal_laplacian(sample: PointGeometry) -> CheckResult:
    """Residual of Delta^perp H = H (geometric sign, Delta = -sum nabla nabla)."""
    res = float(np.max(sample.normal_laplacian_defect))
    return CheckResult("normal_laplacian", res, NORMAL_LAPLACIAN_TOL)


def bitension(sample: PointGeometry, mode: str = "biharmonic") -> np.ndarray:
    """Bitension field tau_2 (mode 'biharmonic') or tau_2 + 4 tau (mode 'minus4').

    tau = m H; Delta tau = -sum_i nabla^F_i nabla^F_i tau along the map with
    the sphere connection (``tension_laplacian``); the curvature term is the
    constant-curvature-one tensor of the canonical structure.
    """
    if mode not in ("biharmonic", "minus4"):
        raise ValueError(f"unknown bitension mode {mode!r}")
    tau2 = -sample.tension_laplacian
    # - trace R^N(dF, tau) dF at c = 1:  R(u,v)w = <w,v>u - <w,u>v
    tv = sample.tension
    for i in range(sample.immersion.m):
        ti = sample.tangents[:, i]
        r = _dotv(ti, tv)[:, None] * ti - _dotv(ti, ti)[:, None] * tv
        tau2 -= r
    if mode == "minus4":
        tau2 += 4.0 * tv
    return tau2


def check_bitension(sample: PointGeometry, mode: str = "biharmonic") -> CheckResult:
    t2 = bitension(sample, mode)
    name = "bitension" if mode == "biharmonic" else "bitension_minus4"
    return CheckResult(name, float(np.max(np.abs(t2))), BITENSION_TOL)


def coordinate_laplacian_eigencheck(
    sample: PointGeometry, split_spec: dict[str, Sequence[int]]
) -> dict[str, CheckResult]:
    """Verify Delta x_g = mu_g x_g per component group of complex coordinates.

    Delta is -sum_i d_i d_i on ambient components (``coordinate_laplacian``);
    ``split_spec`` maps group names to complex coordinate indices.  The fitted
    eigenvalue is reported in ``extra['eigenvalue']``.
    """
    xval = sample.values
    lap = sample.coordinate_laplacian

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
