"""Explicit immersions: flat tori, Legendre curves, surfaces, and cylinders.

Every construction lands in the unit sphere of C^{n+1} in blocked real
coordinates (Re..., Im...) and is a table of plane waves (see
``ParametricImmersion``): the constructors only build or transform the table.
Each family has one construction, with the parameters a command sets.  The
flat tori are products of circles along the standard basis, one wave per
complex coordinate, so the circle decomposition reads their radii off ambient
samples alone; the 5-sphere surface and its cylinder are circle products along
the rows of ``S5_CYL_BASIS``, which the decomposition is given.  The paper's
flat tori, the corollary's at c = 1 and the three (-4)-biharmonic ones, are
built from the classifier's tuples, the ones ``classify`` prints, so
``verify`` checks the tori that ``classify`` reports; no closed form of a
tuple is written here.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import ambient
from .classifier import SolutionTuple, solve_flat, solve_minus4_flat
from .immersion import ParametricImmersion, PointGeometry, geometry_pass

SQ2, SQ3, SQ5, SQ10 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0), math.sqrt(10.0)

CIRCLE_MODULUS_TOL = 1e-10

COROLLARY_LATTICE = (
    (6.0 * math.pi / SQ5, SQ3 * math.pi / SQ10, math.pi / SQ2),
    (0.0, -3.0 * SQ5 * math.pi / math.sqrt(6.0), -math.pi / SQ2),
    (0.0, 0.0, -4.0 * math.pi / SQ2),
)

S5_LATTICE = ((2.0 * math.pi, 0.0), (0.0, SQ2 * math.pi))

S5_CYLINDER_LATTICE = ((2.0 * math.pi, 0.0, 0.0), (0.0, 2.0 * math.pi, 0.0), (0.0, 0.0, SQ2 * math.pi))

# periods of the 4-torus cylinder in the transformed coordinates
T4_CYLINDER_LATTICE_TILDE = (
    (2.0 * math.pi / math.sqrt(6.0), 0.0, 0.0, 0.0),
    (0.0, 2.0 * math.pi / math.sqrt(6.0), 0.0, 0.0),
    (0.0, 0.0, 2.0 * math.pi / math.sqrt(6.0), 0.0),
    (0.0, 0.0, 0.0, 2.0 * math.pi / SQ2),
)

# first orthogonal change of variables for the 4-torus cylinder
T4_TRANSFORM_1 = np.array(
    [
        [1.0 / SQ2, 1.0 / SQ10, SQ3 / (2.0 * SQ5), 0.5],
        [0.0, 2.0 / SQ5, -math.sqrt(6.0) / (4.0 * SQ5), -SQ2 / 4.0],
        [0.0, 0.0, SQ5 / (2.0 * SQ2), -SQ3 / (2.0 * SQ2)],
        [1.0 / SQ2, -1.0 / SQ10, -SQ3 / (2.0 * SQ5), -0.5],
    ]
)

# second orthogonal change of variables (applied after the first)
T4_TRANSFORM_2 = np.array(
    [
        [SQ2 / math.sqrt(6.0), 2.0 / math.sqrt(6.0), 0.0, 0.0],
        [-SQ2 / math.sqrt(6.0), 1.0 / math.sqrt(6.0), -SQ3 / math.sqrt(6.0), 0.0],
        [-SQ2 / math.sqrt(6.0), 1.0 / math.sqrt(6.0), SQ3 / math.sqrt(6.0), 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)

# domain rotation and unitary basis putting the 5-sphere cylinder in circle form
S5_CYL_TRANSFORM_1 = np.array(
    [[-1.0 / SQ2, 1.0 / SQ2, 0.0], [-1.0 / SQ2, -1.0 / SQ2, 0.0], [0.0, 0.0, 1.0]]
)
S5_CYL_TRANSFORM_2 = np.array(
    [[1.0, 0.0, 0.0], [0.0, 1.0 / SQ2, 1.0 / SQ2], [0.0, 1.0 / SQ2, -1.0 / SQ2]]
)
S5_CYL_BASIS = np.array(
    [[1.0, 0.0, 0.0], [0.0, 1.0 / SQ2, 1j / SQ2], [0.0, -1.0 / SQ2, 1j / SQ2]], dtype=complex
)


class CircleProduct(NamedTuple):
    """Radii and frequency rows of a product-of-circles torus; a report checks sum r^2 = 1 (``decomposition_sum_sq``)."""

    radii: np.ndarray
    frequencies: np.ndarray


def flat_torus(tup: SolutionTuple, name: str, sample_box) -> ParametricImmersion:
    """The flat 3-torus immersion attached to an admissible solution tuple.

    The four circle coefficients and frequency rows come straight from the
    closed-form position vector, with the ambient's deformation parameter a
    of the tuple's c.  Circle k is the wave coeff_k exp(i <f_k, p>) e_k along
    the standard basis vector e_k of C^4.
    """
    lam, alpha, gamma, delta = tup.lam, tup.alpha, tup.gamma, tup.delta
    a = ambient.deformation_parameter(tup.c)

    if not 0.0 < abs(lam) < math.inf:
        raise ValueError("inadmissible tuple: lam must be finite and nonzero")
    rho_rad = 4.0 * gamma * (2.0 * gamma - alpha) + delta**2
    if not rho_rad > 0.0:
        raise ValueError("inadmissible tuple: 4 gamma (2 gamma - alpha) + delta^2 must be positive")
    root = math.sqrt(rho_rad)
    rho1 = 0.5 * (root + delta)
    rho2 = 0.5 * (root - delta)
    c2_rad = a * (gamma - alpha) * (2.0 * gamma - alpha)
    if not (c2_rad > 0.0 and rho1 > 0.0 and rho2 > 0.0):
        raise ValueError("inadmissible tuple: negative radicand in a circle coefficient")

    coeff = np.array(
        [
            lam / math.sqrt(lam**2 + 1.0 / a),
            1.0 / math.sqrt(c2_rad),
            1.0 / math.sqrt(a * rho1 * (rho1 + rho2)),
            1.0 / math.sqrt(a * rho2 * (rho1 + rho2)),
        ]
    )
    freqs = np.array(
        [
            [1.0 / (a * lam), 0.0, 0.0],
            [-lam, gamma - alpha, 0.0],
            [-lam, -gamma, -rho1],
            [-lam, -gamma, rho2],
        ]
    )
    return ParametricImmersion(
        amplitudes=coeff[:, None] * np.eye(4, dtype=complex),
        frequencies=freqs,
        phases=np.zeros(4),
        name=name,
        sample_box=sample_box,
    )


@functools.cache
def corollary_torus() -> tuple[SolutionTuple, ParametricImmersion]:
    """The unique proper-biharmonic flat tuple at c = 1, as ``solve_flat(1.0)`` returns it, and its 3-torus.

    Solved once per process; callers must not mutate the result.
    """
    [tup], _ = solve_flat(1.0)
    box = (2.0 * math.pi * SQ5, 2.0 * math.pi * SQ10 / SQ3, 2.0 * SQ2 * math.pi)
    return tup, flat_torus(tup, name="corollary-c1", sample_box=box)


@functools.cache
def minus4_torus(index: int) -> tuple[SolutionTuple, ParametricImmersion]:
    """The k-th flat (-4)-biharmonic tuple of ``solve_minus4_flat()`` (k = 1, 2, 3) and its 3-torus.

    Solved once per process and index; callers must not mutate the result.
    """
    if index not in (1, 2, 3):
        raise ValueError("index must be 1, 2 or 3")
    tup = solve_minus4_flat()[0][index - 1]
    return tup, flat_torus(tup, name=f"minus4-{index}", sample_box=(2.0 * math.pi,) * 3)


def s5_surface() -> ParametricImmersion:
    """The proper-biharmonic integral surface of the unit 5-sphere.

    (e^{iu}, i sin(sqrt2 v) e^{-iu}, i cos(sqrt2 v) e^{-iu}) / sqrt2 is the
    product of circles of radii 1/sqrt2, 1/2, 1/2 along the rows of
    ``S5_CYL_BASIS``.
    """
    return ParametricImmersion(
        amplitudes=np.array([[1.0 / SQ2], [0.5], [0.5]]) * S5_CYL_BASIS,
        frequencies=np.array([[1.0, 0.0], [-1.0, SQ2], [-1.0, -SQ2]]),
        phases=np.zeros(3),
        name="s5-surface",
        sample_box=(2.0 * math.pi, SQ2 * math.pi),
    )


def trig_immersion(terms, m: int, n: int, name: str, sample_box) -> ParametricImmersion:
    """Immersion sum coeff * cos(<f, p> + theta) * vec for real ambient vectors.

    Each term is the pair of conjugate waves (coeff vec / 2) e^{+-i(<f, p> + theta)}.
    """
    amps, freqs, phases = [], [], []
    for k, (cf, fr, th, vec) in enumerate(terms):
        fr, vec = np.asarray(fr, dtype=float), 0.5 * float(cf) * np.asarray(vec, dtype=float)
        if fr.shape != (m,) or vec.shape != (2 * n + 2,):
            need = f"need ({m},), ({2 * n + 2},)"
            raise ValueError(f"term {k}: frequency shape {fr.shape}, vector shape {vec.shape}; {need}")
        wave = vec[: n + 1] + 1j * vec[n + 1 :]
        amps += [wave, wave]
        freqs += [fr, -fr]
        phases += [float(th), -float(th)]
    return ParametricImmersion(amplitudes=amps, frequencies=freqs, phases=phases, name=name, sample_box=sample_box)


def helix_vectors(kappa1: float) -> np.ndarray:
    """Constant vectors e_1..e_4 in R^6 for the proper-biharmonic Legendre helix.

    e_2 = -(B/A) J e_1 + alpha_1 f with alpha_1 = sqrt(1 - B^2/A^2), e_4 = J e_3.
    """
    if not 0.0 < kappa1 < 1.0:
        raise ValueError("helix curvature must lie in (0, 1)")
    A, B = math.sqrt(1.0 + kappa1), math.sqrt(1.0 - kappa1)
    e1 = np.array([1.0, 0, 0, 0, 0, 0])
    e3 = np.array([0, 0, 1.0, 0, 0, 0])
    e2 = np.array([0.0, math.sqrt(1.0 - B**2 / A**2), 0.0, -B / A, 0.0, 0.0])
    e4 = np.array([0, 0, 0, 0, 0, 1.0])
    return np.stack([e1, e2, e3, e4])


def legendre_circle() -> ParametricImmersion:
    """The proper-biharmonic Legendre circle, by arc length, on three J-orthonormal directions of C^4."""
    inv = 1.0 / SQ2
    e1, e2, e3 = np.eye(8)[:3]
    terms = [
        (inv, (SQ2,), 0.0, e1),
        (inv, (SQ2,), -math.pi / 2.0, e2),
        (inv, (0.0,), 0.0, e3),
    ]
    return trig_immersion(terms, m=1, n=3, name="legendre-circle", sample_box=(SQ2 * math.pi,))


def legendre_helix(kappa1: float) -> ParametricImmersion:
    """The proper-biharmonic Legendre helix of curvature kappa1 in the 5-sphere (order-4 frame)."""
    vectors = helix_vectors(kappa1)
    inv = 1.0 / SQ2
    A, B = math.sqrt(1.0 + kappa1), math.sqrt(1.0 - kappa1)
    terms = [
        (inv, (A,), 0.0, vectors[0]),
        (inv, (A,), -math.pi / 2.0, vectors[1]),
        (inv, (B,), 0.0, vectors[2]),
        (inv, (B,), -math.pi / 2.0, vectors[3]),
    ]
    return trig_immersion(terms, m=1, n=2, name=f"legendre-helix:{kappa1:g}", sample_box=(2.0 * math.pi,))


def cylinder(F: ParametricImmersion) -> ParametricImmersion:
    """Flow cylinder (t, p) -> exp(-i t) F(p); domain dimension grows by one."""
    box = (2.0 * math.pi,) + tuple(F.sample_box)
    return ParametricImmersion(
        amplitudes=F.amplitudes,
        frequencies=np.concatenate([-np.ones((len(F.phases), 1)), F.frequencies], axis=1),
        phases=F.phases,
        name=f"cylinder({F.name})",
        sample_box=box,
    )


def precompose_linear(F: ParametricImmersion, A: np.ndarray, name: str) -> ParametricImmersion:
    """The immersion q -> F(A q) for a linear change of parameters A."""
    A = np.asarray(A, dtype=float)
    if A.shape != (F.m, F.m):
        raise ValueError("parameter transform has wrong shape")
    return ParametricImmersion(
        amplitudes=F.amplitudes,
        frequencies=F.frequencies @ A,
        phases=F.phases,
        name=name,
        sample_box=(2.0 * math.pi,) * F.m,
    )


def coordinate_curve(F: ParametricImmersion, axis: int, base_point) -> ParametricImmersion:
    """The coordinate curve through base_point: the axis parameter becomes s."""
    base = np.asarray(base_point, dtype=float)
    if base.shape != (F.m,):
        raise ValueError("base point has wrong dimension")
    if not 0 <= axis < F.m:
        raise ValueError(f"axis {axis} out of range for an immersion with m={F.m}")
    # the base point folds into the phases, summed in parameter order
    phases = F.phases
    for i in range(F.m):
        if i != axis:
            phases = phases + base[i] * F.frequencies[:, i]
    box = F.sample_box[axis]
    return ParametricImmersion(
        amplitudes=F.amplitudes,
        frequencies=F.frequencies[:, axis : axis + 1],
        phases=phases,
        name=f"{F.name}:curve{axis}",
        sample_box=(box,),
    )


def circle_decomposition(
    F: ParametricImmersion, per_axis: int = 5, basis=None, geometry: PointGeometry | None = None
) -> CircleProduct:
    """Read radii and frequency rows off an immersion of circle-product type.

    Each complex coordinate in the unitary ``basis`` (rows; the standard
    basis when None) must have constant modulus and affine phase over the
    grid; anything else raises ValueError.  ``geometry``, values and tangents
    of F the caller already holds (from ``geometry_pass``), replaces
    evaluating F on its ``per_axis`` grid.
    """
    if geometry is None:
        geometry = geometry_pass(F, F.grid(per_axis))
    half = F.n + 1
    if basis is None:
        basis = np.eye(half, dtype=complex)

    xval = geometry.values
    z = (xval[:, :half] + 1j * xval[:, half:]) @ basis.conj().T
    moduli = np.abs(z)
    hi, lo = np.max(moduli, axis=0), np.min(moduli, axis=0)
    spread = hi - lo
    if not np.max(spread) <= CIRCLE_MODULUS_TOL:  # NaN fails
        raise ValueError(
            f"complex coordinate modulus is not constant (spread {float(np.max(spread)):.3e}); "
            "not a torus of circle-product form in this basis"
        )
    radii = 0.5 * (hi + lo)

    freqs = np.empty((half, F.m))
    for i in range(F.m):
        dv = geometry.tangents[:, i]
        dz = (dv[:, :half] + 1j * dv[:, half:]) @ basis.conj().T
        omega = np.imag(np.conj(z) * dz) / moduli**2
        hi, lo = np.max(omega, axis=0), np.min(omega, axis=0)
        if not np.max(hi - lo) <= 1e-8:
            raise ValueError("phase is not affine in the parameters; not a circle product")
        freqs[:, i] = 0.5 * (hi + lo)

    return CircleProduct(radii=radii, frequencies=freqs)
