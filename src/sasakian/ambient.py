"""The ambient: the unit sphere S^{2n+1} of C^{n+1} at its canonical Sasakian structure, a = 1.

The one module that knows the ambient.  At a = 1 the metric g is Euclidean,
the connection along a map F is nabla_i V = d_i V + <d_i F, V> F and the
curvature is R(u, v) w = <w, v> u - <w, u> v; of the D-homothetic deformation
of phi-sectional curvature c only its parameter a is written here.  eta0 and
phi0 are the same at every a, and Euclidean.  Coordinates are blocked
(x^1..x^{n+1}, y^1..y^{n+1}), the component axis last in values and in jet
leads.  The normal projections are Gram sums: the tangents must be orthonormal.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet


def complex_structure(v: np.ndarray) -> np.ndarray:
    """Multiplication by i on C^{n+1} in blocked real coordinates."""
    v = np.asarray(v, dtype=float)
    d = v.shape[-1]
    if d % 2 != 0:
        raise ValueError(f"ambient dimension must be even, got {d}")
    half = d // 2
    return np.concatenate([-v[..., half:], v[..., :half]], axis=-1)


def reeb(z: np.ndarray) -> np.ndarray:
    """xi0 = -J z, the Reeb field at points z."""
    return -complex_structure(z)


def eta0(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """eta0(v) = <v, xi0>, Euclidean at every a."""
    return np.sum(v * reeb(z), axis=-1)


def phi0(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """phi v = J v - <J v, z> z at points z, unvalidated; the same at every a."""
    jv = complex_structure(v)
    return jv - np.sum(jv * z, axis=-1)[..., None] * z


def deformation_parameter(c: float) -> float:
    """a = 4/(c + 3), the deformation whose phi-sectional curvature is c."""
    if not c > -3.0:
        raise ValueError("phi-sectional curvature must exceed -3")
    return 4.0 / (c + 3.0)


def inner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """g(u, v) of values, summed over the component axis."""
    return np.sum(u * v, axis=-1)


def inner_jets(U: Jet, V: Jet) -> Jet:
    """g(U, V) of component-stacked jets; the component axis is kept, of length one."""
    return (U * V).sum(axis=-2)


def norm(v: np.ndarray) -> np.ndarray:
    """|v| in g, per point."""
    return np.linalg.norm(v, axis=-1)


def induced_metric(tangents: np.ndarray) -> np.ndarray:
    """G_ij = g(d_i F, d_j F) from the tangents (N, m, dim), (N, m, m)."""
    return np.einsum("nid,njd->nij", tangents, tangents)


def connection(dV: Jet, V: Jet, T: Jet, X: Jet) -> Jet:
    """nabla_i V = d_i V + <d_i F, V> F from jets of dV = d_i V, V, T = d_i F and X = F, at dV's accuracy."""
    a = dV.acc
    return dV + inner_jets(T.truncate(a), V.truncate(a)) * X.truncate(a)


def connection_values(dV: np.ndarray, V: np.ndarray, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The value of nabla_i V, from the values dV of d_i V, V, t of d_i F and x of F."""
    return dV + inner(t, V)[:, None] * x


def normal(V: Jet, tangents: list[Jet]) -> Jet:
    """The normal part of a jet V of ambient vectors, given the jets of the orthonormal d_j F."""
    proj = V
    for t in tangents:
        proj = proj - inner_jets(V, t) * t
    return proj


def normal_values(W: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    """The normal part of values W (N, dim), given the orthonormal tangents (N, m, dim)."""
    return W - np.einsum("nkd,nk->nd", tangents, np.einsum("nd,nkd->nk", W, tangents))


def curvature_terms(tangents: np.ndarray, v: np.ndarray):
    """R(d_i F, v) d_i F per i, from the tangents (N, m, dim); the bitension's term is -sum_i R(d_i F, tau) d_i F."""
    for i in range(tangents.shape[1]):
        t = tangents[:, i]
        yield inner(t, v)[:, None] * t - inner(t, t)[:, None] * v
