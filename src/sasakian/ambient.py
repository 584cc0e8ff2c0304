"""Structure tensors and curvature of the odd sphere as a Sasakian space form.

The unit sphere in C^{n+1} ~ R^{2n+2} carries its canonical contact metric
structure, plus a one-parameter family of deformed structures with parameter
a > 0 whose phi-sectional curvature is c = 4/a - 3.  Real coordinates are
blocked as (x^1..x^{n+1}, y^1..y^{n+1}); all operations accept arbitrary
leading (batch) axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POINT_TOL = 1e-12
TANGENT_TOL = 1e-10


def complex_structure(v: np.ndarray) -> np.ndarray:
    """Multiplication by i on C^{n+1} in blocked real coordinates."""
    v = np.asarray(v, dtype=float)
    d = v.shape[-1]
    if d % 2 != 0:
        raise ValueError(f"ambient dimension must be even, got {d}")
    half = d // 2
    return np.concatenate([-v[..., half:], v[..., :half]], axis=-1)


def _dot(u, v):
    return np.sum(u * v, axis=-1)


def phi0(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """phi v = J v - <J v, z> z at points z, unvalidated.

    phi is the same for every deformation parameter a, so this serves the
    canonical structure and ``SasakianSphere.phi`` alike.
    """
    jv = complex_structure(v)
    return jv - _dot(jv, z)[..., None] * z


@dataclass(frozen=True)
class SasakianSphere:
    """S^{2n+1} with the (possibly deformed) Sasakian structure.

    ``a`` is the deformation parameter; a = 1 is the canonical structure.
    The phi-sectional curvature c = 4/a - 3 is always derived from ``a``.
    """

    n: int
    a: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not self.a > 0:
            raise ValueError("deformation parameter a must be positive")

    @classmethod
    def from_phi_sectional(cls, n: int, c: float) -> "SasakianSphere":
        if not c > -3:
            raise ValueError("phi-sectional curvature must exceed -3 on the sphere models")
        return cls(n=n, a=4.0 / (c + 3.0))

    @property
    def c(self) -> float:
        return 4.0 / self.a - 3.0

    @property
    def ambient_dim(self) -> int:
        return 2 * self.n + 2

    # -- input validation ------------------------------------------------

    def check_point(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != self.ambient_dim:
            raise ValueError(f"expected ambient dimension {self.ambient_dim}, got {z.shape[-1]}")
        err = np.abs(_dot(z, z) - 1.0)
        if np.any(err > POINT_TOL):
            raise ValueError(f"point is off the unit sphere by {float(np.max(err)):.3e}")
        return z

    def check_tangent(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        err = np.abs(_dot(v, z))
        if np.any(err > TANGENT_TOL):
            raise ValueError(f"vector is not tangent to the sphere: <v,z> = {float(np.max(err)):.3e}")
        return v

    # -- structure tensors -------------------------------------------------

    def eta0(self, z, v) -> np.ndarray:
        return _dot(v, -complex_structure(z))

    def xi(self, z) -> np.ndarray:
        z = self.check_point(z)
        return -complex_structure(z) / self.a

    def eta(self, z, v) -> np.ndarray:
        z = self.check_point(z)
        v = self.check_tangent(z, v)
        return self.a * self.eta0(z, v)

    def phi(self, z, v) -> np.ndarray:
        z = self.check_point(z)
        v = self.check_tangent(z, v)
        return phi0(z, v)

    def metric(self, z, u, v) -> np.ndarray:
        z = self.check_point(z)
        u = self.check_tangent(z, u)
        v = self.check_tangent(z, v)
        a = self.a
        return a * _dot(u, v) + a * (a - 1.0) * self.eta0(z, u) * self.eta0(z, v)

    def curvature(self, z, u, v, w) -> np.ndarray:
        """Curvature tensor R(u,v)w of the space form at constant c."""
        z = self.check_point(z)
        u = self.check_tangent(z, u)
        v = self.check_tangent(z, v)
        w = self.check_tangent(z, w)

        g = self.metric
        eta = self.eta
        xi = self.xi(z)
        pu, pv, pw = self.phi(z, u), self.phi(z, v), self.phi(z, w)
        c = self.c

        def sc(s, vec):
            return s[..., None] * vec

        first = sc(g(z, w, v), u) - sc(g(z, w, u), v)
        second = (
            sc(eta(z, w) * eta(z, u), v)
            - sc(eta(z, w) * eta(z, v), u)
            + sc(g(z, w, u) * eta(z, v), xi)
            - sc(g(z, w, v) * eta(z, u), xi)
            + sc(g(z, w, pv), pu)
            - sc(g(z, w, pu), pv)
            + 2.0 * sc(g(z, u, pv), pw)
        )
        return (c + 3.0) / 4.0 * first + (c - 1.0) / 4.0 * second

    def sectional_curvature(self, z, u, v) -> np.ndarray:
        """Sectional curvature of span{u, v} in the deformed metric."""
        guu = self.metric(z, u, u)
        gvv = self.metric(z, v, v)
        guv = self.metric(z, u, v)
        num = self.metric(z, self.curvature(z, u, v, v), u)
        return num / (guu * gvv - guv**2)
