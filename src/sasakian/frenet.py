"""Frenet apparatus of arc-length curves in the ambient sphere.

Covariant derivatives use the connection along the curve from ``ambient``
and come from jets, so helix curvatures of the closed-form curves are exact
to numerical noise.  Osculating order is detected by rank drop of a
Gram-Schmidt in the ambient metric, with a hard dependence threshold and an
explicit indeterminate band; the ladder of covariant derivatives is built one
rung per Gram-Schmidt step and stops at the detected order, and an order it
cannot settle, in the band or above MAX_ORDER, raises FrenetError, as does a
curve that is not finite at a sampled parameter; every guard fails on NaN.  The
frame is kept as values only: the closure check nabla_T E_r =
-kappa_{r-1} E_{r-1}, which needs a frame of jets, is a test oracle
(``tests/oracles.py``, ``frenet_closure``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import ambient
from .immersion import ParametricImmersion

DEPENDENCE_TOL = 1e-8
INDETERMINATE_TOL = 1e-6
UNIT_SPEED_TOL = 1e-10
MAX_ORDER = 4


class FrenetError(ValueError):
    pass


class FrenetApparatus(NamedTuple):
    """Order, curvature samples, and frame samples of a curve on a grid."""

    order: int
    positions: np.ndarray                 # (N, dim)
    curvatures: list[np.ndarray]          # order-1 arrays of samples kappa_1..kappa_{r-1}
    frame: list[np.ndarray]               # E_1..E_r, each (N, dim)
    curvature_spreads: np.ndarray         # max - min of each curvature's samples

    @property
    def curvature_values(self) -> list[float]:
        return [float(np.mean(k)) for k in self.curvatures]


def frenet(curve: ParametricImmersion, s_grid: np.ndarray) -> FrenetApparatus:
    """Extract the Frenet frame and curvatures along an arc-length curve."""
    if curve.m != 1:
        raise ValueError("frenet expects a one-parameter immersion")
    s = np.asarray(s_grid, dtype=float).reshape(-1, 1)
    X = curve.jets(s, MAX_ORDER + 1)
    if not np.all(np.isfinite(X.rows)):
        raise FrenetError("curve is not finite at a sampled parameter (NaN or inf in its jet)")

    # covariant derivative ladder v_0 = T, v_{j+1} = nabla_T v_j
    T = X.deriv(0)
    speed = np.sqrt(ambient.inner(T.value, T.value))
    drift = float(np.max(np.abs(speed - 1.0)))
    if not drift <= UNIT_SPEED_TOL:  # NaN fails
        raise FrenetError(f"curve is not arc-length parametrized (| |G'| - 1 | up to {drift:.3e})")
    # pointwise Gram-Schmidt with rank-drop detection; rung j of the ladder is
    # built only when step j reaches it
    v = T
    frame_vals: list[np.ndarray] = []
    curvatures: list[np.ndarray] = []
    for j in range(MAX_ORDER + 1):
        if j:
            v = ambient.connection(v.deriv(0), v, T, X)
        vj = v.value
        w = vj.copy()
        for e in frame_vals:
            w -= ambient.inner(w, e)[:, None] * e
        norm_w = ambient.norm(w)
        scale = max(1.0, float(np.max(ambient.norm(vj))))
        rel = float(np.max(norm_w)) / scale
        if rel < DEPENDENCE_TOL:  # a NaN residual is no rank drop,
            order = j
            break
        if not rel >= INDETERMINATE_TOL:  # but indeterminate
            raise FrenetError(
                f"osculating order is numerically indeterminate at step {j} "
                f"(relative residual {rel:.3e} in [{DEPENDENCE_TOL:g}, {INDETERMINATE_TOL:g}])"
            )
        frame_vals.append(w / norm_w[:, None])
        if j >= 1:
            kappa = norm_w
            for kprev in curvatures:
                kappa = kappa / kprev
            curvatures.append(kappa)
    else:
        raise FrenetError(f"osculating order exceeds {MAX_ORDER}: no rank drop in {MAX_ORDER + 1} steps")

    spreads = np.array([float(np.max(k) - np.min(k)) for k in curvatures])
    return FrenetApparatus(
        order=order,
        positions=X.value,
        curvatures=curvatures,
        frame=frame_vals,
        curvature_spreads=spreads,
    )


def phi_alignment(apparatus: FrenetApparatus) -> float:
    """The constant g0(E_2, phi T) along the curve (requires order >= 2)."""
    if apparatus.order < 2:
        raise FrenetError("phi alignment needs osculating order at least 2")
    vals = ambient.inner(apparatus.frame[1], ambient.phi0(apparatus.positions, apparatus.frame[0]))
    spread = float(np.max(vals) - np.min(vals))
    if not spread <= 1e-8:
        raise FrenetError(f"g0(E_2, phi T) is not constant along the curve (spread {spread:.3e})")
    return float(np.mean(vals))
