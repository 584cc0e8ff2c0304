"""Frenet apparatus of arc-length curves in the unit sphere.

Covariant derivatives use the sphere connection nabla_T V = V' + <T, V> Gamma
and come from jets, so helix curvatures of the closed-form curves are exact to
numerical noise.  Osculating order is detected by Gram-Schmidt rank drop with
a hard dependence threshold and an explicit indeterminate band; the ladder of
covariant derivatives is built one rung per Gram-Schmidt step and stops at the
detected order.  The frame is kept as values only: the closure check
nabla_T E_r = -kappa_{r-1} E_{r-1}, which needs a frame of jets, is a test
oracle (``tests/oracles.py``, ``frenet_closure``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambient import phi0
from .immersion import ParametricImmersion, _connection, _dotv

DEPENDENCE_TOL = 1e-8
INDETERMINATE_TOL = 1e-6
UNIT_SPEED_TOL = 1e-10
MAX_ORDER = 4


class FrenetError(ValueError):
    pass


@dataclass
class FrenetApparatus:
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

    # covariant derivative ladder v_0 = T, v_{j+1} = v_j' + <T, v_j> Gamma
    T = X.deriv(0)
    speed = np.sqrt(_dotv(T.value, T.value))
    if np.max(np.abs(speed - 1.0)) > UNIT_SPEED_TOL:
        raise FrenetError(
            f"curve is not arc-length parametrized (| |G'| - 1 | up to {float(np.max(np.abs(speed - 1.0))):.3e})"
        )
    # pointwise Gram-Schmidt with rank-drop detection; rung j of the ladder is
    # built only when step j reaches it
    v = T
    frame_vals: list[np.ndarray] = []
    curvatures: list[np.ndarray] = []
    order = None
    for j in range(MAX_ORDER + 1):
        if j:
            v = _connection(v, 0, T, X)
        vj = v.value
        w = vj.copy()
        for e in frame_vals:
            w -= _dotv(w, e)[:, None] * e
        norm_w = np.linalg.norm(w, axis=-1)
        scale = max(1.0, float(np.max(np.linalg.norm(vj, axis=-1))))
        rel = float(np.max(norm_w)) / scale
        if rel < DEPENDENCE_TOL:
            order = j
            break
        if rel < INDETERMINATE_TOL:
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
    if order is None:
        order = MAX_ORDER  # ladder exhausted at MAX_ORDER; treat as order MAX_ORDER
        frame_vals = frame_vals[:order]
        curvatures = curvatures[: order - 1]

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
    vals = _dotv(apparatus.frame[1], phi0(apparatus.positions, apparatus.frame[0]))
    spread = float(np.max(vals) - np.min(vals))
    if spread > 1e-8:
        raise FrenetError(f"g0(E_2, phi T) is not constant along the curve (spread {spread:.3e})")
    return float(np.mean(vals))
