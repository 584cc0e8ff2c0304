"""Complex structure J and phi0 of the odd sphere at its canonical Sasakian structure.

The unit sphere in C^{n+1} ~ R^{2n+2} carries its canonical contact metric
structure.  Real coordinates are blocked as (x^1..x^{n+1}, y^1..y^{n+1}); all
operations accept arbitrary leading (batch) axes.
"""

from __future__ import annotations

import numpy as np


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

    phi is the same for every deformation parameter a of the sphere.
    """
    jv = complex_structure(v)
    return jv - _dot(jv, z)[..., None] * z
