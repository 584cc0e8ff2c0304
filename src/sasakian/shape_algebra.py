"""Adapted-basis shape operators and the biharmonicity system.

For a 3-dimensional integral C-parallel submanifold of a 7-dimensional
Sasakian space form, the three shape operators in the adapted orthonormal
basis are determined by seven constants.  Proper-biharmonicity is the
eigen-equation (sum A_i^2) t = k t on the trace vector t, with
k = (c(n+3) + 3n - 7)/4; the (-4)-variant in the unit 7-sphere replaces k
by 6.  The solvers evaluate it as the expanded three-equation scalar system,
which is algebraically identical to the matrix form.
"""

from __future__ import annotations

from typing import NamedTuple

MINUS4_EIGENVALUE = 6.0


class AdaptedShapeOperators(NamedTuple):
    lambda1: float
    lambda2: float
    lambda3: float
    alpha: float
    beta: float
    gamma: float
    delta: float

    @classmethod
    def case_I(cls, lam: float, alpha: float, gamma: float, delta: float, b: float) -> "AdaptedShapeOperators":
        """Flat-case operators: lambda_1 = (lam^2 - b)/lam, lambda_2 = lambda_3 = lam, beta = 0."""
        if lam == 0.0:
            raise ValueError("lam must be nonzero in the flat case")
        return cls((lam * lam - b) / lam, lam, lam, alpha, 0.0, gamma, delta)


def _fields(params):
    if isinstance(params, AdaptedShapeOperators):
        return params
    return AdaptedShapeOperators(*[float(x) for x in params])


def biharmonic_eigenvalue(c: float) -> float:
    """k = (6c + 2)/4, the trace-vector eigenvalue for biharmonicity in dimension 7.

    The float operations are those of the general form (c(n+3) + 3n - 7)/4 at
    n = 3, in its order: (c * 6 + 2) rounds differently at some c.
    """
    return (c * 6 + 9 - 7) / 4.0


def expanded_system_residual(params, c_or_mode) -> tuple[float, float, float]:
    """The three expanded scalar equations ``(eq1, eq2, eq3)``; identical to the matrix residual.

    ``c_or_mode`` is either the phi-sectional curvature (biharmonic case) or
    the string ``"minus4"``.
    """
    if isinstance(c_or_mode, str):
        if c_or_mode != "minus4":
            raise ValueError(f"unknown mode {c_or_mode!r}")
        k = MINUS4_EIGENVALUE
    else:
        k = biharmonic_eigenvalue(float(c_or_mode))
    p = _fields(params)
    l1, l2, l3 = p.lambda1, p.lambda2, p.lambda3
    a, b, g, d = p.alpha, p.beta, p.gamma, p.delta
    s1 = l1 + l2 + l3
    s2 = l1 * l1 + l2 * l2 + l3 * l3
    eq1 = s1 * (s2 - k) + (a + g) * (a * l2 + g * l3) + (b + d) * (b * l2 + d * l3)
    eq2 = (
        s1 * (a * l2 + g * l3)
        + (a + g) * (2 * l2 * l2 + a * a + 3 * b * b + g * g + b * d - k)
        + g * (b + d) ** 2
    )
    eq3 = (
        s1 * (b * l2 + d * l3)
        + b * (a + g) ** 2
        + (b + d) * (2 * l3 * l3 + d * d + 3 * g * g + b * b + a * g - k)
    )
    return eq1, eq2, eq3
