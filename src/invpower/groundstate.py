"""Closed-form ground state for V = A/r^4 + B/r^3 + C/r^2 + D/r in two dimensions.

With q = 2 and l = 0 the ansatz y(r) = exp(a/r + b r + c log r) solves the
reduced equation exactly provided

    a = -sqrt(A),  c = 1 + mu,  b = D / (2c),  E = -b^2,
    mu = B / (2 sqrt(A)),

and the r^-2 strength is pinned to the induced value

    C = 1/4 + mu (1 + mu) + D sqrt(A) / (1 + mu).

C is therefore an *output* of the construction, not a free input: the
potential family is quasi-exactly solvable.  Square integrability requires
a < 0 (automatic) and b < 0, i.e. D < 0 with c > 0 or D > 0 with c < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateC, DomainError, NotNormalizable, require_finite,
                     require_radii)

# coefficient mismatches below this multiple of double rounding are treated
# as exact zeros, so the residual is not polluted by r^-4 amplification of
# one-ulp noise in sqrt(A)
_ROUNDING_GUARD = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class GroundStateSolution:
    """Exponent data of y = exp(a/r + b r + c log r) and the bound-state energy.

    ``linear_slope_b`` is the coefficient of the linear term (negative for a
    normalizable state); ``required_C`` is the r^-2 strength the construction
    forces on the potential.  ``c_negative`` flags the unusual D > 0, c < 0
    branch.
    """

    a: float
    linear_slope_b: float
    c: float
    energy: float
    mu: float
    required_C: float

    @property
    def c_negative(self) -> bool:
        return self.c < 0.0


def solve_ground_state(A: float, B: float, D: float) -> GroundStateSolution:
    """Solve the algebraic system for the exponent parameters and energy.

    Raises DegenerateC when mu = -1 (c vanishes, b undefined) and
    NotNormalizable when the resulting b is >= 0.
    """
    require_finite(A=A, B=B, D=D)
    if A <= 0.0:
        raise DomainError("A must be positive")
    sqa = math.sqrt(A)
    a = -sqa
    mu = B / (2.0 * sqa)
    c = 1.0 + mu
    if c == 0.0:
        raise DegenerateC("mu = -1 makes c = 0; the linear slope is undefined")
    b = D / (2.0 * c)
    if b >= 0.0:
        raise NotNormalizable(
            "b >= 0: square integrability at infinity fails "
            "(need D < 0 with c > 0, or D > 0 with c < 0)")
    energy = -b * b
    required_C = 0.25 + mu * (1.0 + mu) + D * sqa / (1.0 + mu)
    require_finite(E=energy, required_C=required_C)
    return GroundStateSolution(a=a, linear_slope_b=b, c=c, energy=energy,
                               mu=mu, required_C=required_C)


def evaluate_ground_state(sol: GroundStateSolution, r):
    """y(r) = r^c * exp(a/r + b r); strictly positive (nodeless) for r > 0."""
    r = require_radii(r)
    y = r**sol.c * np.exp(sol.a / r + sol.linear_slope_b * r)
    return y if y.ndim else float(y)


def constraint_mismatch(A: float, B: float, C: float, D: float) -> float:
    """User-supplied C minus the value the closed-form construction requires."""
    require_finite(C=C)
    return C - solve_ground_state(A, B, D).required_C


def _snap(delta: float, scale: float) -> float:
    """Treat a coefficient mismatch at double-rounding level as exact zero."""
    return 0.0 if abs(delta) <= _ROUNDING_GUARD * max(1.0, scale) else delta


def ground_state_residual(sol: GroundStateSolution, A: float, B: float,
                          C: float, D: float, E: float, r):
    """Residual |k'' + k'^2 - (-E + V(r) - 1/(4 r^2))| of the log-derivative form.

    Evaluated per inverse power of r: grouping the expansion of
    k'' + k'^2 by powers first avoids catastrophic cancellation between the
    O(r^-4) terms at small radii.  Mismatch coefficients at the level of
    double rounding count as exact, so the residual reflects genuine
    parameter inconsistencies (wrong C or E) rather than one-ulp noise.
    """
    # an infinite coefficient would pass _snap's test inf <= guard * inf
    require_finite(A=A, B=B, C=C, D=D, E=E)
    r = require_radii(r)
    a, b, c = sol.a, sol.linear_slope_b, sol.c
    # k'' + k'^2 = a^2/r^4 + 2a(1-c)/r^3 + (c(c-1) - 2ab)/r^2 + 2bc/r + b^2
    d4 = _snap(a * a - A, max(a * a, abs(A)))
    d3 = _snap(2.0 * a * (1.0 - c) - B, max(abs(2.0 * a), abs(2.0 * a * c), abs(B)))
    d2 = _snap(c * (c - 1.0) - 2.0 * a * b - (C - 0.25),
               max(c * c, abs(c), abs(2.0 * a * b), abs(C)))
    d1 = _snap(2.0 * b * c - D, max(abs(2.0 * b * c), abs(D)))
    d0 = _snap(b * b + E, max(b * b, abs(E)))
    res = np.abs(((((d4 / r + d3) / r + d2) / r + d1) / r) + d0)
    return res if res.ndim else float(res)
