"""Independent numerical verification of the analytic constructions.

Everything here consumes only potentials, grids and boundary samples; no
series coefficients, asymptotic parameters or closed-form exponents enter
any code path, so agreement with the analytic modules is meaningful.

The reduced radial equation is integrated as y'' = f(r) y with

    f(r) = V(r) + (lam^2 - 1/4)/r^2 - kappa

by one Numerov sweep on both grid spacings.  A uniform grid is swept in r.
A log grid is swept in x = ln r, where it is uniform, on u = r^(-1/2) y,
which obeys u'' = (r^2 f + 1/4) u.  Inward sweeps run the same code over
the reversed nodes.  Bound-state energies are found by bisection on the
matching defect between outward and inward sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from .errors import (BracketError, DomainError, IntegrationDiverged,
                     NoConvergence, require_finite)
from .potentials import PotentialTerms, evaluate_terms, term_with_power

_OVERFLOW_LIMIT = 1e250
_MAX_BISECTIONS = 200


class Spacing(Enum):
    UNIFORM = "uniform"
    LOG = "log"


class Direction(Enum):
    OUTWARD = "outward"
    INWARD = "inward"


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radial nodes with both singular endpoints excluded."""

    r_min: float
    r_max: float
    n_points: int
    spacing: Spacing = Spacing.UNIFORM

    def __post_init__(self):
        require_finite(r_min=self.r_min, r_max=self.r_max, n_points=self.n_points)
        if self.r_min <= 0.0:
            raise DomainError("r_min must be positive")
        if self.r_max <= self.r_min:
            raise DomainError("r_max must exceed r_min")
        if int(self.n_points) != self.n_points or self.n_points < 16:
            raise DomainError("n_points must be an integer >= 16")

    def nodes(self) -> np.ndarray:
        if self.spacing is Spacing.UNIFORM:
            return np.linspace(self.r_min, self.r_max, self.n_points)
        return np.geomspace(self.r_min, self.r_max, self.n_points)


@dataclass(frozen=True)
class ShootingResult:
    energy: float
    match_defect: float
    iterations: int
    converged: bool


def _f_values(terms: PotentialTerms, kappa: float, lam: float,
              r: np.ndarray) -> np.ndarray:
    """f(r) = V(r) + (lam^2 - 1/4)/r^2 - kappa at the nodes r."""
    return evaluate_terms(terms, r) + (lam * lam - 0.25) / r**2 - kappa


def _numerov(x: np.ndarray, g: np.ndarray, u0: float, u1: float,
             raise_on_overflow: bool) -> np.ndarray:
    """Numerov sweep of u'' = g u over the equally spaced nodes x (increasing
    or decreasing); rescales on overflow unless asked to raise, since only
    ratios matter to callers that allow it.  Divergence is reported by the
    sweep index and its x."""
    h = x[1] - x[0]
    h2 = h * h / 12.0
    n = len(x)
    u = np.empty(n)
    u[0], u[1] = u0, u1
    for i in range(1, n - 1):
        u[i + 1] = ((2.0 + 10.0 * h2 * g[i]) * u[i]
                    - (1.0 - h2 * g[i - 1]) * u[i - 1]) / (1.0 - h2 * g[i + 1])
        if not math.isfinite(u[i + 1]):
            raise IntegrationDiverged("integration overflowed", i, float(x[i]))
        if abs(u[i + 1]) > _OVERFLOW_LIMIT:
            if raise_on_overflow:
                raise IntegrationDiverged("integration overflowed", i + 1, float(x[i + 1]))
            u[: i + 2] /= _OVERFLOW_LIMIT
    return u


def integrate_radial(terms: PotentialTerms, kappa: float, lam: float,
                     grid: RadialGrid, direction: Direction,
                     seeds: Tuple[float, float]) -> np.ndarray:
    """Integrate y'' = (V + (lam^2 - 1/4)/r^2 - kappa) y across the grid.

    ``seeds`` are the solution values at the first two nodes in the travel
    direction (the two largest radii for INWARD).  The returned array is
    ordered like ``grid.nodes()`` regardless of direction.  On divergence,
    ``IntegrationDiverged`` carries the node index in that order and its r.
    """
    y0, y1 = seeds
    if not (math.isfinite(y0) and math.isfinite(y1)) or (y0 == 0.0 and y1 == 0.0):
        raise DomainError("seeds must be finite and not both zero")
    r = grid.nodes()
    f = _f_values(terms, kappa, lam, r)
    if grid.spacing is Spacing.UNIFORM:
        x, g, scale = r, f, np.ones_like(r)
    else:
        # x = ln r and y = r^(1/2) u turn y'' = f y into u'' = (r^2 f + 1/4) u,
        # so a log grid is uniform in x
        x, g, scale = np.log(r), r * r * f + 0.25, np.sqrt(r)
    sweep = np.arange(len(r))
    if direction is Direction.INWARD:
        sweep = sweep[::-1]
    try:
        u = _numerov(x[sweep], g[sweep], y0 / scale[sweep[0]], y1 / scale[sweep[1]],
                     raise_on_overflow=True)
    except IntegrationDiverged as exc:
        i = int(sweep[exc.last_index])
        raise IntegrationDiverged(str(exc), i, float(r[i])) from None
    # sweep is the identity or a reversal, so indexing by it again restores
    # the order of grid.nodes()
    return scale * u[sweep]


def finite_difference_residual(r: np.ndarray, y: np.ndarray,
                               terms: PotentialTerms, kappa: float,
                               lam: float) -> float:
    """Max over interior nodes of |y'' - f y| / max(1, |y|) with a central
    second difference; requires a uniform grid with at least 5 points."""
    r = np.asarray(r, dtype=float)
    y = np.asarray(y)
    if len(r) < 5:
        raise DomainError("need at least 5 grid points")
    h = np.diff(r)
    if np.max(np.abs(h - h[0])) > 1e-12 * abs(h[0]):
        raise DomainError("finite-difference residual requires a uniform grid")
    f = _f_values(terms, kappa, lam, r)
    ypp = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / h[0] ** 2
    res = np.abs(ypp - f[1:-1] * y[1:-1]) / np.maximum(1.0, np.abs(y[1:-1]))
    return float(np.max(res))


def _match_index(terms: PotentialTerms, lam: float, r: np.ndarray) -> int:
    return int(np.clip(np.argmin(_f_values(terms, 0.0, lam, r)), 5, len(r) - 6))


def _matching_defect(terms: PotentialTerms, lam: float, energy: float,
                     r: np.ndarray, imatch: int, inner_decay: float) -> float:
    """Normalized Wronskian of the outward and inward sweeps at the match node.

    Seeds are the generic decay forms exp(-inner_decay / r) at the origin
    and exp(-sqrt(-E) r) at infinity, never the closed-form wavefunction.
    """
    h = r[1] - r[0]
    f = _f_values(terms, energy, lam, r)
    out = _numerov(r[: imatch + 3], f[: imatch + 3],
                   math.exp(inner_decay * (1.0 / r[1] - 1.0 / r[0])), 1.0,
                   raise_on_overflow=False)
    decay = math.sqrt(-energy)
    rev = _numerov(r[imatch - 2:][::-1], f[imatch - 2:][::-1],
                   math.exp(-decay * (r[-1] - r[-2])), 1.0,
                   raise_on_overflow=False)
    inn = rev[::-1]  # inn[k] is the inward solution at r[imatch - 2 + k]
    j = 2
    d_out = (-out[imatch + 2] + 8.0 * out[imatch + 1]
             - 8.0 * out[imatch - 1] + out[imatch - 2]) / (12.0 * h)
    d_in = (-inn[j + 2] + 8.0 * inn[j + 1] - 8.0 * inn[j - 1] + inn[j - 2]) / (12.0 * h)
    wronskian = d_out * inn[j] - d_in * out[imatch]
    norm = math.sqrt((d_out**2 + out[imatch] ** 2) * (d_in**2 + inn[j] ** 2))
    return wronskian / norm


def shoot_ground_energy(terms: PotentialTerms, bracket: Tuple[float, float],
                        grid: RadialGrid, tolerance: float = 1e-10) -> ShootingResult:
    """Bisect the matching defect for the bound-state energy in the bracket.

    The bracket must satisfy E_lo < E_hi < 0 and contain a sign change of
    the defect; the match node sits at the minimum of the effective
    potential.  Requires a uniform grid.
    """
    e_lo, e_hi = bracket
    if not (e_lo < e_hi < 0.0):
        raise DomainError("bracket must satisfy E_lo < E_hi < 0")
    if grid.spacing is not Spacing.UNIFORM:
        raise DomainError("shooting requires a uniform grid")
    r = grid.nodes()
    imatch = _match_index(terms, 0.0, r)
    a4 = term_with_power(terms, 4.0)
    if a4 <= 0.0:
        raise DomainError("shooting seeds need a repulsive r^-4 term")
    inner_decay = math.sqrt(a4)

    def defect(energy: float) -> float:
        return _matching_defect(terms, 0.0, energy, r, imatch, inner_decay)

    g_lo, g_hi = defect(e_lo), defect(e_hi)
    if not (math.isfinite(g_lo) and math.isfinite(g_hi)) or g_lo * g_hi > 0.0:
        raise BracketError("matching defect has no sign change in the bracket")
    e_mid, g_mid = e_lo, g_lo
    for iteration in range(1, _MAX_BISECTIONS + 1):
        e_mid = 0.5 * (e_lo + e_hi)
        g_mid = defect(e_mid)
        if abs(g_mid) <= tolerance or (e_hi - e_lo) < 1e-14 * abs(e_mid):
            break
        if g_lo * g_mid <= 0.0:
            e_hi, g_hi = e_mid, g_mid
        else:
            e_lo, g_lo = e_mid, g_mid
    else:
        raise NoConvergence("bisection exhausted its iteration budget")
    return ShootingResult(energy=e_mid, match_defect=g_mid,
                          iterations=iteration, converged=abs(g_mid) <= tolerance)
