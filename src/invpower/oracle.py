"""Independent numerical verification of the analytic constructions.

Everything here consumes only potentials, grids and boundary samples; no
series coefficients, asymptotic parameters or closed-form exponents enter
any code path, so agreement with the analytic modules is meaningful.

The reduced radial equation is integrated as y'' = f(r) y with

    f(r) = V(r) + (lam^2 - 1/4)/r^2 - kappa

by one Numerov sweep on both grid spacings.  A uniform grid is swept in r.
A log grid is swept in x = ln r, where it is uniform, on u = r^(-1/2) y,
which obeys u'' = (r^2 f + 1/4) u.  Inward sweeps run the same code over
the reversed nodes.  Bound-state energies are roots of the matching defect
between outward and inward sweeps, on either spacing, found by the Illinois
variant of regula falsi (Dowell & Jarratt, BIT 11, 1971).
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
_MAX_ITERATIONS = 200


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
    """``iterations`` counts root-finder steps and ``evaluations`` defect
    calls (the steps plus the two bracket ends).  ``nodes`` counts the sign
    changes of the outward sweep below the match node plus those of the
    inward sweep above it, at the returned energy: 0 for a ground state."""

    energy: float
    match_defect: float
    iterations: int
    converged: bool
    evaluations: int
    nodes: int


def _f_values(terms: PotentialTerms, kappa: float, lam: float,
              r: np.ndarray) -> np.ndarray:
    """f(r) = V(r) + (lam^2 - 1/4)/r^2 - kappa at the nodes r."""
    return evaluate_terms(terms, r) + (lam * lam - 0.25) / r**2 - kappa


def _sweep_variables(spacing: Spacing, r: np.ndarray,
                     f: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, g, scale) such that y'' = f y on the nodes r becomes u'' = g u on
    equally spaced x, with y = scale * u.

    A uniform grid is swept in r itself.  On a log grid, x = ln r and
    y = r^(1/2) u turn y'' = f y into u'' = (r^2 f + 1/4) u.
    """
    if spacing is Spacing.UNIFORM:
        return r, f, np.ones_like(r)
    return np.log(r), r * r * f + 0.25, np.sqrt(r)


def _numerov(x: np.ndarray, g: np.ndarray, u0: float, u1: float,
             raise_on_overflow: bool) -> np.ndarray:
    """Numerov sweep of u'' = g u over the equally spaced nodes x (increasing
    or decreasing); rescales on overflow unless asked to raise, since only
    ratios matter to callers that allow it.  Divergence is reported by the
    sweep index and its x.

    The loop is the hot path.  It runs on Python floats, keeps the last two
    values in locals and tests |u| against _OVERFLOW_LIMIT with one chained
    comparison, which NaN also fails; the finiteness test runs only then.
    """
    h = x[1] - x[0]
    h2 = h * h / 12.0
    a = (2.0 + 10.0 * h2 * g).tolist()
    b = (1.0 - h2 * g).tolist()
    u = [float(u0), float(u1)]
    prev, cur = u
    for a_i, b_prev, b_next in zip(a[1:-1], b[:-2], b[2:]):
        nxt = (a_i * cur - b_prev * prev) / b_next
        if -_OVERFLOW_LIMIT <= nxt <= _OVERFLOW_LIMIT:
            u.append(nxt)
            prev, cur = cur, nxt
            continue
        i = len(u) - 1
        if not math.isfinite(nxt):
            raise IntegrationDiverged("integration overflowed", i, float(x[i]))
        if raise_on_overflow:
            raise IntegrationDiverged("integration overflowed", i + 1, float(x[i + 1]))
        u.append(nxt)
        u = [v / _OVERFLOW_LIMIT for v in u]
        prev, cur = u[-2], u[-1]
    return np.array(u)


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
    x, g, scale = _sweep_variables(grid.spacing, r, _f_values(terms, kappa, lam, r))
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


def _sign_changes(u: np.ndarray) -> int:
    return int(np.count_nonzero(np.sign(u[:-1]) * np.sign(u[1:]) < 0.0))


def _matching_defect(x: np.ndarray, g: np.ndarray, scale: np.ndarray,
                     r: np.ndarray, imatch: int, inner_decay: float,
                     energy: float) -> Tuple[float, int]:
    """Normalized Wronskian, in x, of the outward and inward sweeps of
    u'' = g u at the match node, and the sweeps' sign changes on either side
    of it.  The Wronskian in x has the same zeros as the one in r.

    Seeds are the generic decay forms exp(-inner_decay / r) at the origin
    and exp(-sqrt(-E) r) at infinity, never the closed-form wavefunction.
    """
    h = x[1] - x[0]
    out = _numerov(x[: imatch + 3], g[: imatch + 3],
                   math.exp(inner_decay * (1.0 / r[1] - 1.0 / r[0])) / scale[0],
                   1.0 / scale[1], raise_on_overflow=False)
    decay = math.sqrt(-energy)
    rev = _numerov(x[imatch - 2:][::-1], g[imatch - 2:][::-1],
                   math.exp(-decay * (r[-1] - r[-2])) / scale[-1], 1.0 / scale[-2],
                   raise_on_overflow=False)
    inn = rev[::-1]  # inn[k] is the inward solution at x[imatch - 2 + k]
    j = 2
    d_out = (-out[imatch + 2] + 8.0 * out[imatch + 1]
             - 8.0 * out[imatch - 1] + out[imatch - 2]) / (12.0 * h)
    d_in = (-inn[j + 2] + 8.0 * inn[j + 1] - 8.0 * inn[j - 1] + inn[j - 2]) / (12.0 * h)
    # each sweep is normalized on its own, so the products cannot overflow
    n_out, n_in = math.hypot(d_out, out[imatch]), math.hypot(d_in, inn[j])
    defect = (d_out / n_out) * (inn[j] / n_in) - (d_in / n_in) * (out[imatch] / n_out)
    nodes = _sign_changes(out[: imatch + 1]) + _sign_changes(inn[j:])
    return float(defect), nodes


def shoot_ground_energy(terms: PotentialTerms, bracket: Tuple[float, float],
                        grid: RadialGrid, tolerance: float = 1e-10) -> ShootingResult:
    """Find the bound-state energy in the bracket as a root of the matching
    defect, by Illinois steps, on a uniform or a log grid.

    The bracket must satisfy E_lo < E_hi < 0 and contain a sign change of
    the defect; the match node sits at the minimum of the effective
    potential.  The result is converged when |defect| <= tolerance.  The
    grid must reach far enough out that exp(-sqrt(-E) r_max) is negligible.
    """
    require_finite(tolerance=tolerance)
    e_lo, e_hi = bracket
    if not (e_lo < e_hi < 0.0):
        raise DomainError("bracket must satisfy E_lo < E_hi < 0")
    r = grid.nodes()
    f0 = _f_values(terms, 0.0, 0.0, r)
    imatch = int(np.clip(np.argmin(f0), 5, len(r) - 6))
    a4 = term_with_power(terms, 4.0)
    if a4 <= 0.0:
        raise DomainError("shooting seeds need a repulsive r^-4 term")
    inner_decay = math.sqrt(a4)

    def defect(energy: float) -> Tuple[float, int]:
        x, g, scale = _sweep_variables(grid.spacing, r, f0 - energy)
        return _matching_defect(x, g, scale, r, imatch, inner_decay, energy)

    (g_lo, _), (g_hi, _) = defect(e_lo), defect(e_hi)
    if not (math.isfinite(g_lo) and math.isfinite(g_hi)) or g_lo * g_hi > 0.0:
        raise BracketError("matching defect has no sign change in the bracket")
    # Illinois: a regula falsi step, halving the defect at an end that stays
    # put for a second step in a row, so that both ends close in on the root
    moved = None
    for iteration in range(1, _MAX_ITERATIONS + 1):
        # clamped, since rounding can put the step an ulp outside the bracket
        energy = min(max(e_hi - g_hi * (e_hi - e_lo) / (g_hi - g_lo), e_lo), e_hi)
        g, nodes = defect(energy)
        if abs(g) <= tolerance or (e_hi - e_lo) < 1e-14 * abs(energy):
            break
        if (g > 0.0) == (g_hi > 0.0):
            e_hi, g_hi = energy, g
            if moved == "hi":
                g_lo *= 0.5
            moved = "hi"
        else:
            e_lo, g_lo = energy, g
            if moved == "lo":
                g_hi *= 0.5
            moved = "lo"
    else:
        raise NoConvergence("root finder exhausted its iteration budget")
    return ShootingResult(energy=energy, match_defect=g, iterations=iteration,
                          converged=abs(g) <= tolerance,
                          evaluations=iteration + 2, nodes=nodes)
