"""Independent numerical verification of the analytic constructions.

Everything here consumes only potentials, grids and boundary samples; no
series coefficients, asymptotic parameters or closed-form exponents enter
any code path, so agreement with the analytic modules is meaningful.

The reduced radial equation is integrated as y'' = f(r) y with

    f(r) = V(r) + (lam^2 - 1/4)/r^2 - kappa

by one Numerov kernel on both grid spacings.  A uniform grid is swept in r.
A log grid is swept in x = ln r, where it is uniform, on u = r^(-1/2) y,
which obeys u'' = (r^2 f + 1/4) u.  Inward sweeps run the same code over
the reversed nodes.  The kernel carries u and its first difference, cuts
the sweep into blocks of about sqrt(n/6) steps, advances the fundamental
solutions of all blocks at once in numpy and stitches the blocks together
with 2x2 transfer steps.  Bound-state energies are roots of the matching defect
between outward and inward sweeps, on either spacing, found by the Illinois
variant of regula falsi (Dowell & Jarratt, BIT 11, 1971).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import List, Tuple

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
        require_finite(r_min=self.r_min, r_max=self.r_max)
        if self.r_min <= 0.0:
            raise DomainError("r_min must be positive")
        if self.r_max <= self.r_min:
            raise DomainError("r_max must exceed r_min")
        if not isinstance(self.n_points, numbers.Integral) or self.n_points < 16:
            raise DomainError("n_points must be an integer >= 16")

    def nodes(self) -> np.ndarray:
        if self.spacing is Spacing.UNIFORM:
            return np.linspace(self.r_min, self.r_max, self.n_points)
        return np.geomspace(self.r_min, self.r_max, self.n_points)


@dataclass(frozen=True)
class ShootingResult:
    """``iterations`` counts root-finder steps and ``evaluations`` defect
    calls (the steps plus the two bracket ends); ``trace`` holds the
    (energy, defect) pair of each call in order.  ``nodes`` counts the sign
    changes of the outward sweep below the match node plus those of the
    inward sweep above it, and ``rescales`` the overflow rescales of both
    sweeps, at the returned energy: 0 nodes for a ground state.  The sweeps
    meet at ``match_radius``."""

    energy: float
    match_defect: float
    iterations: int
    converged: bool
    evaluations: int
    nodes: int
    match_radius: float
    rescales: int
    trace: Tuple[Tuple[float, float], ...]


def _f_values(terms: PotentialTerms, kappa: float, lam: float,
              r: np.ndarray) -> np.ndarray:
    """f(r) = V(r) + (lam^2 - 1/4)/r^2 - kappa at the nodes r."""
    return evaluate_terms(terms, r) + (lam * lam - 0.25) / r**2 - kappa


def _sweep_variables(spacing: Spacing, r: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(x, w, scale, c) such that y'' = f y on the nodes r becomes
    u'' = (w f + c) u on equally spaced x, with y = scale * u.  None of them
    depends on f, so a shoot computes them once.

    A uniform grid is swept in r itself.  On a log grid, x = ln r and
    y = r^(1/2) u turn y'' = f y into u'' = (r^2 f + 1/4) u.
    """
    if spacing is Spacing.UNIFORM:
        return r, np.ones_like(r), np.ones_like(r), 0.0
    return np.log(r), r * r, np.sqrt(r), 0.25


def _block_length(steps: int) -> int:
    """Steps per block, L = floor(sqrt(steps / 6)) but at least 2.  This L
    balances the vector loop's L steps against the stitch loop's steps / L
    blocks, taking one vector step to cost about six stitch steps."""
    return max(2, math.isqrt(steps // 6))


def _numerov(sweeps, raise_on_overflow: bool) -> Tuple[List[np.ndarray], int]:
    """Numerov sweeps of u'' = g u, each over equally spaced nodes x
    (increasing or decreasing) from the seeds u0, u1 at its first two nodes.
    ``sweeps`` holds (x, g, u0, u1) tuples; returns the solution of each
    sweep and the number of rescales.

    The state (u_i, d_i = u_i - u_{i-1}) advances in difference form,

        d_{i+1} = (b_{i-1} / b_{i+1}) d_i
                  + h^2/12 (g_{i-1} + 10 g_i + g_{i+1}) / b_{i+1} u_i,
        u_{i+1} = u_i + d_{i+1},   with b_i = 1 - h^2/12 g_i,

    which keeps the O(h^2) part of each step that the three-term form loses
    when it rounds its factor 2 + 10 h^2/12 g_i.  The steps of all sweeps
    are cut into blocks of _block_length steps, the last block of each
    sweep padded.  One numpy loop over the steps of a block advances the
    two fundamental solutions of every block at once.  A Python loop over
    the blocks then chains each sweep's block-start states through the
    blocks' 2x2 transfer matrices, and one vectorized combination rebuilds
    every u.

    Unless asked to raise, a block-start state with |u| > _OVERFLOW_LIMIT is
    divided by it, and so are the earlier values of its sweep, since only
    ratios and signs matter to such callers.  With ``raise_on_overflow`` the
    first node past the limit raises IntegrationDiverged.  A non-finite
    value raises it either way, at the last finite node; it appears when
    one block grows by more than about 1e58, the float range over the
    limit.  Nodes are reported by sweep index and x.  Some b_i <= 0 raises
    DomainError: such a step flips the sign of u.
    """
    lengths = [len(x) for x, _, _, _ in sweeps]
    steps = _block_length(sum(lengths) - 2 * len(sweeps))
    # a sweep of n nodes takes n - 2 steps, in (n - 2) // steps + 1 blocks
    # that hold its nodes 1 .. n - 1; padding steps (both coefficients 0)
    # hold u constant
    counts = [(n - 2) // steps + 1 for n in lengths]
    blocks = sum(counts)

    # h^2/12 g of all sweeps end to end; the steps that straddle two sweeps
    # are dropped
    hg = np.concatenate([(x[1] - x[0]) ** 2 / 12.0 * g for x, g, _, _ in sweeps])
    b = 1.0 - hg
    if np.min(b) <= 0.0:
        raise DomainError(f"grid too coarse: 1 - h^2 g / 12 reaches {np.min(b):.3g}")
    p = b[:-2] / b[2:]
    q = (hg[:-2] + 10.0 * hg[1:-1] + hg[2:]) / b[2:]
    padded = np.zeros((2, blocks * steps))
    node = slot = 0
    for n, count in zip(lengths, counts):
        padded[0, slot: slot + n - 2] = p[node: node + n - 2]
        padded[1, slot: slot + n - 2] = q[node: node + n - 2]
        node += n
        slot += count * steps
    # pq[:, j] holds step j of every block, once for each fundamental solution
    pq = np.empty((2, steps, 2 * blocks))
    pq[:, :, :blocks] = padded.reshape(2, blocks, steps).transpose(0, 2, 1)
    pq[:, :, blocks:] = pq[:, :, :blocks]

    # u[j] holds, after j steps, the fundamental solutions that start each
    # block from (u, d) = (1, 0) in its first half and from (0, 1) in its second
    u = np.empty((steps + 1, 2 * blocks))
    u[0, :blocks], u[0, blocks:] = 1.0, 0.0
    d = np.zeros(2 * blocks)
    d[blocks:] = 1.0
    qu = np.empty_like(d)
    for p_j, q_j, u_j, u_next in zip(pq[0], pq[1], u, u[1:]):
        np.multiply(d, p_j, d)
        np.multiply(u_j, q_j, qu)
        np.add(d, qu, d)
        np.add(u_j, d, u_next)

    transfer = zip(*(t.tolist() for t in (u[steps, :blocks], u[steps, blocks:],
                                         d[:blocks], d[blocks:])))
    rescale_above = math.inf if raise_on_overflow else _OVERFLOW_LIMIT
    start_u, start_d, rescaled, rescales = [], [], [], []
    for (_, _, u0, u1), count in zip(sweeps, counts):
        first = len(start_u)
        su, sd, r = float(u1), float(u1) - float(u0), 0
        for t00, t01, t10, t11 in islice(transfer, count):
            if abs(su) > rescale_above:
                su, sd, r = su / _OVERFLOW_LIMIT, sd / _OVERFLOW_LIMIT, r + 1
                rescaled.append((first, len(start_u)))
            start_u.append(su)
            start_d.append(sd)
            su, sd = t00 * su + t01 * sd, t10 * su + t11 * sd
        rescales.append(r)
    values = u[:steps, :blocks] * start_u
    values += u[:steps, blocks:] * start_d
    for first, block in rescaled:
        values[:, first:block] /= _OVERFLOW_LIMIT
    values = values.T.ravel()

    limit = _OVERFLOW_LIMIT if raise_on_overflow else sys.float_info.max
    solutions = []
    slot = 0
    for (x, _, u0, _), count, r in zip(sweeps, counts, rescales):
        sol = np.concatenate(((u0 * _OVERFLOW_LIMIT ** -r,), values[slot: slot + len(x) - 1]))
        slot += count * steps
        # the seeds are not checked
        if not np.max(np.abs(sol[2:])) <= limit:
            i = 2 + int(np.argmin(np.abs(sol[2:]) <= limit))
            if not math.isfinite(sol[i]):
                i -= 1
            raise IntegrationDiverged("integration overflowed", i, float(x[i]))
        solutions.append(sol)
    return solutions, sum(rescales)


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
    x, w, scale, c = _sweep_variables(grid.spacing, r)
    g = w * _f_values(terms, kappa, lam, r) + c
    sweep = np.arange(len(r))
    if direction is Direction.INWARD:
        sweep = sweep[::-1]
    try:
        (u,), _ = _numerov([(x[sweep], g[sweep], y0 / scale[sweep[0]],
                             y1 / scale[sweep[1]])], raise_on_overflow=True)
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
                     energy: float) -> Tuple[float, int, int]:
    """Normalized Wronskian, in x, of the outward and inward sweeps of
    u'' = g u at the match node, the sweeps' sign changes on either side
    of it, and their rescales.  The Wronskian in x has the same zeros as the
    one in r.  Both sweeps go through one kernel call.

    Seeds are the generic decay forms exp(-inner_decay / r) at the origin
    and exp(-sqrt(-E) r) at infinity, never the closed-form wavefunction.
    """
    h = x[1] - x[0]
    decay = math.sqrt(-energy)
    (out, rev), rescales = _numerov([
        (x[: imatch + 3], g[: imatch + 3],
         math.exp(inner_decay * (1.0 / r[1] - 1.0 / r[0])) / scale[0], 1.0 / scale[1]),
        (x[imatch - 2:][::-1], g[imatch - 2:][::-1],
         math.exp(-decay * (r[-1] - r[-2])) / scale[-1], 1.0 / scale[-2]),
    ], raise_on_overflow=False)
    inn = rev[::-1]  # inn[k] is the inward solution at x[imatch - 2 + k]
    j = 2
    d_out = (-out[imatch + 2] + 8.0 * out[imatch + 1]
             - 8.0 * out[imatch - 1] + out[imatch - 2]) / (12.0 * h)
    d_in = (-inn[j + 2] + 8.0 * inn[j + 1] - 8.0 * inn[j - 1] + inn[j - 2]) / (12.0 * h)
    # each sweep is normalized on its own, so the products cannot overflow
    n_out, n_in = math.hypot(d_out, out[imatch]), math.hypot(d_in, inn[j])
    defect = (d_out / n_out) * (inn[j] / n_in) - (d_in / n_in) * (out[imatch] / n_out)
    nodes = _sign_changes(out[: imatch + 1]) + _sign_changes(inn[j:])
    return float(defect), nodes, rescales


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
    x, w, scale, c = _sweep_variables(grid.spacing, r)
    f0 = _f_values(terms, 0.0, 0.0, r)
    imatch = int(np.clip(np.argmin(f0), 5, len(r) - 6))
    a4 = term_with_power(terms, 4.0)
    if a4 <= 0.0:
        raise DomainError("shooting seeds need a repulsive r^-4 term")
    inner_decay = math.sqrt(a4)

    trace = []

    def defect(energy: float) -> Tuple[float, int, int]:
        result = _matching_defect(x, w * (f0 - energy) + c, scale, r, imatch,
                                  inner_decay, energy)
        trace.append((energy, result[0]))
        return result

    (g_lo, _, _), (g_hi, _, _) = defect(e_lo), defect(e_hi)
    if not (math.isfinite(g_lo) and math.isfinite(g_hi)) or g_lo * g_hi > 0.0:
        raise BracketError("matching defect has no sign change in the bracket")
    # Illinois: a regula falsi step, halving the defect at an end that stays
    # put for a second step in a row, so that both ends close in on the root
    moved = None
    for iteration in range(1, _MAX_ITERATIONS + 1):
        # clamped, since rounding can put the step an ulp outside the bracket
        energy = min(max(e_hi - g_hi * (e_hi - e_lo) / (g_hi - g_lo), e_lo), e_hi)
        g, nodes, rescales = defect(energy)
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
                          evaluations=iteration + 2, nodes=nodes,
                          match_radius=float(r[imatch]), rescales=rescales,
                          trace=tuple(trace))
