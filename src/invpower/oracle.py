"""Independent numerical verification of the analytic constructions.

Everything here consumes only potentials, grids and boundary samples; no
series coefficients, asymptotic parameters or closed-form exponents enter
any code path, so agreement with the analytic modules is meaningful.

The reduced radial equation is integrated as y'' = f(r) y with

    f(r) = V(r) + (lam^2 - 1/4)/r^2 - kappa

by one Numerov kernel on both grid spacings.  A uniform grid is swept in r.
A log grid, the exp of equally spaced x = ln r with both ends pinned, is
swept in x on u = r^(-1/2) y, which obeys u'' = (r^2 f + 1/4) u.  Inward
sweeps run the same code over the reversed nodes.  The kernel carries u and
its first difference, cuts the sweep into blocks of about sqrt(n/6) steps,
advances the fundamental solutions of all blocks at once in numpy and
stitches the blocks together with 2x2 transfer steps.  Bound-state energies
are roots of the outward and inward sweeps' matching defect, found by Newton
steps on their mismatch angle (Cooley, Math. Comp. 15, 363, 1961) inside an
Illinois bracket (Dowell & Jarratt, BIT 11, 1971).
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
            return _equally_spaced(self.r_min, self.r_max, self.n_points)
        r = np.exp(_equally_spaced(math.log(self.r_min), math.log(self.r_max), self.n_points))
        r[0], r[-1] = self.r_min, self.r_max
        return r


def _equally_spaced(start: float, stop: float, n: int) -> np.ndarray:
    """np.linspace(start, stop, n), bit for bit, for n >= 2 and a step that
    does not underflow to 0, without its fixed cost: start + step * k with
    the last node set to stop."""
    x = np.arange(n, dtype=float)
    x *= (stop - start) / (n - 1)
    x += start
    x[-1] = stop
    return x


@dataclass(frozen=True)
class ShootingResult:
    """``iterations`` counts root-finder steps, ``newton_steps`` the Newton
    ones, and ``evaluations`` defect calls (the steps plus the two bracket
    ends); ``trace`` holds the (energy, defect) pair of each call in order.
    ``nodes`` counts the sign changes of the outward sweep below the match
    node plus those of the inward sweep above it, and ``rescales`` the
    overflow rescales of both sweeps, at the returned energy: 0 nodes for a
    ground state.  The sweeps meet at ``match_radius``."""

    energy: float
    match_defect: float
    iterations: int
    newton_steps: int
    converged: bool
    evaluations: int
    nodes: int
    match_radius: float
    rescales: int
    trace: Tuple[Tuple[float, float], ...]


def _f_values(terms: PotentialTerms, kappa: float, lam: float,
              r: np.ndarray) -> np.ndarray:
    """f(r) = V(r) + (lam^2 - 1/4)/r^2 - kappa at the nodes r, in one
    evaluate_terms call."""
    return evaluate_terms((*terms, (lam * lam - 0.25, 2.0), (-kappa, 0.0)), r)


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


def _numerov(x: np.ndarray, g: np.ndarray, r: np.ndarray, sweeps,
             raise_on_overflow: bool) -> Tuple[List[np.ndarray], int]:
    """Numerov sweeps of u'' = g u over spans of the equally spaced nodes x
    of a grid with radii r.  ``sweeps`` holds (span, u0, u1) tuples: span
    slices the grid with step 1 (outward) or -1 (inward), and u0, u1 are the
    seeds at its first two nodes in travel order.  Returns the solution of
    each sweep in grid order and the number of rescales.

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
    first node past the limit raises IntegrationDiverged.  A non-finite value
    raises it either way, at the last finite node; it appears when one block
    grows by more than about 1e58, the float range over the limit.  Some
    b_i <= 0 raises DomainError: such a step flips the sign of u.  Each error
    gives r at its grid node, and IntegrationDiverged the node's grid index.
    """
    indices = [range(len(x))[span] for span, _, _ in sweeps]
    steps = _block_length(sum(map(len, indices)) - 2 * len(sweeps))
    # a sweep of n nodes takes n - 2 steps, in (n - 2) // steps + 1 blocks
    # that hold its nodes 1 .. n - 1; padding steps (both coefficients 0)
    # hold u constant
    counts = [(len(index) - 2) // steps + 1 for index in indices]
    blocks = sum(counts)

    padded = np.zeros((2, blocks * steps))
    slot = 0
    for (span, _, _), index, count in zip(sweeps, indices, counts):
        hg = (x[index[1]] - x[index[0]]) ** 2 / 12.0 * g[span]
        b = 1.0 - hg
        i = int(b.argmin())
        if b[i] <= 0.0:
            raise DomainError(f"grid too coarse: 1 - h^2 g / 12 reaches {b[i]:.3g} "
                              f"at r = {r[index[i]]:.6g}")
        p, q = padded[:, slot: slot + len(index) - 2]
        np.divide(b[:-2], b[2:], p)
        np.multiply(hg[1:-1], 10.0, q)
        q += hg[:-2]
        q += hg[2:]
        q /= b[2:]
        slot += count * steps
    # pq[:, j] holds step j of every block, once for each fundamental solution
    pq = np.empty((2, steps, 2, blocks))
    pq[...] = padded.reshape(2, blocks, 1, steps).transpose(0, 3, 2, 1)
    pq = pq.reshape(2, steps, 2 * blocks)

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

    end_u, end_d = u[steps].tolist(), d.tolist()
    transfer = zip(end_u[:blocks], end_u[blocks:], end_d[:blocks], end_d[blocks:])
    rescale_above = math.inf if raise_on_overflow else _OVERFLOW_LIMIT
    start_u, start_d, rescaled, rescales = [], [], [], []
    append_u, append_d = start_u.append, start_d.append
    for (_, u0, u1), count in zip(sweeps, counts):
        first = len(start_u)
        su, sd, scaled = float(u1), float(u1) - float(u0), 0
        for t00, t01, t10, t11 in islice(transfer, count):
            if abs(su) > rescale_above:
                su, sd, scaled = su / _OVERFLOW_LIMIT, sd / _OVERFLOW_LIMIT, scaled + 1
                rescaled.append((first, len(start_u)))
            append_u(su)
            append_d(sd)
            su, sd = t00 * su + t01 * sd, t10 * su + t11 * sd
        rescales.append(scaled)
    # values[k] holds the nodes of block k, so that the rows are in sweep order
    weighted = u[:steps].T * np.array(start_u + start_d, dtype=float)[:, None]
    values = np.add(weighted[:blocks], weighted[blocks:], out=np.empty((blocks, steps)))
    for first, block in rescaled:
        values[first:block] /= _OVERFLOW_LIMIT
    values = values.ravel()

    limit = _OVERFLOW_LIMIT if raise_on_overflow else sys.float_info.max
    solutions = []
    slot = 0
    for (_, u0, _), index, count, scaled in zip(sweeps, indices, counts, rescales):
        sol = np.empty(len(index))
        sol[0], sol[1:] = u0 * _OVERFLOW_LIMIT ** -scaled, values[slot: slot + len(index) - 1]
        slot += count * steps
        # the seeds are not checked
        tail = sol[2:]
        if not (tail.max() <= limit and -limit <= tail.min()):
            i = 2 + int(np.argmin(np.abs(tail) <= limit))
            if not math.isfinite(sol[i]):
                i -= 1
            node = index[i]
            raise IntegrationDiverged(f"integration overflowed at r = {r[node]:.6g}",
                                      node, float(r[node]))
        solutions.append(sol[::index.step])
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
    require_finite(kappa=kappa, lam=lam)
    r = grid.nodes()
    span = slice(None, None, -1 if direction is Direction.INWARD else 1)
    g = _f_values(terms, kappa, lam, r)
    x, scale = r, None
    if grid.spacing is Spacing.LOG:
        x, w, scale, c = _sweep_variables(grid.spacing, r)
        g *= w
        g += c
        y0, y1 = y0 / scale[span][0], y1 / scale[span][1]
    (u,), _ = _numerov(x, g, r, [(span, y0, y1)], raise_on_overflow=True)
    return u if scale is None else scale * u


def finite_difference_residual(r: np.ndarray, y: np.ndarray,
                               terms: PotentialTerms, kappa: float,
                               lam: float) -> float:
    """Max over interior nodes of |y'' - f y| / max(1, |y|) with a central
    second difference; requires a uniform grid with at least 5 points."""
    r = np.asarray(r, dtype=float)
    y = np.asarray(y)
    if not np.all(np.isfinite(y)):
        raise DomainError("y must be finite")
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


def _matching_defect(x: np.ndarray, g: np.ndarray, r: np.ndarray, w: np.ndarray, imatch: int,
                     inner: Tuple[float, float], outer: Tuple[float, float]) -> tuple:
    """Normalized Wronskian, in x, of the sweeps of u'' = g u outward from
    the seed pair ``inner`` and inward from ``outer``, at the match node,
    which is sin Delta for the angle Delta between their (u, u'); Delta;
    its slope S = -dDelta/dE; the sweeps' rescales; and the sweeps on
    either side of the match node, each divided by the length of its
    (u, u') there.  The Wronskian in x has the same zeros as the one in r.
    Both sweeps go through one kernel call, whose errors name a node by
    its radius in r.  With dg/dE = -w, S is the trapezoid sum of w u^2 over
    both normalized sweeps, halved at the match node.
    """
    h = x[1] - x[0]
    # out holds nodes 0 .. imatch + 2 and inn nodes imatch - 2 .. n - 1
    spans = [(slice(imatch + 3), *inner), (slice(None, imatch - 3, -1), *outer)]
    (out, inn), rescales = _numerov(x, g, r, spans, raise_on_overflow=False)
    d_out = (-out[imatch + 2] + 8.0 * out[imatch + 1]
             - 8.0 * out[imatch - 1] + out[imatch - 2]) / (12.0 * h)
    d_in = (-inn[4] + 8.0 * inn[3] - 8.0 * inn[1] + inn[0]) / (12.0 * h)
    # each sweep is normalized on its own, so the products cannot overflow
    n_out, n_in = math.hypot(d_out, out[imatch]), math.hypot(d_in, inn[2])
    a, b = out[: imatch + 1] / n_out, inn[2:] / n_in
    slope = h * (np.dot(w[: imatch + 1] * a, a) + np.dot(w[imatch:] * b, b)
                 - 0.5 * w[imatch] * (a[-1] ** 2 + b[0] ** 2))
    defect = (d_out / n_out) * b[0] - (d_in / n_in) * a[-1]
    cos = (d_out / n_out) * (d_in / n_in) + a[-1] * b[0]
    return float(defect), math.atan2(defect, cos), float(slope), rescales, (a, b)


def shoot_ground_energy(terms: PotentialTerms, bracket: Tuple[float, float],
                        grid: RadialGrid, tolerance: float = 1e-10) -> ShootingResult:
    """Find the bound-state energy in the bracket as a root of the matching
    defect, on a uniform or a log grid, by Newton steps on the mismatch angle
    inside an Illinois bracket: each step is E + Delta / S from the latest
    energy, at first from the bracket end with the smaller |Delta|, where
    that lies strictly inside the bracket, and an Illinois step otherwise.

    The bracket must satisfy E_lo < E_hi < 0 and contain a sign change of
    the defect; the match node sits at the minimum of the effective
    potential.  The result is converged when |defect| <= tolerance.  The
    seeds are the generic decay forms exp(-sqrt(A) / r), A the r^-4
    strength, and exp(-sqrt(-E) r), never the closed-form wavefunction; so
    the grid ends must make exp(-2 sqrt(A) / r_min) and exp(-sqrt(-E) r_max)
    negligible.
    """
    require_finite(tolerance=tolerance)
    if tolerance <= 0.0:
        raise DomainError("tolerance must be positive")
    e_lo, e_hi = bracket
    require_finite(e_lo=e_lo, e_hi=e_hi)
    if not (e_lo < e_hi < 0.0):
        raise DomainError("bracket must satisfy E_lo < E_hi < 0")
    r = grid.nodes()
    x, w, scale, c = _sweep_variables(grid.spacing, r)
    f0 = _f_values(terms, 0.0, 0.0, r)
    imatch = int(np.clip(np.argmin(f0), 5, len(r) - 6))
    a4 = term_with_power(terms, 4.0)
    if a4 <= 0.0:
        raise DomainError("shooting seeds need a repulsive r^-4 term")
    inner = (math.exp(math.sqrt(a4) * (1.0 / r[1] - 1.0 / r[0])) / scale[0], 1.0 / scale[1])
    g0 = w * f0 + c

    trace = []

    def defect(energy: float):
        outer = (math.exp(-math.sqrt(-energy) * (r[-1] - r[-2])) / scale[-1], 1.0 / scale[-2])
        result = _matching_defect(x, g0 - energy * w, r, w, imatch, inner, outer)
        trace.append((energy, result[0]))
        return result

    (g_lo, angle_lo, slope_lo, _, _), (g_hi, angle, slope, _, _) = defect(e_lo), defect(e_hi)
    if not (math.isfinite(g_lo) and math.isfinite(g_hi)) or g_lo * g_hi > 0.0:
        raise BracketError("matching defect has no sign change in the bracket")
    energy, angle, slope = ((e_lo, angle_lo, slope_lo) if abs(angle_lo) < abs(angle)
                            else (e_hi, angle, slope))
    # Illinois: a regula falsi step, halving the defect at an end that stays
    # put for a second step in a row, so that both ends close in on the root
    moved = None
    newton_steps = 0
    for iteration in range(1, _MAX_ITERATIONS + 1):
        # energy is an end of the bracket, so an infinite slope falls back too
        newton = energy + angle / slope if slope > 0.0 else math.nan
        if e_lo < newton < e_hi:
            energy, newton_steps = newton, newton_steps + 1
        else:
            # clamped, since rounding can put the step an ulp outside the bracket
            energy = min(max(e_hi - g_hi * (e_hi - e_lo) / (g_hi - g_lo), e_lo), e_hi)
        g, angle, slope, rescales, (a, b) = defect(energy)
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
                          newton_steps=newton_steps, converged=abs(g) <= tolerance,
                          evaluations=iteration + 2,
                          nodes=_sign_changes(a) + _sign_changes(b),
                          match_radius=float(r[imatch]), rescales=rescales,
                          trace=tuple(trace))
