"""Power/Laurent-series construction of the interpolating function F(r).

For even integer beta >= 4 write F(r) = r^omega * sigma(r) with
omega = beta/4 and sigma(r) = sum_s a_s r^s.  The coefficients obey the
five-index recurrence (b = beta/2)

    2 sqrt(alpha) (s+b+1) a_{s+b+1}
    + 2 i eps sqrt(alpha kappa) a_{s+b}
    + [(s+2)(s+1) + beta^2/16 + beta (s/2 + 3/4) - (lam^2 - 1/4)] a_{s+2}
    + [2 i eps sqrt(kappa) (s+1) + (i/2) eps beta sqrt(kappa)] a_{s+1} = 0

for every integer s; the a_{s+2} factor is (s+2+omega)(s+1+omega) -
(lam^2 - 1/4) written out.  Two seeding strategies are provided:

* ONE_SIDED: a_s = 0 for s < 0 and a_0 = 1, solved forward for a_{s+b+1}.
* WINDOWED: the null vector of the recurrence rows over the window
  [s_min, s_max], indices outside it reading as zero.  Row s defines
  a_{s+b+1}, and its factor 2 sqrt(alpha) (s+b+1) vanishes only for index
  0, whose row involves negative indices alone; so the rows force every
  negative-index coefficient to zero and leave a_0 free.  The null vector
  is therefore the ONE_SIDED solution, scaled to its largest coefficient.

The resulting series is asymptotic: its coefficients grow factorially, so
truncations are accurate only close to r = 0 (see ode_residual).
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from .asymptotics import (OriginAsymptotics, PotentialMonomial, origin_params,
                          special_p)
from .errors import (ConfigurationError, DomainError, NoConvergence,
                     require_finite, require_radii)


class Strategy(Enum):
    ONE_SIDED = "one_sided"
    WINDOWED = "windowed"


@dataclass(frozen=True)
class SeriesConfig:
    """Parameters of a series build; beta must be an even integer >= 4."""

    pot: PotentialMonomial
    kappa: float
    lam: float
    epsilon: int
    s_min: int = 0
    s_max: int = 40
    strategy: Strategy = Strategy.ONE_SIDED

    def __post_init__(self):
        beta = self.pot.beta
        if float(beta) != int(beta) or int(beta) % 2 != 0 or beta < 4:
            raise ConfigurationError(
                "beta must be an even integer >= 4: the coefficient recurrence "
                "only closes when beta/2 is an integer (odd or non-integer "
                "beta does not admit a power-series algorithm)")
        require_finite(kappa=self.kappa, lam=self.lam, lam_squared=self.lam * self.lam)
        if self.kappa <= 0.0:
            raise DomainError("kappa must be positive")
        if self.epsilon not in (1, -1):
            raise DomainError("epsilon must be +1 or -1")
        if not all(isinstance(s, numbers.Integral) for s in (self.s_min, self.s_max)):
            raise DomainError("s_min and s_max must be integers")
        if not (self.s_min <= 0 <= self.s_max):
            raise DomainError("window must satisfy s_min <= 0 <= s_max")
        if self.s_max - self.s_min < self.half_beta + 1:
            raise DomainError("window too narrow: need s_max - s_min >= beta/2 + 1")

    @property
    def half_beta(self) -> int:
        """Integer b = beta/2 entering the recurrence indices."""
        return int(self.pot.beta) // 2


@dataclass(frozen=True)
class SeriesSolution:
    """Computed coefficients a_s over the window plus the exponent omega.

    ``coefficients`` is a read-only view of a copy of the mapping passed in,
    so the evaluation arrays formed from it here cannot go stale: the powers
    w = s + omega in increasing s, and the weight columns a_s, w a_s and
    w (w - 1) a_s viewed as float pairs."""

    omega: float
    coefficients: Mapping[int, complex]
    config: SeriesConfig
    normalization_index: int
    _powers: np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coefficients = dict(self.coefficients)
        indices = sorted(coefficients)
        n = len(indices)
        powers = np.fromiter(indices, float, n) + self.omega
        weights = np.empty((n, 3), dtype=complex)
        weights[:, 0] = np.fromiter(map(coefficients.__getitem__, indices), complex, n)
        np.multiply(weights[:, 0], powers, out=weights[:, 1])
        np.multiply(weights[:, 1], powers - 1.0, out=weights[:, 2])
        weights = weights.view(float)
        powers.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "coefficients", MappingProxyType(coefficients))
        object.__setattr__(self, "_powers", powers)
        object.__setattr__(self, "_weights", weights)

    def __reduce__(self):
        # a mappingproxy does not pickle; the arrays are formed again
        return SeriesSolution, (self.omega, dict(self.coefficients), self.config,
                                self.normalization_index)


def _recurrence_rows(config: SeriesConfig, shifts: Iterable[int]):
    """(index, coefficient) pairs of the recurrence row at each shift s, the
    a_{s+b+1} pair first; the factors that do not depend on s are formed once."""
    beta, b, eps = config.pot.beta, config.half_beta, config.epsilon
    sqk, lead = math.sqrt(config.kappa), 2.0 * math.sqrt(config.pot.alpha)
    cross = 2j * eps * math.sqrt(config.pot.alpha * config.kappa)
    omega_sq = beta**2 / 16.0
    centrifugal = config.lam**2 - 0.25
    slope, offset = 2j * eps * sqk, 0.5j * eps * beta * sqk
    for s in shifts:
        yield ((s + b + 1, lead * (s + b + 1)),
               (s + b, cross),
               (s + 2, (s + 2) * (s + 1) + omega_sq
                       + beta * (0.5 * s + 0.75) - centrifugal),
               (s + 1, slope * (s + 1) + offset))


def _recurrence_terms(s: int, config: SeriesConfig) -> Tuple[Tuple[int, complex], ...]:
    """(index, coefficient) pairs of the recurrence row at shift s."""
    return next(_recurrence_rows(config, (s,)))


def recurrence_residual(coeffs: Mapping[int, complex], s: int,
                        config: SeriesConfig) -> complex:
    """Left-hand side of the recurrence at shift s; zero when it holds.

    Indices missing from ``coeffs`` read as zero.
    """
    return sum(c * complex(coeffs.get(i, 0.0)) for i, c in _recurrence_terms(s, config))


def build_series(config: SeriesConfig) -> SeriesSolution:
    """Solve the coefficient recurrence forward from a_0 = 1 over the window;
    WINDOWED then scales the coefficients to their largest one.  Each row of
    ``_recurrence_rows`` gives a_{s+b+1} from its three lower coefficients."""
    b = config.half_beta
    a: Dict[int, complex] = {s: 0.0 + 0.0j for s in range(config.s_min, 0)}
    a[0] = 1.0 + 0.0j
    get = a.get
    # the row defining a_0 (s = -b - 1) reads only negative indices, all
    # zero, so it holds and the solve starts at a_1; a sum starting from 0,
    # as sum() does, turns negative zeros into +0
    for (d, pivot), (i, ci), (j, cj), (k, ck) in _recurrence_rows(
            config, range(-b, config.s_max - b)):
        a[d] = -(0 + ci * get(i, 0.0) + cj * get(j, 0.0) + ck * get(k, 0.0)) / pivot
        if not cmath.isfinite(a[d]):
            raise NoConvergence(
                f"series coefficient a_{d} overflowed; lower s_max "
                "(the coefficients grow factorially)")
    top = 0
    if config.strategy is Strategy.WINDOWED:
        top = max(a, key=lambda s: abs(a[s]))
        a = {s: c / a[top] for s, c in a.items()}
    return SeriesSolution(omega=special_p(config.pot.beta), coefficients=a,
                          config=config, normalization_index=top)


def _check_origin(sol: SeriesSolution, origin: OriginAsymptotics) -> None:
    want = origin_params(sol.config.pot)
    if not (math.isclose(origin.gamma, want.gamma, rel_tol=1e-9)
            and math.isclose(origin.delta, want.delta, rel_tol=1e-9)):
        raise DomainError("origin asymptotics do not match the series potential")


def _series_values(sol: SeriesSolution, origin: OriginAsymptotics, r,
                   derivatives: int):
    """Radii as an array, r^-delta, the envelope
    exp(-gamma r^-delta) exp(i eps sqrt(kappa) r), and S = r^omega sigma with
    its first ``derivatives`` (at most 2) derivatives in r.

    The sums are one real product of the powers r^0 ... r^(N-1) with the
    solution's weight columns; column k weights a_s by the falling factorial
    w (w - 1) ... (w - k + 1) of its power w.  Summing the terms directly has
    the same rounding bound as Horner's rule.  Rows k ... 2k-1 of the powers
    are rows 0 ... k-1 times r^k = (r^(k/2))^2: a few array products, not one
    pow per element, and none above r^(N-1), which could overflow where the
    sums do not."""
    r = require_radii(r)
    _check_origin(sol, origin)
    powers, weights = sol._powers, sol._weights[:, :2 * derivatives + 2]
    r_pow = np.empty((len(powers), r.size))
    r_pow[0] = 1.0
    r_pow[1:2] = r.reshape(-1)
    k = 2
    while k < len(powers):
        rows = r_pow[k:2 * k]
        np.multiply(r_pow[:len(rows)], r_pow[k // 2] ** 2, out=rows)
        k *= 2
    sums = (r_pow.T @ weights).view(complex).reshape(r.shape + (derivatives + 1,))
    base = r ** powers[0]
    r_delta = r ** (-origin.delta)
    envelope = np.exp(-origin.gamma * r_delta
                      + 1j * sol.config.epsilon * math.sqrt(sol.config.kappa) * r)
    return r, r_delta, envelope, [base * sums[..., 0]] + [base * sums[..., k] / r**k
                                                          for k in range(1, derivatives + 1)]


def evaluate_solution(sol: SeriesSolution, origin: OriginAsymptotics, r):
    """Full solution y(r) = exp(-gamma r^-delta) exp(i eps r sqrt(kappa)) r^omega sigma(r)
    at finite positive radii; a scalar r gives a complex."""
    _, _, envelope, (s0,) = _series_values(sol, origin, r, 0)
    y = envelope * s0
    return y if y.ndim else complex(y)


def ode_residual(sol: SeriesSolution, origin: OriginAsymptotics, r):
    """Residual of the reduced radial equation for the truncated series.

    Returns |y'' + f y| / max(|y''|, |f y|) <= 2, or 0 where both vanish,
    with f = kappa - alpha r^-beta - (lam^2 - 1/4)/r^2 and y'' from term-by-
    term analytic differentiation of the closed-form factors.  Since
    beta = 2 delta + 2, the powers r^(-delta-1), r^(-delta-2) and r^-beta
    come from the envelope's r^-delta and 1/r by products alone.  Radii must
    be finite and positive; a scalar r gives a float.
    """
    r, r_delta, envelope, (s0, s1, s2) = _series_values(sol, origin, r, 2)
    cfg = sol.config
    gamma, delta = origin.gamma, origin.delta
    inv_r = 1.0 / r
    r_d1 = r_delta * inv_r  # r^(-delta-1); its square is r^-beta
    g1 = gamma * delta * r_d1 + 1j * cfg.epsilon * math.sqrt(cfg.kappa)
    g2 = -gamma * delta * (delta + 1.0) * (r_d1 * inv_r)
    y = envelope * s0
    ypp = envelope * (s2 + 2.0 * g1 * s1 + (g2 + g1 * g1) * s0)
    f = cfg.kappa - cfg.pot.alpha * (r_d1 * r_d1) - (cfg.lam**2 - 0.25) / r**2
    scale = np.maximum(np.abs(ypp), np.abs(f * y))
    res = np.abs(ypp + f * y) / np.where(scale > 0.0, scale, 1.0)
    return res if res.ndim else float(res)
