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
from typing import Dict, Mapping, Tuple

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
    """Computed coefficients a_s over the window plus the exponent omega."""

    omega: float
    coefficients: Dict[int, complex]
    config: SeriesConfig
    normalization_index: int


def _recurrence_terms(s: int, config: SeriesConfig) -> Tuple[Tuple[int, complex], ...]:
    """(index, coefficient) pairs of the recurrence row at shift s."""
    alpha, beta = config.pot.alpha, config.pot.beta
    b = config.half_beta
    eps = config.epsilon
    sqa = math.sqrt(alpha)
    sqk = math.sqrt(config.kappa)
    sqak = math.sqrt(alpha * config.kappa)
    return (
        (s + b + 1, 2.0 * sqa * (s + b + 1)),
        (s + b, 2j * eps * sqak),
        (s + 2, (s + 2) * (s + 1) + beta**2 / 16.0
                + beta * (0.5 * s + 0.75) - (config.lam**2 - 0.25)),
        (s + 1, 2j * eps * sqk * (s + 1) + 0.5j * eps * beta * sqk),
    )


def recurrence_residual(coeffs: Mapping[int, complex], s: int,
                        config: SeriesConfig) -> complex:
    """Left-hand side of the recurrence at shift s; zero when it holds.

    Indices missing from ``coeffs`` read as zero.
    """
    return sum(c * complex(coeffs.get(i, 0.0)) for i, c in _recurrence_terms(s, config))


def build_series(config: SeriesConfig) -> SeriesSolution:
    """Solve the coefficient recurrence forward from a_0 = 1 over the window;
    WINDOWED then scales the coefficients to their largest one."""
    b = config.half_beta
    a: Dict[int, complex] = {s: 0.0 + 0.0j for s in range(config.s_min, 0)}
    a[0] = 1.0 + 0.0j
    # the row defining a_0 (s = -b - 1) reads only negative indices, all
    # zero, so it holds and the solve starts at a_1
    for s in range(-b, config.s_max - b):
        (d, pivot), *rest = _recurrence_terms(s, config)
        a[d] = -sum(c * a.get(i, 0.0) for i, c in rest) / pivot
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
    """Radii as an array, the envelope exp(-gamma r^-delta) exp(i eps sqrt(kappa) r),
    and S = r^omega sigma with its first ``derivatives`` derivatives in r.

    The sums are one real product of the powers r^0 ... r^(N-1) with the
    coefficients viewed as float pairs; column k weights a_s by the falling
    factorial w (w - 1) ... (w - k + 1) of its power w.  Summing the terms
    directly has the same rounding bound as Horner's rule."""
    r = require_radii(r)
    _check_origin(sol, origin)
    items = sorted(sol.coefficients.items())
    powers = np.array([s for s, _ in items], dtype=float) + sol.omega
    columns = [np.array([c for _, c in items], dtype=complex)]
    for k in range(derivatives):
        columns.append(columns[-1] * (powers - k))
    weights = np.stack(columns, axis=1).view(float)
    sums = (r[..., None] ** np.arange(len(items)) @ weights).view(complex)
    base = r ** powers[0]
    envelope = (np.exp(-origin.gamma * r ** (-origin.delta))
                * np.exp(1j * sol.config.epsilon * math.sqrt(sol.config.kappa) * r))
    return r, envelope, [base * sums[..., k] / r**k for k in range(derivatives + 1)]


def evaluate_solution(sol: SeriesSolution, origin: OriginAsymptotics, r):
    """Full solution y(r) = exp(-gamma r^-delta) exp(i eps r sqrt(kappa)) r^omega sigma(r)
    at finite positive radii; a scalar r gives a complex."""
    _, envelope, (s0,) = _series_values(sol, origin, r, 0)
    y = envelope * s0
    return y if y.ndim else complex(y)


def ode_residual(sol: SeriesSolution, origin: OriginAsymptotics, r):
    """Residual of the reduced radial equation for the truncated series.

    Returns |y'' + f y| / max(|y''|, |f y|) <= 2, or 0 where both vanish,
    with f = kappa - alpha r^-beta - (lam^2 - 1/4)/r^2 and y'' from term-by-
    term analytic differentiation of the closed-form factors.  Radii must be
    finite and positive; a scalar r gives a float.
    """
    r, envelope, (s0, s1, s2) = _series_values(sol, origin, r, 2)
    cfg = sol.config
    gamma, delta = origin.gamma, origin.delta
    g1 = gamma * delta * r ** (-delta - 1.0) + 1j * cfg.epsilon * math.sqrt(cfg.kappa)
    g2 = -gamma * delta * (delta + 1.0) * r ** (-delta - 2.0)
    y = envelope * s0
    ypp = envelope * (s2 + 2.0 * g1 * s1 + (g2 + g1 * g1) * s0)
    f = cfg.kappa - cfg.pot.alpha * r ** (-cfg.pot.beta) - (cfg.lam**2 - 0.25) / r**2
    scale = np.maximum(np.abs(ypp), np.abs(f * y))
    res = np.abs(ypp + f * y) / np.where(scale > 0.0, scale, 1.0)
    return res if res.ndim else float(res)
