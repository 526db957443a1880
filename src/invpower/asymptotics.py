"""Near-origin asymptotics of the single-term inverse-power potential.

For the repulsive single-term potential V(r) = alpha * r^(-beta) with
beta > 2, the regular solution behaves like

    y(r) ~ r^p * exp(-gamma * r^(-delta))    as r -> 0

with gamma^2 delta^2 = alpha and 2 delta + 2 = beta, hence
delta = beta/2 - 1 and gamma = 2 sqrt(alpha)/(beta - 2).  This module
gives (gamma, delta) and the exponent p = beta/4 of the prefactor r^p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, require_finite


@dataclass(frozen=True)
class PotentialMonomial:
    """Single repulsive inverse-power term alpha * r^(-beta), beta > 2."""

    alpha: float
    beta: float

    def __post_init__(self):
        require_finite(alpha=self.alpha, beta=self.beta)
        if self.alpha <= 0.0:
            raise DomainError("alpha must be positive (attractive case unsupported)")
        if self.beta <= 2.0:
            raise DomainError("beta must exceed 2")


@dataclass(frozen=True)
class OriginAsymptotics:
    """Parameters (gamma, delta) of the near-origin factor exp(-gamma r^-delta)."""

    gamma: float
    delta: float


def origin_params(pot: PotentialMonomial) -> OriginAsymptotics:
    """Solve the near-origin consistency conditions for (gamma, delta).

    delta = beta/2 - 1 and gamma = 2 sqrt(alpha)/(beta - 2); together these
    satisfy gamma^2 delta^2 = alpha and 2 delta + 2 = beta.
    """
    delta = 0.5 * pot.beta - 1.0
    gamma = 2.0 * math.sqrt(pot.alpha) / (pot.beta - 2.0)
    return OriginAsymptotics(gamma=gamma, delta=delta)


def special_p(beta: float) -> float:
    """Exponent p of the near-origin power prefactor under the closure delta = 2p - 1.

    Combining delta = 2p - 1 with delta = beta/2 - 1 gives beta = 4p, i.e.
    p = beta/4.  For beta = 4 this recovers y ~ r exp(-sqrt(alpha)/r).

    The same beta/4 is the exponent omega of the r^omega prefactor of the
    series' interpolating function, where it cancels the r^(-beta/2 - 1)
    coefficient sqrt(alpha) (2 omega - beta/2).  A non-integer value makes
    the wavefunction multi-valued (polydromic) around the origin.
    """
    require_finite(beta=beta)
    if beta <= 2.0:
        raise DomainError("beta must exceed 2")
    return beta / 4.0
