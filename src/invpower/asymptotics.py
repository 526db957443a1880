"""Near-origin asymptotics and coefficient functions of the interpolating ODE.

For the repulsive single-term potential V(r) = alpha * r^(-beta) with
beta > 2, the regular solution behaves like

    y(r) ~ r^p * exp(-gamma * r^(-delta))    as r -> 0

with gamma^2 delta^2 = alpha and 2 delta + 2 = beta, hence
delta = beta/2 - 1 and gamma = 2 sqrt(alpha)/(beta - 2).  At infinity
y ~ exp(i * epsilon * r * sqrt(kappa)) for the two branches epsilon = +-1.

Factoring both asymptotic pieces out of y leaves an interpolating function
F(r) solving F'' + p(r) F' + q(r) F = 0; this module builds p and q both in
the general (gamma, delta) form and in the specialized form obtained once
the consistency conditions are imposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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

    def __call__(self, r):
        return self.alpha * np.asarray(r, dtype=float) ** (-self.beta)


@dataclass(frozen=True)
class OriginAsymptotics:
    """Parameters (gamma, delta) of the near-origin factor exp(-gamma r^-delta)."""

    gamma: float
    delta: float


@dataclass(frozen=True)
class OdeCoefficients:
    """Callables p(r), q(r) of F'' + p F' + q F = 0, plus their provenance."""

    p: Callable
    q: Callable
    alpha: float
    beta: float
    kappa: float
    lam: float
    epsilon: int


def _check_epsilon(epsilon: int) -> int:
    if epsilon not in (1, -1):
        raise DomainError("epsilon must be +1 or -1")
    return epsilon


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


def ode_coefficients(pot: PotentialMonomial, kappa: float, lam: float,
                     epsilon: int) -> OdeCoefficients:
    """Specialized coefficient functions, valid once the origin conditions hold.

        p(r) = 2 sqrt(alpha) r^(-beta/2) + 2 i eps sqrt(kappa)
        q(r) = -(beta/2) sqrt(alpha) r^(-beta/2 - 1)
               + 2 i eps sqrt(alpha kappa) r^(-beta/2)
               - (lam^2 - 1/4) / r^2

    Only the scattering branch kappa > 0 is meaningful here.
    """
    _check_epsilon(epsilon)
    if kappa <= 0.0:
        raise DomainError("kappa must be positive for the scattering branch")
    alpha, beta = pot.alpha, pot.beta
    sqa = math.sqrt(alpha)
    sqk = math.sqrt(kappa)
    sqak = math.sqrt(alpha * kappa)
    cent = lam * lam - 0.25

    def p(r):
        r = np.asarray(r, dtype=float)
        return 2.0 * sqa * r ** (-0.5 * beta) + 2j * epsilon * sqk

    def q(r):
        r = np.asarray(r, dtype=float)
        return (-0.5 * beta * sqa * r ** (-0.5 * beta - 1.0)
                + 2j * epsilon * sqak * r ** (-0.5 * beta)
                - cent / r**2)

    return OdeCoefficients(p=p, q=q, alpha=alpha, beta=beta,
                           kappa=kappa, lam=lam, epsilon=epsilon)


def general_ode_coefficients(pot: PotentialMonomial, gamma: float, delta: float,
                             kappa: float, lam: float, epsilon: int) -> OdeCoefficients:
    """Coefficient functions for arbitrary (gamma, delta), no conditions assumed.

        p(r) = 2 gamma delta r^(-delta-1) + 2 i eps sqrt(kappa)
        q(r) = gamma^2 delta^2 r^(-2 delta - 2)
               - gamma delta (delta + 1) r^(-delta - 2)
               + 2 i eps gamma delta sqrt(kappa) r^(-delta - 1)
               - alpha r^(-beta) - (lam^2 - 1/4)/r^2

    Serves as a cross-check: with (gamma, delta) from :func:`origin_params`
    this agrees pointwise with :func:`ode_coefficients`.
    """
    _check_epsilon(epsilon)
    if gamma <= 0.0 or delta <= 0.0:
        raise DomainError("gamma and delta must be positive")
    alpha, beta = pot.alpha, pot.beta
    sqk = math.sqrt(kappa)
    gd = gamma * delta
    cent = lam * lam - 0.25

    def p(r):
        r = np.asarray(r, dtype=float)
        return 2.0 * gd * r ** (-delta - 1.0) + 2j * epsilon * sqk

    def q(r):
        r = np.asarray(r, dtype=float)
        return (gd * gd * r ** (-2.0 * delta - 2.0)
                - gd * (delta + 1.0) * r ** (-delta - 2.0)
                + 2j * epsilon * gd * sqk * r ** (-delta - 1.0)
                - alpha * r ** (-beta)
                - cent / r**2)

    return OdeCoefficients(p=p, q=q, alpha=alpha, beta=beta,
                           kappa=kappa, lam=lam, epsilon=epsilon)
