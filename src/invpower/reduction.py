"""Mapping between the physical radial problem and its normal form.

The q-dimensional radial equation with first derivative is converted to the
first-derivative-free form

    y'' + (kappa - V(r) - (lambda^2 - 1/4)/r^2) y = 0

via y(r) = r^((q-1)/2) psi(r), with kappa = 2 m E / hbar^2,
V = (2 m / hbar^2) U and lambda = l + (q-2)/2.  All downstream modules work
exclusively in these reduced units; physical unit handling lives here.

Wavefunctions are left unnormalized throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .errors import DomainError, require_finite
from .potentials import PotentialTerms


@dataclass(frozen=True)
class QuantumSetup:
    """Physical data of the radial problem: m, hbar, dimension q, l and E."""

    mass: float
    hbar: float
    dimension: int
    angular_momentum: int
    energy: float

    def __post_init__(self):
        require_finite(mass=self.mass, hbar=self.hbar, dimension=self.dimension,
                       angular_momentum=self.angular_momentum, energy=self.energy)
        if self.mass <= 0.0:
            raise DomainError("mass must be positive")
        if self.hbar <= 0.0:
            raise DomainError("hbar must be positive")
        if int(self.dimension) != self.dimension or self.dimension < 2:
            raise DomainError("dimension q must be an integer >= 2")
        if int(self.angular_momentum) != self.angular_momentum or self.angular_momentum < 0:
            raise DomainError("angular momentum l must be an integer >= 0")


@dataclass(frozen=True)
class ReducedProblem:
    """Normal-form data: kappa, lambda and the reduced potential terms.

    kappa carries the sign of the energy (positive for scattering states,
    negative for bound states); lam = l + (q-2)/2 is always >= 0.
    """

    kappa: float
    lam: float
    terms: Tuple[Tuple[float, float], ...]


def reduce_problem(setup: QuantumSetup, physical_terms: PotentialTerms = ()) -> ReducedProblem:
    """Reduce a physical setup to the first-derivative-free normal form.

    ``physical_terms`` are (strength, power) pairs of U(r) in energy units;
    each strength is rescaled by 2 m / hbar^2.
    """
    # dividing by hbar twice keeps 2 m / hbar^2 in range where hbar^2 is not
    scale = 2.0 * setup.mass / setup.hbar / setup.hbar
    if not 0.0 < scale < math.inf:
        raise DomainError(f"2 m / hbar^2 = {scale!r} is outside the floating-point range")
    kappa = scale * setup.energy
    require_finite(kappa=kappa)
    lam = setup.angular_momentum + 0.5 * (setup.dimension - 2)
    for s, p in physical_terms:
        require_finite(term_strength=s, term_power=p, reduced_term_strength=scale * s)
    terms = tuple((scale * s, float(p)) for s, p in physical_terms)
    return ReducedProblem(kappa=kappa, lam=lam, terms=terms)
