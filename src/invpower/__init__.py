"""Toolkit for the radial Schrodinger equation with repulsive inverse-power
potentials: dimensional reduction, asymptotic classification, series
construction of scattering solutions for even beta, closed-form ground
states for a four-term inverse-power potential, and an independent
numerical oracle verifying all of the above."""

from .asymptotics import (OriginAsymptotics, PotentialMonomial, origin_params,
                          special_p)
from .errors import (BracketError, ConfigurationError, ConsistencyViolation,
                     DegenerateC, DomainError, IntegrationDiverged,
                     NoConvergence, NotNormalizable)
from .groundstate import (GroundStateSolution, constraint_mismatch,
                          evaluate_ground_state, ground_state_residual,
                          solve_ground_state)
from .oracle import (Direction, RadialGrid, ShootingResult, Spacing,
                     finite_difference_residual, integrate_radial,
                     shoot_ground_energy)
from .potentials import evaluate_terms
from .reduction import (QuantumSetup, ReducedProblem, reduce_problem,
                        to_full_wavefunction)
from .series import (SeriesConfig, SeriesSolution, Strategy, build_series,
                     evaluate_solution, ode_residual, recurrence_residual)

__version__ = "0.1.0"

__all__ = [
    "BracketError", "ConfigurationError", "ConsistencyViolation",
    "DegenerateC", "Direction", "DomainError", "GroundStateSolution",
    "IntegrationDiverged", "NoConvergence", "NotNormalizable",
    "OriginAsymptotics", "PotentialMonomial", "QuantumSetup", "RadialGrid",
    "ReducedProblem", "SeriesConfig", "SeriesSolution", "ShootingResult",
    "Spacing", "Strategy", "build_series", "constraint_mismatch",
    "evaluate_ground_state", "evaluate_solution", "evaluate_terms",
    "finite_difference_residual", "ground_state_residual",
    "integrate_radial", "ode_residual", "origin_params", "recurrence_residual",
    "reduce_problem", "shoot_ground_energy", "solve_ground_state",
    "special_p", "to_full_wavefunction",
]
