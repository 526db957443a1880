"""Input validation shared across modules: radii and integer counts."""

import math

import numpy as np
import pytest

from invpower import (DomainError, PotentialMonomial, RadialGrid, SeriesConfig,
                      build_series, evaluate_ground_state, evaluate_solution,
                      evaluate_terms, ground_state_residual, ode_residual,
                      origin_params, solve_ground_state, to_full_wavefunction)

_SERIES = build_series(SeriesConfig(pot=PotentialMonomial(1.0, 6.0), kappa=1.0,
                                    lam=0.5, epsilon=1, s_max=10))
_ORIGIN = origin_params(_SERIES.config.pot)
_GROUND = solve_ground_state(1.0, 2.0, -4.0)

EVALUATORS = {
    "evaluate_solution": lambda r: evaluate_solution(_SERIES, _ORIGIN, r),
    "ode_residual": lambda r: ode_residual(_SERIES, _ORIGIN, r),
    "evaluate_ground_state": lambda r: evaluate_ground_state(_GROUND, r),
    "ground_state_residual": lambda r: ground_state_residual(
        _GROUND, 1.0, 2.0, _GROUND.required_C, -4.0, _GROUND.energy, r),
    "to_full_wavefunction": lambda r: to_full_wavefunction(r, np.ones_like(r), 3),
    "evaluate_terms": lambda r: evaluate_terms(((1.0, 4.0), (-2.0, 1.0)), r),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_evaluators_reject_non_finite_and_non_positive_radii(name, bad):
    # NaN passes a check of the form r <= 0, and r = inf used to give 0.0
    evaluate = EVALUATORS[name]
    assert np.all(np.isfinite(evaluate(np.array([0.5, 1.0]))))
    for r in (bad, np.array([0.5, bad, 1.0])):
        with pytest.raises(DomainError):
            evaluate(r)


def test_counts_must_be_integers():
    pot = PotentialMonomial(1.0, 6.0)
    with pytest.raises(DomainError):
        RadialGrid(0.1, 1.0, 16.0)
    for window in (dict(s_max=40.5), dict(s_max=40.0), dict(s_min=-2.5)):
        with pytest.raises(DomainError):
            SeriesConfig(pot=pot, kappa=1.0, lam=0.5, epsilon=1, **window)
    assert len(RadialGrid(0.1, 1.0, np.int64(16)).nodes()) == 16
    config = SeriesConfig(pot=pot, kappa=1.0, lam=0.5, epsilon=1,
                          s_min=np.int64(-2), s_max=np.int64(20))
    assert len(build_series(config).coefficients) == 23
