"""Input validation shared across modules: radii, potential terms, integer
counts and the oracle's parameters."""

import math

import numpy as np
import pytest

from invpower import (Direction, DomainError, PotentialMonomial, RadialGrid,
                      SeriesConfig, Spacing, build_series, constraint_mismatch,
                      evaluate_ground_state, evaluate_solution, evaluate_terms,
                      ground_state_residual, integrate_radial, ode_residual,
                      origin_params, shoot_ground_energy, solve_ground_state)

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


@pytest.mark.parametrize("terms", [((math.nan, 4.0),), ((1.0, math.inf),),
                                   ((1.0, 4.0), (-math.inf, 2.0)), ((1.0, math.nan),)],
                         ids=["strength-nan", "power-inf", "second-strength-inf",
                              "power-nan"])
def test_evaluate_terms_rejects_non_finite_terms(terms):
    # a NaN strength would give NaN everywhere, and an infinite power 1 at
    # r = 1 and 0 elsewhere
    with pytest.raises(DomainError, match="terms must be finite"):
        evaluate_terms(terms, np.array([1.0, 2.0]))


@pytest.mark.parametrize("spacing", list(Spacing))
@pytest.mark.parametrize("kappa, lam, name", [(math.nan, 0.5, "kappa"), (1.0, math.inf, "lam"),
                                              (-math.inf, 0.5, "kappa"), (1.0, math.nan, "lam")])
def test_integrate_radial_rejects_non_finite_kappa_and_lam(kappa, lam, name, spacing):
    # without the check, kappa = NaN overflows the sweep and lam = inf makes
    # the grid look too coarse
    grid = RadialGrid(0.1, 1.0, 100, spacing)
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        integrate_radial(((1.0, 4.0),), kappa, lam, grid, Direction.OUTWARD, (1.0, 1.1))


@pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf])
def test_shoot_rejects_a_tolerance_it_cannot_meet_or_check(tolerance):
    # |defect| <= tolerance never holds for a tolerance <= 0
    terms = ((1.0, 4.0), (2.0, 3.0), (0.25, 2.0), (-4.0, 1.0))
    grid = RadialGrid(0.08, 50.0, 2_000, Spacing.LOG)
    with pytest.raises(DomainError, match="tolerance"):
        shoot_ground_energy(terms, (-2.0, -0.5), grid, tolerance=tolerance)


@pytest.mark.parametrize("bracket", [(-math.inf, -0.5), (math.nan, -0.5), (-2.0, math.nan)],
                         ids=["e_lo-inf", "e_lo-nan", "e_hi-nan"])
def test_shoot_rejects_a_non_finite_bracket_end(bracket):
    # -inf < E_hi < 0 holds, so the bracket rule alone would let E_lo = -inf
    # reach the sweep, which would blame the grid
    terms = ((1.0, 4.0), (2.0, 3.0), (0.25, 2.0), (-4.0, 1.0))
    grid = RadialGrid(0.08, 50.0, 2_000, Spacing.LOG)
    name = "e_lo" if not math.isfinite(bracket[0]) else "e_hi"
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        shoot_ground_energy(terms, bracket, grid)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["A", "B", "C", "D", "E"])
def test_ground_state_checks_reject_non_finite_coefficients(name, bad):
    # inf <= guard * inf holds, so unchecked an infinite coefficient reads as
    # an exact fit (residual 0); NaN gives a NaN residual and mismatch
    coefficients = dict(A=1.0, B=2.0, C=_GROUND.required_C, D=-4.0, E=_GROUND.energy)
    coefficients[name] = bad
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        ground_state_residual(_GROUND, r=np.array([0.5, 1.0, 2.0]), **coefficients)
    if name == "C":
        with pytest.raises(DomainError, match="^C must be finite"):
            constraint_mismatch(1.0, 2.0, bad, -4.0)
