import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from invpower import (DegenerateC, DomainError, NotNormalizable,
                      constraint_mismatch, evaluate_ground_state,
                      ground_state_residual, solve_ground_state)


def symbolic_ground_state(A, B, D):
    """Coefficient-matching oracle: substitute k = a/r + b r + c log r into
    k'' + k'^2 and equate inverse powers of r against -E + V - 1/(4 r^2)."""
    r, a, b, c, E, C = sp.symbols("r a b c E C")
    k = a / r + b * r + c * sp.log(r)
    lhs = sp.expand(sp.diff(k, r, 2) + sp.diff(k, r) ** 2)
    rhs = -E + A / r**4 + B / r**3 + C / r**2 + D / r - 1 / (4 * r**2)
    poly = sp.Poly(sp.together(lhs - rhs) * r**4, r)
    equations = [sp.Eq(coef, 0) for coef in poly.all_coeffs()]
    solutions = sp.solve(equations, [a, b, c, E, C], dict=True)
    # pick the normalizable branch: a < 0 and b < 0
    for sol in solutions:
        if sol[a] < 0 and sol[b] < 0:
            return {key: float(value) for key, value in sol.items()}
    raise AssertionError("no normalizable branch found symbolically")


class TestSolve:
    def test_first_family_point(self):
        sol = solve_ground_state(A=1.0, B=2.0, D=-4.0)
        assert sol.a == -1.0
        assert sol.c == 2.0
        assert sol.linear_slope_b == -1.0
        assert sol.energy == -1.0
        assert sol.mu == 1.0
        assert sol.required_C == 0.25

    def test_first_family_point_against_symbolic_oracle(self):
        ref = symbolic_ground_state(1, 2, -4)
        sol = solve_ground_state(1.0, 2.0, -4.0)
        a, b, c, E, C = sp.symbols("a b c E C")
        assert sol.a == pytest.approx(ref[a], rel=1e-12)
        assert sol.linear_slope_b == pytest.approx(ref[b], rel=1e-12)
        assert sol.c == pytest.approx(ref[c], rel=1e-12)
        assert sol.energy == pytest.approx(ref[E], rel=1e-12)
        assert sol.required_C == pytest.approx(ref[C], rel=1e-12)

    def test_second_family_point(self):
        sol = solve_ground_state(A=4.0, B=0.0, D=-2.0)
        assert sol.mu == 0.0
        assert sol.a == -2.0
        assert sol.c == 1.0
        assert sol.linear_slope_b == -1.0
        assert sol.energy == -1.0
        assert sol.required_C == pytest.approx(-3.75, rel=1e-15)

    def test_degenerate_c(self):
        with pytest.raises(DegenerateC):
            solve_ground_state(A=1.0, B=-2.0, D=-1.0)

    def test_not_normalizable(self):
        with pytest.raises(NotNormalizable):
            solve_ground_state(A=1.0, B=2.0, D=4.0)

    def test_positive_d_negative_c_branch(self):
        # D > 0 with c < 0 is the other admissible sign combination
        sol = solve_ground_state(A=1.0, B=-6.0, D=3.0)
        assert sol.c < 0
        assert sol.linear_slope_b < 0
        assert sol.c_negative

    def test_nonpositive_a_rejected(self):
        with pytest.raises(DomainError):
            solve_ground_state(A=0.0, B=1.0, D=-1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            solve_ground_state(A=1.0, B=2.0, D=-math.inf)


class TestEvaluate:
    def test_point_value(self):
        sol = solve_ground_state(1.0, 2.0, -4.0)
        assert evaluate_ground_state(sol, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_decay_at_both_ends(self):
        sol = solve_ground_state(2.0, 1.0, -3.0)
        assert evaluate_ground_state(sol, 1e-4) < 1e-300
        assert evaluate_ground_state(sol, 500.0) < 1e-200

    def test_nodeless(self):
        sol = solve_ground_state(1.0, 0.5, -2.0)
        r = np.geomspace(1e-2, 50.0, 300)
        assert np.all(evaluate_ground_state(sol, r) > 0.0)

    def test_rejects_nonpositive_r(self):
        sol = solve_ground_state(1.0, 2.0, -4.0)
        with pytest.raises(DomainError):
            evaluate_ground_state(sol, -1.0)


class TestResidual:
    def test_exact_solution_desk_points(self):
        sol = solve_ground_state(1.0, 2.0, -4.0)
        for r in (0.1, 1.0, 10.0):
            res = ground_state_residual(sol, 1.0, 2.0, 0.25, -4.0, -1.0, r)
            assert res <= 1e-12

    def test_linear_in_c(self):
        sol = solve_ground_state(1.0, 2.0, -4.0)
        res = ground_state_residual(sol, 1.0, 2.0, 0.25 + 0.5, -4.0, -1.0, 1.0)
        assert res == pytest.approx(0.5, rel=1e-12)

    def test_linear_in_e(self):
        sol = solve_ground_state(1.0, 2.0, -4.0)
        for r in (0.3, 1.0, 5.0):
            res = ground_state_residual(sol, 1.0, 2.0, 0.25, -4.0, -0.75, r)
            assert res == pytest.approx(0.25, rel=1e-12)

    def test_constraint_mismatch_reporting(self):
        assert constraint_mismatch(1.0, 2.0, 0.25, -4.0) == pytest.approx(0.0, abs=1e-15)
        assert constraint_mismatch(1.0, 2.0, 1.25, -4.0) == pytest.approx(1.0, rel=1e-14)


admissible = st.tuples(
    st.floats(min_value=0.05, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=-10.0, max_value=-0.05),
)


@settings(max_examples=60, deadline=None)
@given(params=admissible)
def test_algebraic_relations_random_family(params):
    A, B, D = params
    sol = solve_ground_state(A, B, D)
    a, b, c, E = sol.a, sol.linear_slope_b, sol.c, sol.energy
    C = sol.required_C
    assert a * a == pytest.approx(A, rel=1e-12)
    assert 2.0 * a * (1.0 - c) == pytest.approx(B, rel=1e-12, abs=1e-12)
    assert c * (c - 1.0) - 2.0 * a * b == pytest.approx(C - 0.25, rel=1e-12, abs=1e-12)
    assert 2.0 * b * c == pytest.approx(D, rel=1e-12)
    assert b * b == pytest.approx(-E, rel=1e-12)
    # the two closed forms of the energy agree
    assert -b * b == pytest.approx(-D**2 / (4.0 * (1.0 + sol.mu) ** 2), rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(params=admissible)
def test_residual_random_family(params):
    A, B, D = params
    sol = solve_ground_state(A, B, D)
    r = np.geomspace(1e-2, 1e2, 101)
    res = ground_state_residual(sol, A, B, sol.required_C, D, sol.energy, r)
    assert np.max(res) <= 1e-11


@pytest.mark.parametrize("A,B,D", [(1.0, 2.0, -4.0), (4.0, 0.0, -2.0), (2.5, 7.0, -0.5)])
def test_square_integrability(A, B, D):
    sol = solve_ground_state(A, B, D)

    def density(r):
        return evaluate_ground_state(sol, r) ** 2

    interior = [0.1, 1.0, 10.0, 100.0]
    base, _ = quad(density, 1e-4, 1e3, limit=300, points=interior)
    wider, _ = quad(density, 1e-5, 1e4, limit=300, points=interior)
    assert math.isfinite(base) and base > 0.0
    assert abs(wider - base) <= 1e-3 * base
