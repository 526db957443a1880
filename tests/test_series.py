import cmath
import copy
import math
import pickle
import random
import tracemalloc

import numpy as np
import pytest
import sympy as sp

from invpower import (ConfigurationError, DomainError, NoConvergence,
                      PotentialMonomial, SeriesConfig, SeriesSolution, Strategy,
                      build_series, evaluate_solution, ode_residual, origin_params,
                      recurrence_residual, special_p)
from invpower import series


def sym_recurrence_row(coeffs, s, alpha, beta, kappa, lam, eps):
    """Row s of the coefficient recurrence, derived from the radial equation.

    Each ansatz term y_n = exp(-gamma r^-delta + i eps sqrt(kappa) r)
    r^(beta/4) r^n, with the origin conditions delta = beta/2 - 1 and
    gamma delta = sqrt(alpha), is substituted into
    y'' + (kappa - alpha r^-beta - (lam^2 - 1/4)/r^2) y.  Divided by the common
    factor exp(...) r^(beta/4), that leaves a finite sum of c_k(n) r^(n+k);
    row s collects the coefficient of r^s, i.e. the sum over k of
    c_k(s-k) a_(s-k).  Returns a sympy expression in the given coefficients.
    """
    r = sp.symbols("r", positive=True)
    n = sp.symbols("n", integer=True)
    a, be, k, L = (sp.Rational(v) for v in (alpha, beta, kappa, lam))
    delta = be / 2 - 1
    gamma = sp.sqrt(a) / delta
    y = sp.exp(-gamma * r**(-delta) + sp.I * eps * sp.sqrt(k) * r) * r**(be / 4 + n)
    lhs = sp.diff(y, r, 2) + (k - a * r**(-be) - (L**2 - sp.Rational(1, 4)) / r**2) * y
    reduced = sp.expand(sp.powsimp(sp.expand(lhs / y)))
    row = sp.Integer(0)
    for power, c in sp.collect(reduced, r, evaluate=False).items():
        shift = 0 if power == 1 else power.as_base_exp()[1]
        row += c.subs(n, s - shift) * coeffs.get(int(s - shift), 0)
    return row


def desk_config(beta=6.0, alpha=1.0, kappa=1.0, lam=0.5, eps=1, s_min=0, s_max=40,
                strategy=Strategy.ONE_SIDED):
    return SeriesConfig(pot=PotentialMonomial(alpha, beta), kappa=kappa, lam=lam,
                        epsilon=eps, s_min=s_min, s_max=s_max, strategy=strategy)


def manual_solution(coeffs, config):
    return SeriesSolution(omega=special_p(config.pot.beta),
                          coefficients=dict(coeffs), config=config,
                          normalization_index=0)


class TestOmega:
    def test_beta4_recovers_one(self):
        assert special_p(4.0) == 1.0

    def test_beta8(self):
        assert special_p(8.0) == 2.0

    def test_odd_beta_is_polydromic(self):
        omega = special_p(5.0)
        assert omega == 1.25
        assert not omega.is_integer()

    def test_small_beta_rejected(self):
        with pytest.raises(DomainError):
            special_p(2.0)

    def test_dominant_singularity_coefficient_vanishes(self):
        # sqrt(alpha) (2 omega - beta/2) must be exactly zero
        for beta in (4.0, 6.0, 8.0, 10.0):
            omega = special_p(beta)
            assert math.sqrt(2.0) * (2.0 * omega - beta / 2.0) == 0.0


class TestRecurrenceResidual:
    def test_all_zero_is_homogeneous(self):
        config = desk_config()
        for s in (-5, -3, 0, 7):
            assert recurrence_residual({}, s, config) == 0

    def test_hand_case_beta6(self):
        # at s = -3 the relation reads 2 a_1 + 2i a_0 = 0
        config = desk_config()
        assert recurrence_residual({0: 1.0, 1: -1j}, -3, config) == pytest.approx(0.0, abs=1e-15)
        assert recurrence_residual({0: 1.0, 1: 1j}, -3, config) == pytest.approx(4j, rel=1e-15)

    @pytest.mark.parametrize("s", [-4, -3, -2, -1, 0, 1])
    def test_matches_symbolic_oracle(self, s):
        coeffs = {0: 1.0, 1: -1j, 2: 0.8125, 3: 0.5 - 0.25j}
        config = desk_config()
        expected = complex(sp.N(sym_recurrence_row(coeffs, s, 1, 6, 1, sp.Rational(1, 2), 1)))
        assert recurrence_residual(coeffs, s, config) == pytest.approx(expected, abs=1e-13)


class TestBuildOneSided:
    def test_beta6_leading_coefficients(self):
        sol = build_series(desk_config(s_max=10))
        assert sol.coefficients[0] == 1.0
        assert sol.coefficients[1] == -1j
        # s = -2 row of the ODE: (1 - lam^2) a_0 + 2i eps sqrt(alpha kappa) a_1
        # + 4 sqrt(alpha) a_2 = 0, so 3/4 + 2 + 4 a_2 = 0
        assert sol.coefficients[2] == -11.0 / 16.0
        assert sol.normalization_index == 0

    def test_beta4_first_coefficient_from_symbolic_oracle(self):
        config = desk_config(beta=4.0, s_max=8)
        sol = build_series(config)
        # solve the ODE-derived s = -2 relation symbolically for a_1; the a_0
        # factor (0+1)(-1+1) - 0 vanishes, so the row reads 2 a_1 + 2i = 0
        a1 = sp.symbols("a1")
        row = sym_recurrence_row({0: 1, 1: a1}, -2, 1, 4, 1, sp.Rational(1, 2), 1)
        expected = complex(sp.solve(row, a1)[0])
        assert expected == -1j
        assert sol.coefficients[1] == pytest.approx(expected, rel=1e-15)

    def test_negative_window_entries_are_zero(self):
        sol = build_series(desk_config(s_min=-5, s_max=10))
        for s in range(-5, 0):
            assert sol.coefficients[s] == 0

    def test_all_defining_relations_satisfied(self):
        config = desk_config(beta=8.0, alpha=0.5, lam=1.0, s_max=30)
        sol = build_series(config)
        b = config.half_beta
        for s in range(-b - 1, config.s_max - b):
            res = recurrence_residual(sol.coefficients, s, config)
            scale = max(abs(sol.coefficients.get(i, 0.0)) * abs(c)
                        for i, c in [(s + b + 1, 2 * math.sqrt(0.5) * (s + b + 1)),
                                     (s + 2, (s + 2) * (s + 1))])
            assert abs(res) <= 1e-12 * max(1.0, scale)

    def test_odd_beta_rejected(self):
        with pytest.raises(ConfigurationError, match="even"):
            desk_config(beta=5.0)

    def test_narrow_window_rejected(self):
        with pytest.raises(DomainError):
            desk_config(s_max=2)


class TestBuildWindowed:
    def test_matches_one_sided_up_to_scale(self):
        one = build_series(desk_config(s_min=-5, s_max=10))
        win = build_series(desk_config(s_min=-5, s_max=10, strategy=Strategy.WINDOWED))
        scale = win.coefficients[0]
        assert scale != 0
        for s in range(-5, 11):
            rescaled = win.coefficients[s] / scale
            assert rescaled == pytest.approx(one.coefficients[s], rel=1e-8, abs=1e-8)

    def test_normalization_largest_is_one(self):
        win = build_series(desk_config(s_min=-5, s_max=10, strategy=Strategy.WINDOWED))
        mags = [abs(v) for v in win.coefficients.values()]
        assert max(mags) == pytest.approx(1.0, rel=1e-12)
        assert abs(win.coefficients[win.normalization_index]) == pytest.approx(1.0, rel=1e-12)

    def test_interior_recurrence_holds(self):
        config = desk_config(s_min=-5, s_max=10, strategy=Strategy.WINDOWED)
        win = build_series(config)
        b = config.half_beta
        for s in range(config.s_min - 1, config.s_max - b):
            res = recurrence_residual(win.coefficients, s, config)
            scale = max(abs(c) * abs(win.coefficients.get(i, 0.0))
                        for i, c in [(s + b + 1, 2.0 * (s + b + 1)),
                                     (s + 2, (s + 2) * (s + 1) + 4.0)])
            assert abs(res) <= 1e-10 * max(1.0, scale)

    @pytest.mark.parametrize("s_min, s_max", [(-5, 10), (-5, 16), (0, 20)])
    def test_matches_svd_null_vector(self, s_min, s_max):
        # reference: the window system assembled column by column from unit
        # vectors, its null vector taken by SVD
        config = desk_config(s_min=s_min, s_max=s_max, strategy=Strategy.WINDOWED)
        b = config.half_beta
        window = range(s_min, s_max + 1)
        matrix = np.array([[recurrence_residual({j: 1.0}, s, config) for j in window]
                           for s in range(s_min - b - 1, s_max - b)])
        null = np.linalg.svd(matrix)[2][-1].conj()
        null = null / np.max(np.abs(null))
        win = build_series(config)
        got = np.array([win.coefficients[j] for j in window])
        phase = null[win.normalization_index - s_min] / got[win.normalization_index - s_min]
        assert abs(phase) == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(null - phase * got)) <= 1e-9


def forward_solve_reference(config):
    """The forward solve one shift at a time through _recurrence_terms:
    (coefficients, normalization index), or the index that overflowed."""
    b = config.half_beta
    a = {s: 0.0 + 0.0j for s in range(config.s_min, 0)}
    a[0] = 1.0 + 0.0j
    for s in range(-b, config.s_max - b):
        (d, pivot), *rest = series._recurrence_terms(s, config)
        a[d] = -sum(c * a.get(i, 0.0) for i, c in rest) / pivot
        if not cmath.isfinite(a[d]):
            return d
    top = 0
    if config.strategy is Strategy.WINDOWED:
        top = max(a, key=lambda s: abs(a[s]))
        a = {s: c / a[top] for s, c in a.items()}
    return a, top


def random_configs(count, seed=14):
    rng = random.Random(seed)
    for k in range(count):
        beta = rng.choice((4, 6, 8, 10, 12))
        lam = rng.uniform(0.0, 3.0)
        assert (2.0 * lam) % 1.0 != 0.0
        windowed = k % 2 == 1
        s_min = rng.randint(-8, 0) if windowed else 0
        yield desk_config(beta=float(beta), alpha=rng.uniform(0.1, 4.0),
                          kappa=rng.uniform(0.1, 4.0), lam=lam, eps=rng.choice((1, -1)),
                          s_min=s_min, s_max=rng.randint(beta // 2 + 1, 80),
                          strategy=Strategy.WINDOWED if windowed else Strategy.ONE_SIDED)


def test_build_matches_the_shift_by_shift_solve_to_the_bit():
    for config in random_configs(240):
        coeffs, top = forward_solve_reference(config)
        sol = build_series(config)
        assert list(sol.coefficients) == list(coeffs)
        assert [repr(c) for c in sol.coefficients.values()] == [repr(c) for c in coeffs.values()]
        assert sol.normalization_index == top


@pytest.mark.parametrize("alpha, s_max, index", [(1e-300, 40, 6), (1.0, 10**6, 342)])
def test_overflow_names_the_same_coefficient(alpha, s_max, index):
    config = desk_config(alpha=alpha, s_max=s_max)
    assert forward_solve_reference(config) == index
    tracemalloc.start()
    try:
        with pytest.raises(NoConvergence, match=f"coefficient a_{index} overflowed"):
            build_series(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the solve stops at the overflow: nothing is allocated by s_max
    assert peak < 1_000_000


def scale_relative_residual(sol, r):
    """|y'' + f y| / max(|y''|, |f y|) with y'' from a fourth-order central
    stencil of step 1e-4 r; unlike ode_residual it is meaningful where
    |y| << 1."""
    cfg = sol.config
    origin = origin_params(cfg.pot)
    h = 1e-4 * r
    ym2, ym1, y, yp1, yp2 = (evaluate_solution(sol, origin, r + k * h)
                             for k in (-2, -1, 0, 1, 2))
    ypp = (-ym2 + 16.0 * ym1 - 30.0 * y + 16.0 * yp1 - yp2) / (12.0 * h * h)
    f = cfg.kappa - cfg.pot.alpha * r ** (-cfg.pot.beta) - (cfg.lam ** 2 - 0.25) / r ** 2
    return float(np.max(np.abs(ypp + f * y) / np.maximum(np.abs(ypp), np.abs(f * y))))


@pytest.mark.parametrize("s_min, s_max", [(0, 40), (-10, 40)])
def test_windowed_wide_window_is_scaled_one_sided(s_min, s_max):
    # a dense SVD of these windows loses a_0 to rounding, with scale-relative
    # residuals of 0.12 and 0.59; the forward solve keeps it
    one = build_series(desk_config(s_min=s_min, s_max=s_max))
    win = build_series(desk_config(s_min=s_min, s_max=s_max, strategy=Strategy.WINDOWED))
    top = max(one.coefficients, key=lambda s: abs(one.coefficients[s]))
    assert win.normalization_index == top
    for s, value in one.coefficients.items():
        assert win.coefficients[s] == pytest.approx(value / one.coefficients[top],
                                                    rel=1e-14, abs=1e-300)
    assert scale_relative_residual(win, np.linspace(0.05, 0.2, 200)) <= 1e-6


def interleaved_sums_reference(sol, r):
    """S, S' and S'' as three Horner chains advanced together in one loop
    over the coefficients, from the most negative power upward."""
    items = sorted(sol.coefficients.items())
    powers = np.array([s for s, _ in items], dtype=float) + sol.omega
    coeffs = np.array([c for _, c in items], dtype=complex)
    s0 = s1 = s2 = np.zeros(r.shape, dtype=complex)
    for c, w in zip(coeffs[::-1], powers[::-1]):
        s0 = s0 * r + c
        s1 = s1 * r + c * w
        s2 = s2 * r + c * w * (w - 1.0)
    base = r ** powers[0]
    return base * s0, base * s1 / r, base * s2 / r**2


@pytest.mark.parametrize("beta, s_max", [(4.0, 8), (6.0, 40), (10.0, 25), (8.0, 64), (4.0, 80)])
def test_sigma_sums_match_interleaved_reference(beta, s_max):
    # the evaluator sums the terms directly, not by Horner's rule, so the two
    # agree to rounding rather than to the last bit (worst 7.8e-15 here)
    sol = build_series(desk_config(beta=beta, lam=1.5, eps=-1, s_max=s_max))
    origin = origin_params(sol.config.pot)
    r = np.linspace(0.03, 0.6, 97)
    reference = interleaved_sums_reference(sol, r)
    _, _, envelope, sums = series._series_values(sol, origin, r, 2)
    for got, want in zip(sums, reference):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    sqk = math.sqrt(sol.config.kappa)
    y = (np.exp(-origin.gamma * r ** (-origin.delta))
         * np.exp(1j * sol.config.epsilon * sqk * r) * reference[0])
    np.testing.assert_allclose(evaluate_solution(sol, origin, r), y, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("beta, s_max", [(6.0, 40), (4.0, 80)])
def test_power_matrix_on_many_radii(beta, s_max):
    # the powers come from repeated squaring, not one pow per element
    sol = build_series(desk_config(beta=beta, s_max=s_max))
    r = np.geomspace(0.05, 0.2, 4000)
    _, _, _, sums = series._series_values(sol, origin_params(sol.config.pot), r, 2)
    for got, want in zip(sums, interleaved_sums_reference(sol, r)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("beta", [4.0, 6.0])
def test_no_power_beyond_the_last_row_is_formed(beta):
    # r^16 is finite at r = 1e10 and r^32 is not: a squaring past the last
    # row used would overflow and warn
    sol = build_series(desk_config(beta=beta, s_max=16))
    origin = origin_params(sol.config.pot)
    r = np.array([1e10, 3e9])
    y = evaluate_solution(sol, origin, r)
    res = ode_residual(sol, origin, r)
    assert np.all(np.isfinite(y)) and np.all(np.abs(y) > 0.0)
    assert np.all((0.0 <= res) & (res <= 2.0))


def test_evaluations_of_one_solution_are_identical():
    # the evaluation arrays are formed once, when the solution is made
    sol = build_series(desk_config(beta=8.0, lam=1.0, s_max=30))
    origin = origin_params(sol.config.pot)
    r = np.geomspace(0.05, 0.2, 200)
    for fn in (evaluate_solution, ode_residual):
        first, second = fn(sol, origin, r), fn(sol, origin, r)
        assert np.array_equal(first, second)


def test_coefficients_cannot_change_behind_the_arrays():
    coeffs = {0: 1.0, 1: -1j, 2: 13.0 / 16.0}
    sol = SeriesSolution(omega=1.5, coefficients=coeffs, config=desk_config(s_max=10),
                         normalization_index=0)
    origin = origin_params(sol.config.pot)
    before = evaluate_solution(sol, origin, 0.3)
    with pytest.raises(TypeError):
        sol.coefficients[1] = 5.0
    coeffs[1] = 5.0  # the solution holds its own copy
    assert sol.coefficients[1] == -1j
    assert evaluate_solution(sol, origin, 0.3) == before
    for twin in (pickle.loads(pickle.dumps(sol)), copy.deepcopy(sol)):
        assert twin == sol and evaluate_solution(twin, origin, 0.3) == before


def test_scalar_and_shaped_radii():
    # a scalar r gives a Python scalar; an array keeps its shape.  Matrix
    # products of different shapes may sum in different orders, so values
    # agree to rounding: the residual is scale-relative, so to 1e-15 absolute
    sol = build_series(desk_config(s_max=20))
    origin = origin_params(sol.config.pot)
    y, res = evaluate_solution(sol, origin, 0.1), ode_residual(sol, origin, 0.1)
    assert type(y) is complex and type(res) is float
    assert y == pytest.approx(evaluate_solution(sol, origin, np.array([0.1]))[0], rel=1e-13)
    assert res == pytest.approx(ode_residual(sol, origin, np.array([0.1]))[0], abs=1e-15)
    for shape in ((2, 3), (3, 1)):
        flat = np.linspace(0.05, 0.2, np.prod(shape))
        for fn in (evaluate_solution, ode_residual):
            got = fn(sol, origin, flat.reshape(shape))
            assert got.shape == shape
            np.testing.assert_allclose(got.ravel(), fn(sol, origin, flat),
                                       rtol=1e-13, atol=1e-15 if fn is ode_residual else 0.0)


class TestEvaluate:
    def test_single_term_beta4(self):
        config = desk_config(beta=4.0, s_max=8)
        sol = manual_solution({0: 1.0}, config)
        origin = origin_params(config.pot)
        value = evaluate_solution(sol, origin, 1.0)
        assert value == pytest.approx(cmath.exp(-1.0) * cmath.exp(1j), rel=1e-14)

    def test_beta6_three_terms_at_r1(self):
        config = desk_config(s_max=10)
        sol = manual_solution({0: 1.0, 1: -1j, 2: 13.0 / 16.0}, config)
        origin = origin_params(config.pot)
        expected = cmath.exp(-0.5) * cmath.exp(1j) * (1.0 - 1j + 13.0 / 16.0)
        assert evaluate_solution(sol, origin, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_epsilon_conjugation(self):
        plus = build_series(desk_config(s_max=20))
        minus = build_series(desk_config(eps=-1, s_max=20))
        for s, value in plus.coefficients.items():
            assert minus.coefficients[s] == pytest.approx(value.conjugate(), rel=1e-13, abs=1e-300)
        origin = origin_params(plus.config.pot)
        for r in (0.1, 0.3, 1.0):
            assert evaluate_solution(minus, origin, r) == pytest.approx(
                evaluate_solution(plus, origin, r).conjugate(), rel=1e-13)

    def test_rejects_nonpositive_r(self):
        sol = build_series(desk_config(s_max=10))
        origin = origin_params(sol.config.pot)
        with pytest.raises(DomainError):
            evaluate_solution(sol, origin, 0.0)

    def test_rejects_mismatched_origin(self):
        sol = build_series(desk_config(s_max=10))
        wrong = origin_params(PotentialMonomial(1.0, 4.0))
        with pytest.raises(DomainError):
            evaluate_solution(sol, wrong, 1.0)

    def test_rejects_origin_of_another_alpha(self):
        # same beta, so delta agrees; only gamma tells the potentials apart
        sol = build_series(desk_config(s_max=10))
        wrong = origin_params(PotentialMonomial(4.0, 6.0))
        with pytest.raises(DomainError):
            evaluate_solution(sol, wrong, 0.1)
        with pytest.raises(DomainError):
            ode_residual(sol, wrong, 0.1)


class TestOdeResidual:
    def test_zero_solution(self):
        config = desk_config(s_max=10)
        sol = manual_solution({0: 0.0}, config)
        assert ode_residual(sol, origin_params(config.pot), 1.0) == 0.0

    def test_beta4_exact_form_small_r(self):
        # single-term series is the exact near-origin form; the residual is
        # dominated by the neglected kappa and centrifugal terms
        config = desk_config(beta=4.0, lam=0.5, s_max=8)
        sol = manual_solution({0: 1.0}, config)
        origin = origin_params(config.pot)
        r = 1e-3
        y = abs(evaluate_solution(sol, origin, r))
        bound = (abs(config.kappa) + abs(config.lam**2 - 0.25) / r**2) * y
        assert ode_residual(sol, origin, r) <= 3.0 * bound + 1e-250

    def test_residual_tiny_near_origin(self):
        sol = build_series(desk_config(s_max=40))
        origin = origin_params(sol.config.pot)
        assert ode_residual(sol, origin, 0.1) < 1e-15

    def test_truncation_convergence_in_validity_region(self):
        # within the empirical validity region the residual must not grow
        # (beyond a 10x noise allowance) as the truncation order increases
        origin = origin_params(PotentialMonomial(1.0, 6.0))
        for r in (0.05, 0.1, 0.2):
            residuals = [ode_residual(build_series(desk_config(s_max=n)), origin, r)
                         for n in (10, 20, 40)]
            assert residuals[1] <= 10.0 * residuals[0] + 1e-250
            assert residuals[2] <= 10.0 * residuals[1] + 1e-250

    @pytest.mark.parametrize("beta, lam, eps", [(4.0, 0.5, 1), (4.0, 1.5, -1), (6.0, 0.0, -1),
                                                (6.0, 1.0, 1), (8.0, 1.5, 1)])
    def test_matches_the_three_power_formula(self, beta, lam, eps):
        # r^(-delta-1), r^(-delta-2) and r^-beta come from r^-delta and 1/r;
        # the same residual with each taken as its own power
        sol = build_series(desk_config(beta=beta, lam=lam, eps=eps, s_max=40))
        origin = origin_params(sol.config.pot)
        r = np.geomspace(0.05, 0.2, 4000)
        _, _, envelope, (s0, s1, s2) = series._series_values(sol, origin, r, 2)
        cfg, gamma, delta = sol.config, origin.gamma, origin.delta
        g1 = gamma * delta * r ** (-delta - 1.0) + 1j * eps * math.sqrt(cfg.kappa)
        g2 = -gamma * delta * (delta + 1.0) * r ** (-delta - 2.0)
        y = envelope * s0
        ypp = envelope * (s2 + 2.0 * g1 * s1 + (g2 + g1 * g1) * s0)
        f = cfg.kappa - cfg.pot.alpha * r ** (-beta) - (lam**2 - 0.25) / r**2
        scale = np.maximum(np.abs(ypp), np.abs(f * y))  # 0 where y underflows
        want = np.abs(ypp + f * y) / np.where(scale > 0.0, scale, 1.0)
        np.testing.assert_allclose(ode_residual(sol, origin, r), want, rtol=0.0, atol=1e-14)

    def test_asymptotic_divergence_outside_validity_region(self):
        # the coefficients grow factorially: far from the origin the
        # truncated series stops being a solution at all.  The residual is
        # relative to max(|y''|, |f y|), so it is at most 2; above 0.5, y''
        # and f y do not even cancel to half of the larger one
        sol = build_series(desk_config(s_max=40))
        origin = origin_params(sol.config.pot)
        assert ode_residual(sol, origin, 1.0) > 0.5
