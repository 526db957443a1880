import json
import math

import numpy as np
import pytest

from invpower import oracle
from invpower import (BracketError, Direction, DomainError,
                      IntegrationDiverged, NoConvergence, RadialGrid, Spacing,
                      evaluate_ground_state, evaluate_terms,
                      finite_difference_residual,
                      integrate_radial, shoot_ground_energy,
                      solve_ground_state)
from invpower.cli import main

FREE_LAM = 0.5  # makes the centrifugal term vanish


class TestGrid:
    def test_nodes_uniform(self):
        grid = RadialGrid(0.1, 10.0, 100)
        r = grid.nodes()
        assert r[0] == 0.1 and r[-1] == 10.0
        assert np.allclose(np.diff(r), r[1] - r[0])

    def test_nodes_log(self):
        r = RadialGrid(0.1, 10.0, 100, Spacing.LOG).nodes()
        assert np.allclose(np.diff(np.log(r)), np.log(r[1] / r[0]))

    def test_nodes_are_linspace_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for _ in range(20_000):
            r_min = 10.0 ** rng.uniform(-3.0, 1.0)
            r_max = r_min + 10.0 ** rng.uniform(-3.0, 2.0)
            n = int(rng.integers(16, 400))
            assert np.array_equal(RadialGrid(r_min, r_max, n).nodes(),
                                  np.linspace(r_min, r_max, n))
            if n % 10 == 0:
                r = np.exp(np.linspace(math.log(r_min), math.log(r_max), n))
                r[0], r[-1] = r_min, r_max
                assert np.array_equal(RadialGrid(r_min, r_max, n, Spacing.LOG).nodes(), r)

    @pytest.mark.parametrize("bad", [
        dict(r_min=0.0, r_max=1.0, n_points=32),
        dict(r_min=1.0, r_max=0.5, n_points=32),
        dict(r_min=0.1, r_max=1.0, n_points=8),
        dict(r_min=0.1, r_max=math.nan, n_points=32),
    ])
    def test_invalid_grids(self, bad):
        with pytest.raises(DomainError):
            RadialGrid(**bad)


class TestIntegrate:
    def test_free_sine(self):
        grid = RadialGrid(0.1, 10.0, 10_000)
        r = grid.nodes()
        y = integrate_radial((), 1.0, FREE_LAM, grid, Direction.OUTWARD,
                             (math.sin(r[0]), math.sin(r[1])))
        assert np.max(np.abs(y - np.sin(r))) <= 1e-8

    def test_free_sine_inward(self):
        grid = RadialGrid(0.1, 10.0, 10_000)
        r = grid.nodes()
        y = integrate_radial((), 1.0, FREE_LAM, grid, Direction.INWARD,
                             (math.sin(r[-1]), math.sin(r[-2])))
        assert np.max(np.abs(y - np.sin(r))) <= 1e-8

    def test_decaying_exponential(self):
        # integrate in the stable (inward) direction: outward integration
        # of a decaying mode is contaminated by the growing solution
        grid = RadialGrid(0.1, 10.0, 10_000)
        r = grid.nodes()
        y = integrate_radial((), -1.0, FREE_LAM, grid, Direction.INWARD,
                             (math.exp(-r[-1]), math.exp(-r[-2])))
        assert np.max(np.abs(y - np.exp(-r))) <= 1e-8

    def test_log_grid_one_step(self):
        grid = RadialGrid(0.1, 10.0, 20_000, Spacing.LOG)
        r = grid.nodes()
        y = integrate_radial((), 1.0, FREE_LAM, grid, Direction.OUTWARD,
                             (math.sin(r[0]), math.sin(r[1])))
        assert np.max(np.abs(y - np.sin(r))) <= 1e-8

    def test_log_grid_inward(self):
        grid = RadialGrid(0.1, 10.0, 20_000, Spacing.LOG)
        r = grid.nodes()
        y = integrate_radial((), 1.0, FREE_LAM, grid, Direction.INWARD,
                             (math.sin(r[-1]), math.sin(r[-2])))
        assert np.max(np.abs(y - np.sin(r))) <= 1e-8

    def test_fourth_order_convergence(self):
        def max_error(n):
            grid = RadialGrid(0.1, 10.0, n)
            r = grid.nodes()
            y = integrate_radial((), 1.0, FREE_LAM, grid, Direction.OUTWARD,
                                 (math.sin(r[0]), math.sin(r[1])))
            return np.max(np.abs(y - np.sin(r)))

        ratio = max_error(641) / max_error(1281)
        assert 12.0 <= ratio <= 20.0

    def test_ground_state_reference(self):
        sol = solve_ground_state(1.0, 2.0, -4.0)
        terms = ((1.0, 4.0), (2.0, 3.0), (0.25, 2.0), (-4.0, 1.0))
        grid = RadialGrid(0.1, 10.0, 60_000)
        r = grid.nodes()
        ref = evaluate_ground_state(sol, r)
        y = integrate_radial(terms, sol.energy, 0.0, grid, Direction.OUTWARD,
                             (ref[0], ref[1]))
        rel = np.abs(y - ref) / np.maximum(np.abs(ref), np.max(ref) * 1e-6)
        # the tail picks up a little growing-mode contamination, so the
        # tolerance is looser than pure discretization error would suggest
        assert np.max(rel) <= 1e-6

    def test_bad_seeds(self):
        grid = RadialGrid(0.1, 10.0, 100)
        with pytest.raises(DomainError):
            integrate_radial((), 1.0, FREE_LAM, grid, Direction.OUTWARD, (0.0, 0.0))

    @pytest.mark.parametrize("spacing", [Spacing.UNIFORM, Spacing.LOG], ids=["uniform", "log"])
    @pytest.mark.parametrize("direction", [Direction.OUTWARD, Direction.INWARD],
                             ids=["outward", "inward"])
    def test_divergence_reported(self, direction, spacing):
        # the exact solution exp(+-r) grows along the sweep and passes the
        # 1e250 overflow limit well before the far end of the grid
        grid = RadialGrid(0.1, 700.0, 20_000, spacing)
        r = grid.nodes()
        log_y = r - 5.0 if direction is Direction.OUTWARD else r[-1] - r
        first = (0, 1) if direction is Direction.OUTWARD else (-1, -2)
        with pytest.raises(IntegrationDiverged) as info:
            integrate_radial((), -1.0, FREE_LAM, grid, direction,
                             (math.exp(log_y[first[0]]), math.exp(log_y[first[1]])))
        i = info.value.last_index
        assert info.value.last_r == r[i]
        # the report names the real radius where |y| reaches the limit (a
        # log-grid sweep checks r^(-1/2) y, a few e-folds off)
        assert log_y[i] == pytest.approx(math.log(1e250), abs=5.0)


def _numerov_reference(x, g, u0, u1):
    """The Numerov step written out on arrays, element by element."""
    h2 = (x[1] - x[0]) ** 2 / 12.0
    u = np.empty(len(x))
    u[0], u[1] = u0, u1
    for i in range(1, len(x) - 1):
        u[i + 1] = ((2.0 + 10.0 * h2 * g[i]) * u[i]
                    - (1.0 - h2 * g[i - 1]) * u[i - 1]) / (1.0 - h2 * g[i + 1])
        if abs(u[i + 1]) > oracle._OVERFLOW_LIMIT:
            u[: i + 2] /= oracle._OVERFLOW_LIMIT
    return u


def _assert_close(u, ref, rtol):
    assert np.all(np.sign(u) == np.sign(ref))
    assert np.all(np.abs(u - ref) <= rtol * np.abs(ref))


def _sweep(x, g, u0=1.0, u1=1.1):
    """One sweep of the kernel along x as given, which may decrease."""
    (u,), _ = oracle._numerov(x, g, x, [(slice(None), u0, u1)], raise_on_overflow=False)
    return u


@pytest.mark.parametrize("seed", range(4))
def test_numerov_matches_array_reference(seed):
    # the blocked difference-form kernel rounds differently from the
    # three-term reference, so the two agree to rounding, at every node and
    # through the overflow rescaling too
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 20.0, 3_000)[:: 1 if seed % 2 else -1]
    g = rng.uniform(-50.0, 5_000.0, x.size)  # grows by about e^1000
    _assert_close(_sweep(x, g), _numerov_reference(x, g, 1.0, 1.1), 1e-12)


@pytest.mark.parametrize("direction", [1, -1], ids=["increasing", "decreasing"])
@pytest.mark.parametrize("low, high", [(-100.0, -10.0), (-200.0, 200.0)],
                         ids=["oscillatory", "mixed-sign"])
def test_numerov_sign_changing_g(low, high, direction):
    # rounding moves the phase of an oscillating solution a little, so the
    # error is measured against the amplitude, not node by node
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 20.0, 3_000)[::direction]
    g = rng.uniform(low, high, x.size)
    u, ref = _sweep(x, g), _numerov_reference(x, g, 1.0, 1.1)
    assert np.max(np.abs(u - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [16, 17, 21, 100, 101, 1_001])
def test_numerov_block_lengths_and_padding(n):
    # n = 16 is the shortest grid, in blocks of 2 steps; the other lengths
    # leave the last block part padding
    steps = oracle._block_length(n - 2)
    if n == 16:
        assert steps == 2
    else:
        assert (n - 2) % steps != 0
    rng = np.random.default_rng(n)
    x = np.linspace(0.0, 2.0, n)
    g = rng.uniform(-5.0, 50.0, n)
    _assert_close(_sweep(x, g), _numerov_reference(x, g, 1.0, 1.1), 1e-12)


def test_numerov_stacked_sweeps_match_single_sweeps():
    # one call cuts both sweeps into blocks of a common length, each with
    # its own stitch chain
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, 20.0, 2_000)
    g = rng.uniform(0.0, 50.0, x.size)
    sweeps = [(slice(0, 900, 1), 1.0, 1.1), (slice(None, 894, -1), 2.0, 2.5)]
    stacked, _ = oracle._numerov(x, g, x, sweeps, raise_on_overflow=False)
    for u, (span, u0, u1) in zip(stacked, sweeps):
        # the kernel returns grid order, _sweep the order of travel
        _assert_close(u, _sweep(x[span], g[span], u0, u1)[::span.step], 1e-13)


def test_numerov_counts_rescales():
    x = np.linspace(0.0, 20.0, 3_000)
    g = np.full(x.size, 2_500.0)  # u grows like e^(50 x), past e^1000
    (u,), rescales = oracle._numerov(x, g, x, [(slice(None), 1.0, 1.1)],
                                     raise_on_overflow=False)
    assert rescales == 1
    _assert_close(u, _numerov_reference(x, g, 1.0, 1.1), 1e-12)


def test_numerov_reports_the_last_finite_node():
    # h^2 g / 12 = 0.7: u grows about 30-fold per step, 1e84 over a block
    # of 57 steps, which passes the float range above the rescale limit; so
    # the first bad node is not finite, and the one before it is reported
    x = np.linspace(0.0, 1.0, 20_000)
    g = np.full(x.size, 0.7 * 12.0 / (x[1] - x[0]) ** 2)
    with np.errstate(all="ignore"), pytest.raises(IntegrationDiverged) as exc:
        oracle._numerov(x, g, x, [(slice(None), 1.0, 1.1)], raise_on_overflow=False)
    assert exc.value.last_index == 4103
    assert exc.value.last_r == x[4103]


def test_numerov_reports_an_inward_sweep_in_grid_coordinates():
    # the same 20 000 steps run inward: the bad node is 4103 steps from the
    # far end, and it is named by its grid index and radius, not by x
    x = np.linspace(0.0, 1.0, 20_000)
    g = np.full(x.size, 0.7 * 12.0 / (x[1] - x[0]) ** 2)
    r = np.exp(x)
    with np.errstate(all="ignore"), pytest.raises(IntegrationDiverged) as exc:
        oracle._numerov(x, g, r, [(slice(None, None, -1), 1.0, 1.1)],
                        raise_on_overflow=False)
    assert exc.value.last_index == 15_896
    assert exc.value.last_r == r[15_896]
    assert str(exc.value) == f"integration overflowed at r = {r[15_896]:.6g}"


def test_numerov_rejects_sign_flipping_steps():
    # h^2 g / 12 = 1.5 at one node of the second sweep: there b = -0.5, and
    # a step through it would flip the sign of u and count a false node
    x = np.linspace(0.0, 1.0, 101)
    g = np.full(x.size, 10.0)
    g[50] = 1.5 * 12.0 / (x[1] - x[0]) ** 2
    with pytest.raises(DomainError, match="grid too coarse.*-0.5") as exc:
        oracle._numerov(x, g, x, [(slice(50), 1.0, 1.1), (slice(None, 40, -1), 1.0, 1.1)],
                        raise_on_overflow=False)
    assert str(exc.value).endswith("at r = 0.5")


def test_ground_state_reference_fine_grid():
    # the difference form keeps the 60 000-node sweep of
    # test_ground_state_reference far inside its 1e-6 bound
    sol = solve_ground_state(1.0, 2.0, -4.0)
    terms = ((1.0, 4.0), (2.0, 3.0), (0.25, 2.0), (-4.0, 1.0))
    grid = RadialGrid(0.1, 10.0, 60_000)
    r = grid.nodes()
    ref = evaluate_ground_state(sol, r)
    y = integrate_radial(terms, sol.energy, 0.0, grid, Direction.OUTWARD,
                         (ref[0], ref[1]))
    rel = np.abs(y - ref) / np.maximum(np.abs(ref), np.max(ref) * 1e-6)
    assert np.max(rel) <= 1e-8


class TestFiniteDifference:
    def test_zero_function(self):
        r = np.linspace(0.1, 1.0, 50)
        assert finite_difference_residual(r, np.zeros_like(r), (), 1.0, FREE_LAM) == 0.0

    def test_second_order_decay(self):
        sol = solve_ground_state(1.0, 2.0, -4.0)
        terms = ((1.0, 4.0), (2.0, 3.0), (0.25, 2.0), (-4.0, 1.0))

        def residual(n):
            r = np.linspace(0.5, 5.0, n)
            return finite_difference_residual(r, evaluate_ground_state(sol, r),
                                              terms, sol.energy, 0.0)

        ratio = residual(501) / residual(1001)
        assert 3.0 <= ratio <= 5.0

    def test_requires_uniform_grid(self):
        r = np.geomspace(0.1, 1.0, 50)
        with pytest.raises(DomainError):
            finite_difference_residual(r, np.ones_like(r), (), 1.0, FREE_LAM)

    def test_requires_enough_points(self):
        r = np.linspace(0.1, 1.0, 4)
        with pytest.raises(DomainError):
            finite_difference_residual(r, np.ones_like(r), (), 1.0, FREE_LAM)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        r = np.linspace(0.1, 1.0, 101)
        y = np.ones_like(r)
        y[50] = bad
        with pytest.raises(DomainError, match="finite"):
            finite_difference_residual(r, y, (), 1.0, FREE_LAM)


class TestShooting:
    GRID = RadialGrid(0.08, 14.0, 16_000)

    def test_first_family_point(self):
        terms = ((1.0, 4.0), (2.0, 3.0), (0.25, 2.0), (-4.0, 1.0))
        result = shoot_ground_energy(terms, (-2.0, -0.5), self.GRID)
        assert result.converged
        assert result.energy == pytest.approx(-1.0, rel=1e-6)

    def test_second_family_point(self):
        terms = ((4.0, 4.0), (0.0, 3.0), (-3.75, 2.0), (-2.0, 1.0))
        result = shoot_ground_energy(terms, (-2.0, -0.5), self.GRID)
        assert result.converged
        assert result.energy == pytest.approx(-1.0, rel=1e-6)

    def test_empty_bracket(self):
        terms = ((1.0, 4.0), (2.0, 3.0), (0.25, 2.0), (-4.0, 1.0))
        with pytest.raises(BracketError):
            shoot_ground_energy(terms, (-0.2, -0.1), self.GRID)

    def test_invalid_bracket(self):
        terms = ((1.0, 4.0), (0.0, 3.0), (0.25, 2.0), (-4.0, 1.0))
        with pytest.raises(DomainError):
            shoot_ground_energy(terms, (-0.5, 1.0), self.GRID)

    def test_overflow_names_its_grid_node(self):
        # the inward sweep from r = 3000 overflows inside one block; the
        # error names the node by its index in grid.nodes() and its radius,
        # not by its place in the sweep
        terms = ((1.0, 4.0), (2.0, 3.0), (0.25, 2.0), (-4.0, 1.0))
        grid = RadialGrid(0.05, 3000.0, 14_145, Spacing.LOG)
        with np.errstate(all="ignore"), pytest.raises(IntegrationDiverged) as exc:
            shoot_ground_energy(terms, (-2.0, -0.5), grid)
        assert exc.value.last_index == 13_960
        assert exc.value.last_r == grid.nodes()[exc.value.last_index]

    @pytest.mark.parametrize("terms", [((2.0, 3.0), (0.25, 2.0), (-4.0, 1.0)),
                                       ((-1.0, 4.0), (0.25, 2.0), (-4.0, 1.0))],
                             ids=["absent", "attractive"])
    def test_seeds_need_a_repulsive_r4_term(self, terms):
        with pytest.raises(DomainError, match="repulsive r\\^-4"):
            shoot_ground_energy(terms, (-2.0, -0.5), self.GRID)

    def test_iteration_budget_exhausted(self, monkeypatch):
        terms = ((1.0, 4.0), (2.0, 3.0), (0.25, 2.0), (-4.0, 1.0))
        monkeypatch.setattr(oracle, "_MAX_ITERATIONS", 1)
        with pytest.raises(NoConvergence, match="iteration budget"):
            shoot_ground_energy(terms, (-2.0, -0.5), self.GRID, tolerance=1e-300)

    def test_shift_covariance(self):
        terms = ((1.0, 4.0), (2.0, 3.0), (0.25, 2.0), (-4.0, 1.0))
        shift = 0.375
        shifted = terms + ((shift, 0.0),)
        base = shoot_ground_energy(terms, (-2.0, -0.5), self.GRID)
        moved = shoot_ground_energy(shifted, (-2.0 + shift, -0.5 + shift), self.GRID)
        # each bisection terminates on its own defect tolerance, so the two
        # energies agree only to the oracle's accuracy, not exactly
        assert moved.energy - base.energy == pytest.approx(shift, abs=1e-6)

    def test_determinism(self):
        terms = ((1.0, 4.0), (2.0, 3.0), (0.25, 2.0), (-4.0, 1.0))
        a = shoot_ground_energy(terms, (-2.0, -0.5), self.GRID)
        b = shoot_ground_energy(terms, (-2.0, -0.5), self.GRID)
        assert a == b


FAMILY = [((1.0, 4.0), (2.0, 3.0), (0.25, 2.0), (-4.0, 1.0)),
          ((4.0, 4.0), (0.0, 3.0), (-3.75, 2.0), (-2.0, 1.0))]


class TestIllinoisShooting:
    @pytest.mark.parametrize("terms", FAMILY, ids=["first", "second"])
    def test_evaluations_bounded(self, terms):
        # the criterion-6 grid and bracket; bisection needed 34 evaluations
        result = shoot_ground_energy(terms, (-2.0, -0.5), TestShooting.GRID)
        assert result.converged
        assert result.evaluations == result.iterations + 2
        assert result.evaluations <= 12

    @pytest.mark.parametrize("terms", FAMILY, ids=["first", "second"])
    def test_log_grid(self, terms):
        # r_max = 35 / sqrt(-E_hi): the decaying tail is resolved out to e^-35
        grid = RadialGrid(0.08, 50.0, 2_000, Spacing.LOG)
        result = shoot_ground_energy(terms, (-2.0, -0.5), grid)
        assert result.converged
        assert result.nodes == 0
        assert result.energy == pytest.approx(-1.0, rel=1e-9)

    def test_diagnostics(self):
        grid = RadialGrid(0.08, 50.0, 2_000, Spacing.LOG)
        result = shoot_ground_energy(FAMILY[0], (-2.0, -0.5), grid)
        assert len(result.trace) == result.evaluations
        assert [energy for energy, _ in result.trace[:2]] == [-2.0, -0.5]
        assert result.trace[-1] == (result.energy, result.match_defect)
        assert result.trace[0][1] * result.trace[1][1] < 0.0
        r = grid.nodes()
        assert result.match_radius in r and grid.r_min < result.match_radius < grid.r_max
        assert result.rescales == 0

    def test_node_count_names_the_state(self):
        # the bracket (2E, E/2) of this ground state also holds E_1
        A, B, D = 0.586, 2.517, -3.668
        sol = solve_ground_state(A, B, D)
        terms = ((A, 4.0), (B, 3.0), (sol.required_C, 2.0), (D, 1.0))
        grid = RadialGrid(0.08, 80.0, 2_000, Spacing.LOG)
        excited = shoot_ground_energy(terms, (-0.30, -0.20), grid)
        assert excited.nodes == 1
        assert excited.energy == pytest.approx(-0.2536922636, abs=1e-10)
        ground = shoot_ground_energy(terms, (-0.9, -0.3), grid)
        assert ground.nodes == 0
        assert ground.energy == pytest.approx(sol.energy, rel=1e-9)
        assert ground.energy == pytest.approx(-0.4811411805, abs=1e-10)
        assert ground.evaluations <= 8


def _angle_and_slope(terms, grid, energy):
    """(Delta, S) of the matching defect at one energy, set up as the shoot
    sets it up."""
    r = grid.nodes()
    x, w, scale, c = oracle._sweep_variables(grid.spacing, r)
    f0 = oracle._f_values(terms, 0.0, 0.0, r)
    imatch = int(np.clip(np.argmin(f0), 5, len(r) - 6))
    decay = math.sqrt(oracle.term_with_power(terms, 4.0))
    inner = (math.exp(decay * (1.0 / r[1] - 1.0 / r[0])) / scale[0], 1.0 / scale[1])
    outer = (math.exp(-math.sqrt(-energy) * (r[-1] - r[-2])) / scale[-1], 1.0 / scale[-2])
    _, angle, slope, _, _ = oracle._matching_defect(
        x, w * (f0 - energy) + c, r, w, imatch, inner, outer)
    return angle, slope


class TestNewtonShooting:
    @pytest.mark.parametrize("grid", [RadialGrid(0.08, 50.0, 2_000, Spacing.LOG),
                                      RadialGrid(0.08, 14.0, 16_000)],
                             ids=["log", "uniform"])
    @pytest.mark.parametrize("terms", FAMILY, ids=["first", "second"])
    @pytest.mark.parametrize("energy", [-1.5, -1.0, -0.7])
    def test_slope_is_the_energy_derivative_of_the_angle(self, terms, grid, energy):
        # a central difference of the mismatch angle itself, which knows
        # nothing of the integral that gives S
        eps = 1e-6 * abs(energy)
        lower, _ = _angle_and_slope(terms, grid, energy - eps)
        upper, _ = _angle_and_slope(terms, grid, energy + eps)
        _, slope = _angle_and_slope(terms, grid, energy)
        assert slope == pytest.approx(-(upper - lower) / (2.0 * eps), rel=1e-4)

    @pytest.mark.parametrize("terms", FAMILY, ids=["first", "second"])
    def test_illinois_alone_reaches_the_same_energy(self, terms, monkeypatch):
        # a tolerance far below the default, so that both stop at the root
        # of the discrete defect, not somewhere inside its default band
        grid = RadialGrid(0.08, 50.0, 2_000, Spacing.LOG)
        newton = shoot_ground_energy(terms, (-2.0, -0.5), grid, tolerance=1e-13)
        assert newton.newton_steps > 0
        matching_defect = oracle._matching_defect

        def no_slope(*args):
            defect, angle, _, rescales, sweeps = matching_defect(*args)
            return defect, angle, math.nan, rescales, sweeps

        monkeypatch.setattr(oracle, "_matching_defect", no_slope)
        illinois = shoot_ground_energy(terms, (-2.0, -0.5), grid, tolerance=1e-13)
        assert illinois.converged and illinois.newton_steps == 0
        assert illinois.energy == pytest.approx(newton.energy, abs=1e-12)
        assert illinois.evaluations > newton.evaluations

    @pytest.mark.parametrize("A,B,D", [(1.0, 2.0, -4.0), (1.0, 0.0, -1.0),
                                       (4.0, 0.0, -2.0), (1.0, 0.0, -0.6),
                                       (2.0, 1.0, -3.0)])
    def test_evaluations_on_default_brackets(self, A, B, D, capsys):
        # the bracket (2E, E/2) and the log grid of invpower verify
        code = main(["verify", "--target", "ground", "--A", repr(A),
                     "--B", repr(B), "--D", repr(D)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["evaluations"] <= 8
        assert 0 <= payload["newton_steps"] <= payload["iterations"]


def terms_reference(terms, r):
    """The sum of strength * r**(-power) at r, with one pow per term."""
    r = np.asarray(r, dtype=float)
    total = np.zeros_like(r)
    for strength, power in terms:
        total = total + strength * r ** (-power)
    return total if total.ndim else float(total)


def _drawn_terms(seed):
    # integer powers on either side of the Horner range, a non-integer and a
    # negative one; with up to 8 draws from 12 powers, most sets repeat one
    powers = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 7.3, -2.0)
    rng = np.random.default_rng(seed)
    return tuple((float(rng.uniform(-3.0, 3.0)), float(rng.choice(powers)))
                 for _ in range(rng.integers(1, 9)))


TERM_SETS = {
    "empty": (),
    "repeated": ((1.0, 4.0), (-0.5, 4.0), (2.0, 0.0), (2.0, 0.0), (0.3, 7.3),
                 (0.3, 7.3), (1.0, 10.0), (-1.0, 10.0)),
    "cancelling": ((1.0, 2.0), (-1.0, 2.0), (0.5, 8.0)),
    **{f"seed{seed}": _drawn_terms(seed) for seed in range(24)},
}


@pytest.mark.parametrize("terms", TERM_SETS.values(), ids=TERM_SETS.keys())
def test_evaluate_terms_matches_one_pow_per_term(terms):
    # Horner's rule rounds differently from a sum of pows; the terms cancel
    # near a turning point, so the bound is set by the scale of the terms
    rng = np.random.default_rng(len(terms))
    r = np.exp(rng.uniform(math.log(0.05), math.log(20.0), (4, 60)))
    got = evaluate_terms(terms, r)
    assert got.shape == r.shape
    scale = terms_reference([(abs(s), p) for s, p in terms], r)
    err = np.abs(got - terms_reference(terms, r))
    assert np.all(err <= 8.0 * np.finfo(float).eps * scale)
    # a scalar takes the same steps as each element of an array
    for ri, want in zip(r.flat[:7], got.flat[:7]):
        value = evaluate_terms(terms, float(ri))
        assert type(value) is float and value == want


def _integrate_sweeps(A, B, D):
    """The four sweeps of an integrate benchmark case: outward and inward,
    on a uniform grid of 2 000 nodes and a log grid of 150, seeded from the
    closed-form state."""
    sol = solve_ground_state(A, B, D)
    terms = ((A, 4.0), (B, 3.0), (sol.required_C, 2.0), (D, 1.0))
    a, b, c = sol.a, sol.linear_slope_b, sol.c
    peak = (c + math.sqrt(c * c + 4.0 * b * a)) / (-2.0 * b)
    spans = {Direction.OUTWARD: (-a / 8.0, 2.0 * peak),
             Direction.INWARD: (0.5 * peak, peak - 14.0 / b)}
    sweeps = []
    for spacing, n in ((Spacing.UNIFORM, 2_000), (Spacing.LOG, 150)):
        for direction, span in spans.items():
            grid = RadialGrid(*span, n, spacing)
            y = evaluate_ground_state(sol, grid.nodes())
            first = (0, 1) if direction is Direction.OUTWARD else (-1, -2)
            sweeps.append(integrate_radial(terms, sol.energy, 0.0, grid, direction,
                                           (y[first[0]], y[first[1]])))
    return sweeps


@pytest.mark.parametrize("A,B,D", [(1.0, 2.0, -4.0), (1.7, 0.4, -2.2),
                                   (1.2, 1.5, -3.0), (1.95, 1.1, -1.3)])
def test_integrate_radial_agrees_with_one_pow_per_term(A, B, D, monkeypatch):
    horner = _integrate_sweeps(A, B, D)
    monkeypatch.setattr(oracle, "evaluate_terms", terms_reference)
    for y, want in zip(horner, _integrate_sweeps(A, B, D)):
        assert np.max(np.abs(y - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("A,B,D", [(1.0, 2.0, -4.0), (1.0, 0.0, -1.0),
                                   (4.0, 0.0, -2.0), (1.0, 0.0, -0.6),
                                   (2.0, 1.0, -3.0)])
def test_shoot_agrees_with_one_pow_per_term(A, B, D, monkeypatch):
    # the default bracket and log grid of invpower verify, with a tolerance
    # that takes both shoots to the root of the discrete defect
    sol = solve_ground_state(A, B, D)
    terms = ((A, 4.0), (B, 3.0), (sol.required_C, 2.0), (D, 1.0))
    bracket = (2.0 * sol.energy, 0.5 * sol.energy)
    grid = RadialGrid(0.08, max(14.0, 35.0 / math.sqrt(-bracket[1])), 2_000, Spacing.LOG)
    horner = shoot_ground_energy(terms, bracket, grid, tolerance=1e-13)
    monkeypatch.setattr(oracle, "evaluate_terms", terms_reference)
    per_term = shoot_ground_energy(terms, bracket, grid, tolerance=1e-13)
    assert horner.converged and per_term.converged
    assert horner.energy == pytest.approx(per_term.energy, rel=1e-12, abs=0.0)
    assert horner.evaluations == per_term.evaluations
