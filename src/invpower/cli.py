"""Command-line front end: reduce / asym / series / ground / verify.

All physics flags are in reduced units unless the ``--physical`` group
(mass, hbar, energy, dimension, angular momentum) is used, in which case the
inputs are routed through the reduction stage first.  Data artifacts go to
stdout or files; diagnostics go to stderr.  Exit codes: 0 success, 1 usage,
domain or configuration error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .asymptotics import PotentialMonomial, origin_params, special_p
from .errors import (BracketError, ConfigurationError, ConsistencyViolation,
                     DegenerateC, DomainError, IntegrationDiverged,
                     NoConvergence, NotNormalizable, require_finite)
from .groundstate import evaluate_ground_state, solve_ground_state
from .oracle import (RadialGrid, Spacing, finite_difference_residual,
                     shoot_ground_energy)
from .reduction import QuantumSetup, reduce_problem
from .series import (SeriesConfig, Strategy, build_series, evaluate_solution,
                     ode_residual)

_USER_ERRORS = (DomainError, ConfigurationError, DegenerateC, NotNormalizable,
                BracketError, ConsistencyViolation, NoConvergence,
                IntegrationDiverged)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(payload: dict) -> None:
    """Print one strict JSON object; a non-finite field is a DomainError."""
    for key, value in payload.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{key} is not finite, got {value!r}")
    print(json.dumps(payload, allow_nan=False))


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _load_config(path: Optional[str]) -> dict:
    """Flat key = value text; keys use the option names without dashes."""
    if path is None:
        return {}
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merged(args: argparse.Namespace, key: str, cast=float, default=None):
    """Explicit flags win over config-file values, which win over defaults."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    config = getattr(args, "_config", {})
    if key in config:
        return cast(config[key])
    return default


def _require(args: argparse.Namespace, key: str, cast=float):
    value = _merged(args, key, cast)
    if value is None:
        raise DomainError(f"missing required parameter '{key}'")
    return value


def _grid_from(args: argparse.Namespace, r_min: float, r_max: float, n: int,
               spacing: Spacing = Spacing.UNIFORM) -> RadialGrid:
    return RadialGrid(
        r_min=_merged(args, "r_min", float, r_min),
        r_max=_merged(args, "r_max", float, r_max),
        n_points=int(_merged(args, "n_points", int, n)),
        spacing=spacing,
    )


def _cmd_reduce(args) -> int:
    setup = QuantumSetup(
        mass=_require(args, "mass"),
        hbar=_require(args, "hbar"),
        dimension=int(_require(args, "dimension", int)),
        angular_momentum=int(_require(args, "angular_momentum", int)),
        energy=_require(args, "energy"),
    )
    terms = [(float(s), float(p)) for s, p in (args.term or [])]
    reduced = reduce_problem(setup, terms)
    payload = {"kappa": reduced.kappa, "lambda": reduced.lam}
    for i, (s, p) in enumerate(reduced.terms):
        payload[f"term_{i}_strength"] = s
        payload[f"term_{i}_power"] = p
    _emit(payload)
    return 0


def _cmd_asym(args) -> int:
    pot = PotentialMonomial(alpha=_require(args, "alpha"), beta=_require(args, "beta"))
    origin = origin_params(pot)
    p = special_p(pot.beta)
    _emit({
        "gamma": origin.gamma,
        "delta": origin.delta,
        "omega": p,
        "p": p,
        "polydromic": not p.is_integer(),
    })
    return 0


def _cmd_series(args) -> int:
    pot = PotentialMonomial(alpha=_require(args, "alpha"), beta=_require(args, "beta"))
    config = SeriesConfig(
        pot=pot,
        kappa=_require(args, "kappa"),
        lam=_merged(args, "lam", float, 0.0),
        epsilon=int(_merged(args, "epsilon", int, 1)),
        s_min=int(_merged(args, "s_min", int, 0)),
        s_max=int(_merged(args, "s_max", int, 40)),
        strategy=Strategy(_merged(args, "strategy", str, "one_sided")),
    )
    sol = build_series(config)
    origin = origin_params(pot)
    if args.coeff_out:
        rows = [(float(s), sol.coefficients[s].real, sol.coefficients[s].imag)
                for s in sorted(sol.coefficients)]
        _write_csv(args.coeff_out, ["s", "re_a", "im_a"], rows)
    # the series is asymptotic: its default grid is its validity range
    grid = _grid_from(args, r_min=0.05, r_max=0.2, n=200)
    r = grid.nodes()
    y = evaluate_solution(sol, origin, r)
    res = ode_residual(sol, origin, r)
    if args.wave_out:
        _write_csv(args.wave_out, ["r", "re_y", "im_y", "residual"],
                   zip(r, y.real, y.imag, res))
    _emit({
        "omega": sol.omega,
        "gamma": origin.gamma,
        "delta": origin.delta,
        "n_coefficients": len(sol.coefficients),
        "normalization_index": sol.normalization_index,
        "max_residual": float(np.max(res)),
    })
    return 0


def _cmd_ground(args) -> int:
    A = _require(args, "A")
    B = _merged(args, "B", float, 0.0)
    D = _require(args, "D")
    sol = solve_ground_state(A, B, D)
    payload = {
        "a": sol.a,
        "b": sol.linear_slope_b,
        "c": sol.c,
        "E": sol.energy,
        "mu": sol.mu,
        "required_C": sol.required_C,
        "c_negative": sol.c_negative,
    }
    user_c = _merged(args, "C", float)
    if user_c is not None:
        require_finite(C=user_c)
        payload["C"] = user_c
        payload["C_mismatch"] = user_c - sol.required_C
    _emit(payload)
    if args.wave_out:
        r = _grid_from(args, r_min=0.05, r_max=10.0, n=400).nodes()
        _write_csv(args.wave_out, ["r", "y"], zip(r, evaluate_ground_state(sol, r)))
    return 0


def _cmd_verify(args) -> int:
    target = _merged(args, "target", str, "ground")
    if target == "ground":
        return _verify_ground(args)
    if target == "series":
        return _verify_series(args)
    raise DomainError("verify target must be 'ground' or 'series'")


def _verify_ground(args) -> int:
    A = _require(args, "A")
    B = _merged(args, "B", float, 0.0)
    D = _require(args, "D")
    sol = solve_ground_state(A, B, D)
    terms = ((A, 4.0), (B, 3.0), (sol.required_C, 2.0), (D, 1.0))
    e_lo = _merged(args, "e_lo", float, 2.0 * sol.energy)
    e_hi = _merged(args, "e_hi", float, 0.5 * sol.energy)
    # the inward seed exp(-sqrt(-E) r) stands for the decaying tail, so the
    # grid reaches out to sqrt(-E) r_max = 35 for the shallowest energy in
    # the bracket (shoot_ground_energy rejects e_hi >= 0)
    r_max = max(14.0, 35.0 / math.sqrt(-e_hi)) if e_hi < 0.0 else 14.0
    grid = _grid_from(args, r_min=0.08, r_max=r_max, n=2000, spacing=Spacing.LOG)
    tolerance = _merged(args, "tolerance", float, 1e-10)
    result = shoot_ground_energy(terms, (e_lo, e_hi), grid, tolerance=tolerance)
    rel_err = abs(result.energy - sol.energy) / abs(sol.energy)
    r = np.linspace(max(grid.r_min, 0.1), min(grid.r_max, 10.0), 2001)
    fd = finite_difference_residual(r, evaluate_ground_state(sol, r),
                                    terms, sol.energy, 0.0)
    failures = [f"{name} {value:.3g} > {bound:.3g}" for name, value, bound in (
        ("match_defect", abs(result.match_defect), tolerance),
        ("relative_energy_error", rel_err, 1e-6),
        ("nodes", result.nodes, 0),
    ) if not value <= bound]
    _emit({
        "status": "fail" if failures else "pass",
        "closed_form_energy": sol.energy,
        "shooting_energy": result.energy,
        "relative_energy_error": rel_err,
        "match_defect": result.match_defect,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "nodes": result.nodes,
        "finite_difference_residual": fd,
    })
    if failures:
        print("fail: " + "; ".join(failures), file=sys.stderr)
        return 2
    return 0


def _verify_series(args) -> int:
    pot = PotentialMonomial(alpha=_require(args, "alpha"), beta=_require(args, "beta"))
    kappa = _require(args, "kappa")
    lam = _merged(args, "lam", float, 0.0)
    epsilon = int(_merged(args, "epsilon", int, 1))
    config = SeriesConfig(pot=pot, kappa=kappa, lam=lam, epsilon=epsilon,
                          s_max=int(_merged(args, "s_max", int, 40)))
    sol = build_series(config)
    origin = origin_params(pot)
    grid = _grid_from(args, r_min=0.05, r_max=0.2, n=801)
    terms = ((pot.alpha, pot.beta),)

    def gap_on(n_points: int):
        rr = np.linspace(grid.r_min, grid.r_max, n_points)
        fd = finite_difference_residual(rr, evaluate_solution(sol, origin, rr),
                                        terms, kappa, lam)
        reference = float(np.max(ode_residual(sol, origin, rr[1:-1])))
        return fd, abs(fd - reference)

    analytic = float(np.max(ode_residual(sol, origin, grid.nodes())))
    (fd_coarse, gap_coarse), (fd_fine, gap_fine) = gap_on(grid.n_points), \
        gap_on(2 * grid.n_points - 1)
    # the finite-difference figure should approach the analytic one at
    # second order in the grid spacing
    passed = gap_fine <= 0.35 * gap_coarse + 1e-12 or max(gap_coarse, gap_fine) <= 1e-10
    _emit({
        "status": "pass" if passed else "fail",
        "analytic_residual": analytic,
        "finite_difference_residual_h": fd_coarse,
        "finite_difference_residual_h_over_2": fd_fine,
    })
    return 0 if passed else 2


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, like other input errors: argparse's own code 2
    means a verification failure here.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="invpower",
        description="Radial Schrodinger toolkit for repulsive inverse-power potentials")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value parameter file")

    p = sub.add_parser("reduce", help="map a physical setup to reduced units")
    common(p)
    p.add_argument("--mass", type=float)
    p.add_argument("--hbar", type=float)
    p.add_argument("--dimension", type=int)
    p.add_argument("--angular-momentum", type=int)
    p.add_argument("--energy", type=float)
    p.add_argument("--term", nargs=2, action="append", metavar=("STRENGTH", "POWER"))
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("asym", help="near-origin parameters gamma, delta, omega, p")
    common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.set_defaults(func=_cmd_asym)

    p = sub.add_parser("series", help="build the even-beta series solution")
    common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--epsilon", type=int, choices=(1, -1))
    p.add_argument("--s-min", type=int)
    p.add_argument("--s-max", type=int)
    p.add_argument("--strategy", choices=("one_sided", "windowed"))
    p.add_argument("--r-min", type=float)
    p.add_argument("--r-max", type=float)
    p.add_argument("--n-points", type=int)
    p.add_argument("--coeff-out", help="CSV path for the coefficient table")
    p.add_argument("--wave-out", help="CSV path for the wavefunction table")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("ground", help="closed-form ground state for the 4-term potential")
    common(p)
    p.add_argument("--A", type=float)
    p.add_argument("--B", type=float)
    p.add_argument("--C", type=float, help="user-supplied C, reported against required_C")
    p.add_argument("--D", type=float)
    p.add_argument("--wave-out", help="optional CSV of (r, y)")
    p.add_argument("--r-min", type=float)
    p.add_argument("--r-max", type=float)
    p.add_argument("--n-points", type=int)
    p.set_defaults(func=_cmd_ground)

    p = sub.add_parser("verify", help="cross-check analytic results with the oracle")
    common(p)
    p.add_argument("--target", choices=("ground", "series"))
    p.add_argument("--A", type=float)
    p.add_argument("--B", type=float)
    p.add_argument("--D", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--epsilon", type=int, choices=(1, -1))
    p.add_argument("--s-max", type=int)
    p.add_argument("--e-lo", type=float)
    p.add_argument("--e-hi", type=float)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--r-min", type=float)
    p.add_argument("--r-max", type=float)
    p.add_argument("--n-points", type=int)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = _load_config(getattr(args, "config", None))
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
