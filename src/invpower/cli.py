"""Command-line front end: reduce / asym / series / ground / verify.

Every flag except those of ``reduce`` is in reduced units.  Data artifacts
go to stdout or files; diagnostics go to stderr.  Exit codes: 0 success,
1 usage, domain or configuration error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
from collections import namedtuple
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .asymptotics import PotentialMonomial, origin_params, special_p
from .errors import (BracketError, ConfigurationError, DegenerateC,
                     DomainError, IntegrationDiverged, NoConvergence,
                     NotNormalizable, require_finite)
from .groundstate import evaluate_ground_state, solve_ground_state
from .oracle import (Direction, RadialGrid, Spacing, finite_difference_residual,
                     integrate_radial, shoot_ground_energy)
from .reduction import QuantumSetup, reduce_problem
from .series import (SeriesConfig, Strategy, build_series, evaluate_solution,
                     ode_residual)

_USER_ERRORS = (DomainError, ConfigurationError, DegenerateC, NotNormalizable,
                BracketError, NoConvergence, IntegrationDiverged, OSError)


def _emit(payload: dict, tables=()) -> None:
    """Print one strict JSON object after writing each (path, header, rows)
    CSV table.  A non-finite field, or a non-finite number in a list field,
    is a DomainError, raised before anything is written."""
    for key, value in payload.items():
        numbers = np.ravel(value) if isinstance(value, list) else (value,)
        for number in numbers:
            if isinstance(number, float) and not math.isfinite(number):
                raise DomainError(f"{key} is not finite, got {number!r}")
    for path, header, rows in tables:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([f"{v:.17g}" for v in row])
    print(json.dumps(payload, allow_nan=False))


def _config_key(option: str) -> str:
    """A flag's key in a config file: its option name, '_' for '-'."""
    return option.lstrip("-").replace("-", "_")


def _load_config(path: Optional[str]) -> dict:
    """Flat key = value text; keys are option names without the leading
    dashes.  A key that is no flag's option name is a ConfigurationError."""
    if path is None:
        return {}
    known = {_config_key(flag.option) for flag in _FLAGS.values()}
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = _config_key(key.strip())
            if key not in known:
                raise ConfigurationError(f"config key '{key}': not an option name")
            values[key] = value.strip()
    return values


def _merged(args: argparse.Namespace, key: str, default=None):
    """Explicit flags win over config-file values, which win over defaults.

    A config value counts only for a subcommand that has the flag; it goes
    through the flag's own type and choices.
    """
    if not hasattr(args, key):
        return default
    value = getattr(args, key)
    if value is not None:
        return value
    flag = _FLAGS[key]
    name = _config_key(flag.option)
    if name not in args._config:
        return default
    raw = args._config[name]
    try:
        value = flag.type(raw)
    except ValueError:
        raise ConfigurationError(f"config key '{name}': invalid value {raw!r}") from None
    if flag.choices is not None and value not in flag.choices:
        raise ConfigurationError(
            f"config key '{name}': {raw!r} is not one of {list(flag.choices)}")
    return value


def _require(args: argparse.Namespace, key: str):
    value = _merged(args, key)
    if value is None:
        raise DomainError(f"missing required parameter '{key}'")
    return value


def _grid_from(args: argparse.Namespace, r_min: float, r_max: float, n: int,
               spacing: Spacing = Spacing.UNIFORM) -> RadialGrid:
    return RadialGrid(
        r_min=_merged(args, "r_min", r_min),
        r_max=_merged(args, "r_max", r_max),
        n_points=_merged(args, "n_points", n),
        spacing=spacing,
    )


def _series_config(args: argparse.Namespace) -> SeriesConfig:
    return SeriesConfig(
        pot=PotentialMonomial(alpha=_require(args, "alpha"), beta=_require(args, "beta")),
        kappa=_require(args, "kappa"),
        lam=_merged(args, "lam", 0.0),
        epsilon=_merged(args, "epsilon", 1),
        s_min=_merged(args, "s_min", 0),
        s_max=_merged(args, "s_max", 40),
        strategy=_merged(args, "strategy", Strategy.ONE_SIDED),
    )


def _cmd_reduce(args) -> int:
    setup = QuantumSetup(
        mass=_require(args, "mass"),
        hbar=_require(args, "hbar"),
        dimension=_require(args, "dimension"),
        angular_momentum=_require(args, "angular_momentum"),
        energy=_require(args, "energy"),
    )
    reduced = reduce_problem(setup, args.term or ())
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
    sol = build_series(_series_config(args))
    origin = origin_params(sol.config.pot)
    # the series is asymptotic: its default grid is its validity range
    r = _grid_from(args, r_min=0.05, r_max=0.2, n=200).nodes()
    res = ode_residual(sol, origin, r)
    tables = []
    if args.coeff_out:
        rows = [(float(s), sol.coefficients[s].real, sol.coefficients[s].imag)
                for s in sorted(sol.coefficients)]
        tables.append((args.coeff_out, ["s", "re_a", "im_a"], rows))
    if args.wave_out:
        y = evaluate_solution(sol, origin, r)
        tables.append((args.wave_out, ["r", "re_y", "im_y", "residual"],
                       zip(r, y.real, y.imag, res)))
    # np.max propagates NaN, so a non-finite residual anywhere stops _emit
    # before either table is written
    _emit({
        "omega": sol.omega,
        "gamma": origin.gamma,
        "delta": origin.delta,
        "n_coefficients": len(sol.coefficients),
        "normalization_index": sol.normalization_index,
        "max_residual": float(np.max(res)),
    }, tables)
    return 0


def _cmd_ground(args) -> int:
    A = _require(args, "A")
    B = _merged(args, "B", 0.0)
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
    user_c = _merged(args, "C")
    if user_c is not None:
        require_finite(C=user_c)
        payload["C"] = user_c
        payload["C_mismatch"] = user_c - sol.required_C
    tables = []
    if args.wave_out:
        r = _grid_from(args, r_min=0.05, r_max=10.0, n=400).nodes()
        tables.append((args.wave_out, ["r", "y"], zip(r, evaluate_ground_state(sol, r))))
    _emit(payload, tables)
    return 0


def _cmd_verify(args) -> int:
    if _merged(args, "target", "ground") == "ground":
        return _verify_ground(args)
    return _verify_series(args)


def _verify_ground(args) -> int:
    A = _require(args, "A")
    B = _merged(args, "B", 0.0)
    D = _require(args, "D")
    sol = solve_ground_state(A, B, D)
    terms = ((A, 4.0), (B, 3.0), (sol.required_C, 2.0), (D, 1.0))
    e_lo = _merged(args, "e_lo", 2.0 * sol.energy)
    e_hi = _merged(args, "e_hi", 0.5 * sol.energy)
    # the inward seed exp(-sqrt(-E) r) stands for the decaying tail, so the
    # grid reaches out to sqrt(-E) r_max = 35 for the shallowest energy in
    # the bracket (shoot_ground_energy rejects e_hi >= 0)
    r_max = max(14.0, 35.0 / math.sqrt(-e_hi)) if e_hi < 0.0 else 14.0
    grid = _grid_from(args, r_min=0.08, r_max=r_max, n=2000, spacing=Spacing.LOG)
    tolerance = _merged(args, "tolerance", 1e-10)
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
        "newton_steps": result.newton_steps,
        "evaluations": result.evaluations,
        "nodes": result.nodes,
        "match_radius": result.match_radius,
        "rescales": result.rescales,
        "trace": [list(pair) for pair in result.trace],
        "finite_difference_residual": fd,
    })
    if failures:
        print("fail: " + "; ".join(failures), file=sys.stderr)
        return 2
    return 0


def _verify_series(args) -> int:
    config = _series_config(args)
    sol = build_series(config)
    origin = origin_params(config.pot)
    span = _grid_from(args, r_min=0.05, r_max=0.2, n=4000, spacing=Spacing.LOG)
    r = np.geomspace(span.r_min, span.r_max, max(span.n_points, 4000))
    y = evaluate_solution(sol, origin, r)
    if y[-1] == 0.0:
        raise DomainError(f"the series underflows to 0 at r_max = {span.r_max:g}")
    # start where the first steps resolve the exp(-gamma r^-delta) layer
    start = int(np.argmax(np.abs(y) >= math.exp(-30.0) * abs(y[-1])))
    grid = RadialGrid(r[start], span.r_max, len(r), Spacing.LOG)
    y = evaluate_solution(sol, origin, grid.nodes())
    terms = ((config.pot.alpha, config.pot.beta),)
    # f is real, so the real and imaginary parts are solutions on their own
    sweep = sum(unit * integrate_radial(terms, config.kappa, config.lam, grid,
                                        Direction.OUTWARD, (part[0], part[1]))
                for unit, part in ((1.0, y.real), (1j, y.imag)))
    gap = float(np.max(np.abs(sweep - y) / np.abs(y)))
    passed = gap <= 1e-6
    _emit({"status": "pass" if passed else "fail", "sweep_gap": gap,
           "sweep_start": grid.r_min, "nodes": grid.n_points})
    if not passed:
        print(f"fail: sweep_gap {gap:.3g} > 1e-06", file=sys.stderr)
        return 2
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, like other input errors: argparse's own code 2
    means a verification failure here.  A negative number in exponent form
    is a value, not an option.  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# every flag once, keyed by dest
_Flag = namedtuple("_Flag", "option type choices help", defaults=(None, None))
_FLAGS = {
    "config": _Flag("--config", str, help="flat key = value parameter file"),
    "mass": _Flag("--mass", float),
    "hbar": _Flag("--hbar", float),
    "dimension": _Flag("--dimension", int),
    "angular_momentum": _Flag("--angular-momentum", int),
    "energy": _Flag("--energy", float),
    "term": _Flag("--term", float, help="one potential term; repeatable"),
    "alpha": _Flag("--alpha", float),
    "beta": _Flag("--beta", float),
    "kappa": _Flag("--kappa", float),
    "lam": _Flag("--lambda", float),
    "epsilon": _Flag("--epsilon", int, (1, -1)),
    "s_min": _Flag("--s-min", int),
    "s_max": _Flag("--s-max", int),
    "strategy": _Flag("--strategy", Strategy, help=" or ".join(s.value for s in Strategy)),
    "A": _Flag("--A", float),
    "B": _Flag("--B", float),
    "C": _Flag("--C", float, help="user-supplied C, reported against required_C"),
    "D": _Flag("--D", float),
    "target": _Flag("--target", str, ("ground", "series")),
    "e_lo": _Flag("--e-lo", float),
    "e_hi": _Flag("--e-hi", float),
    "tolerance": _Flag("--tolerance", float),
    "r_min": _Flag("--r-min", float),
    "r_max": _Flag("--r-max", float),
    "n_points": _Flag("--n-points", int),
    "coeff_out": _Flag("--coeff-out", str, help="CSV path for the coefficient table"),
    "wave_out": _Flag("--wave-out", str, help="CSV path for the wavefunction table"),
}

_GRID = ("r_min", "r_max", "n_points")
# name: (handler, help, flags besides --config)
_COMMANDS = {
    "reduce": (_cmd_reduce, "map a physical setup to reduced units",
               ("mass", "hbar", "dimension", "angular_momentum", "energy", "term")),
    "asym": (_cmd_asym, "near-origin parameters gamma, delta, omega, p", ("alpha", "beta")),
    "series": (_cmd_series, "build the even-beta series solution",
               ("alpha", "beta", "kappa", "lam", "epsilon", "s_min", "s_max", "strategy")
               + _GRID + ("coeff_out", "wave_out")),
    "ground": (_cmd_ground, "closed-form ground state for the 4-term potential",
               ("A", "B", "C", "D", "wave_out") + _GRID),
    "verify": (_cmd_verify, "cross-check analytic results with the oracle",
               ("target", "A", "B", "D", "alpha", "beta", "kappa", "lam", "epsilon",
                "s_max", "e_lo", "e_hi", "tolerance") + _GRID),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="invpower",
        description="Radial Schrodinger toolkit for repulsive inverse-power potentials")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_, dests) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        for dest in ("config",) + dests:
            flag = _FLAGS[dest]
            extra = {} if dest != "term" else dict(
                nargs=2, action="append", metavar=("STRENGTH", "POWER"))
            p.add_argument(flag.option, dest=dest, type=flag.type, choices=flag.choices,
                           help=flag.help, **extra)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call rather than at import; parsing
    leaves it as it was, so every later call reuses it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        args._config = _load_config(args.config)
        # overflow is reported by the validators and _emit, not as warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
