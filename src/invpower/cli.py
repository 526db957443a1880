"""Command-line front end: reduce / asym / series / ground / verify.

Every flag except those of ``reduce`` is in reduced units.  Data artifacts
go to stdout or files; diagnostics go to stderr.  Exit codes: 0 success,
1 usage, domain or configuration error, 2 verification failure.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
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
from .series import SeriesConfig, build_series, evaluate_solution, ode_residual

_USER_ERRORS = (DomainError, ConfigurationError, DegenerateC, NotNormalizable,
                BracketError, NoConvergence, IntegrationDiverged, OSError, MemoryError)


def _emit(payload: dict, tables) -> None:
    """Print one strict JSON object after writing each (path, header, rows)
    CSV table.  A non-finite field, or a non-finite number in a list field,
    is a DomainError, raised before anything is written.  An OSError while
    writing removes every table this call opened, then propagates."""
    for key, value in payload.items():
        numbers = np.ravel(value) if isinstance(value, list) else (value,)
        for number in numbers:
            if isinstance(number, float) and not math.isfinite(number):
                raise DomainError(f"{key} is not finite, got {number!r}")
    written = set()
    try:
        for path, header, rows in tables:
            with open(path, "w", newline="") as fh:
                written.add(path)
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows([f"{v:.17g}" for v in row] for row in rows)
    except OSError:
        for path in written:
            os.remove(path)
        raise
    print(json.dumps(payload, allow_nan=False))


def _config_key(option: str) -> str:
    """A flag's key in a config file: its option name, '_' for '-'."""
    return option.lstrip("-").replace("-", "_")


def _load_config(path: Optional[str], dests) -> dict:
    """The values of ``dests`` in a flat key = value file, keyed by option
    name without the leading dashes, each read by its flag's _convert.  Other
    commands' keys are skipped; an unknown key, --term, --config or a bad
    value is a ConfigurationError."""
    if path is None:
        return {}
    keys = {_config_key(flag.option): dest for dest, flag in _FLAGS.items()
            if dest not in ("config", "term")}
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = _config_key(key.strip())
            dest = keys.get(key)
            if dest is None:
                why = "command line only" if key in ("config", "term") else "not an option name"
                raise ConfigurationError(f"config key '{key}': {why}")
            if dest in dests:
                try:
                    values[dest] = _convert(_FLAGS[dest], value.strip())
                except ValueError as exc:
                    raise ConfigurationError(f"config key '{key}': {exc}") from None
    return values


def _require(args: dict, key: str):
    if key not in args:
        raise DomainError(f"missing required parameter '{key}'")
    return args[key]


def _grid_from(args: dict, r_min: float, r_max: float, n: int,
               spacing: Spacing = Spacing.UNIFORM) -> RadialGrid:
    return RadialGrid(
        r_min=args.get("r_min", r_min),
        r_max=args.get("r_max", r_max),
        n_points=args.get("n_points", n),
        spacing=spacing,
    )


def _series_config(args: dict) -> SeriesConfig:
    return SeriesConfig(
        pot=PotentialMonomial(alpha=_require(args, "alpha"), beta=_require(args, "beta")),
        kappa=_require(args, "kappa"),
        lam=args.get("lam", 0.0),
        epsilon=args.get("epsilon", 1),
        s_max=args.get("s_max", SeriesConfig.s_max),
    )


def _ground_state(args):
    A = _require(args, "A")
    B = args.get("B", 0.0)
    D = _require(args, "D")
    sol = solve_ground_state(A, B, D)
    return sol, ((A, 4.0), (B, 3.0), (sol.required_C, 2.0), (D, 1.0))


# Each handler takes the flags that argv or the config file set and returns
# (payload, tables, checks): the JSON object, (path, header, rows) CSV tables
# and (name, value, bound) checks, each of which passes when value <= bound.

def _cmd_reduce(args):
    setup = QuantumSetup(
        mass=_require(args, "mass"),
        hbar=_require(args, "hbar"),
        dimension=_require(args, "dimension"),
        angular_momentum=_require(args, "angular_momentum"),
        energy=_require(args, "energy"),
    )
    reduced = reduce_problem(setup, args.get("term", ()))
    payload = {"kappa": reduced.kappa, "lambda": reduced.lam}
    for i, (s, p) in enumerate(reduced.terms):
        payload[f"term_{i}_strength"] = s
        payload[f"term_{i}_power"] = p
    return payload, (), ()


def _cmd_asym(args):
    pot = PotentialMonomial(alpha=_require(args, "alpha"), beta=_require(args, "beta"))
    origin = origin_params(pot)
    p = special_p(pot.beta)
    return {
        "gamma": origin.gamma,
        "delta": origin.delta,
        "omega": p,
        "p": p,
        "polydromic": not p.is_integer(),
    }, (), ()


def _cmd_series(args):
    sol = build_series(_series_config(args))
    origin = origin_params(sol.config.pot)
    # the series is asymptotic: its default grid is its validity range
    r = _grid_from(args, r_min=0.05, r_max=0.2, n=200).nodes()
    res = ode_residual(sol, origin, r)
    tables = []
    if args.get("coeff_out"):
        rows = [(float(s), sol.coefficients[s].real, sol.coefficients[s].imag)
                for s in sorted(sol.coefficients)]
        tables.append((args["coeff_out"], ["s", "re_a", "im_a"], rows))
    if args.get("wave_out"):
        y = evaluate_solution(sol, origin, r)
        tables.append((args["wave_out"], ["r", "re_y", "im_y", "residual"],
                       zip(r, y.real, y.imag, res)))
    # np.max propagates NaN, so a non-finite residual anywhere stops _emit
    # before either table is written
    return {
        "omega": sol.omega,
        "gamma": origin.gamma,
        "delta": origin.delta,
        "n_coefficients": len(sol.coefficients),
        "normalization_index": sol.normalization_index,
        "max_residual": float(np.max(res)),
    }, tables, ()


def _cmd_ground(args):
    sol, _ = _ground_state(args)
    payload = {
        "a": sol.a,
        "b": sol.linear_slope_b,
        "c": sol.c,
        "E": sol.energy,
        "mu": sol.mu,
        "required_C": sol.required_C,
        "c_negative": sol.c_negative,
    }
    if "C" in args:
        require_finite(C=args["C"])
        payload["C"] = args["C"]
        payload["C_mismatch"] = args["C"] - sol.required_C
    # the grid flags are checked whether or not the table is asked for
    grid = _grid_from(args, r_min=0.05, r_max=10.0, n=400)
    tables = []
    if args.get("wave_out"):
        r = grid.nodes()
        tables.append((args["wave_out"], ["r", "y"], zip(r, evaluate_ground_state(sol, r))))
    return payload, tables, ()


def _verify_ground(args):
    sol, terms = _ground_state(args)
    e_lo = args.get("e_lo", 2.0 * sol.energy)
    e_hi = args.get("e_hi", 0.5 * sol.energy)
    # the inward seed exp(-sqrt(-E) r) stands for the decaying tail, so the
    # grid reaches out to sqrt(-E) r_max = 35 for the shallowest energy in
    # the bracket (shoot_ground_energy rejects e_hi >= 0); the outward seed
    # exp(-sqrt(A) / r) lets in exp(-2 sqrt(A) / r_min) <= e^-40 of the
    # solution that grows toward the origin
    r_max = max(14.0, 35.0 / math.sqrt(-e_hi)) if e_hi < 0.0 else 14.0
    r_min = min(0.08, math.sqrt(args["A"]) / 20.0)
    grid = _grid_from(args, r_min=r_min, r_max=r_max, n=2000, spacing=Spacing.LOG)
    tolerance = args.get("tolerance", 1e-10)
    result = shoot_ground_energy(terms, (e_lo, e_hi), grid, tolerance=tolerance)
    rel_err = abs(result.energy - sol.energy) / abs(sol.energy)
    r = np.linspace(max(grid.r_min, 0.1), min(grid.r_max, 10.0), 2001)
    fd = finite_difference_residual(r, evaluate_ground_state(sol, r),
                                    terms, sol.energy, 0.0)
    return {
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
    }, (), (
        ("match_defect", abs(result.match_defect), tolerance),
        ("relative_energy_error", rel_err, 1e-6),
        ("nodes", result.nodes, 0),
    )


def _verify_series(args):
    sol = build_series(_series_config(args))
    origin = origin_params(sol.config.pot)
    span = _grid_from(args, r_min=0.05, r_max=0.2, n=4000, spacing=Spacing.LOG)
    r = np.geomspace(span.r_min, span.r_max, max(span.n_points, 4000))
    y = evaluate_solution(sol, origin, r)
    if y[-1] == 0.0:
        raise DomainError(f"the series underflows to 0 at r_max = {span.r_max:g}")
    # start where the first steps resolve the exp(-gamma r^-delta) layer
    start = int(np.argmax(np.abs(y) >= math.exp(-30.0) * abs(y[-1])))
    grid = RadialGrid(r[start], span.r_max, len(r), Spacing.LOG)
    y = evaluate_solution(sol, origin, grid.nodes())
    terms = ((sol.config.pot.alpha, sol.config.pot.beta),)
    # f is real, so the real and imaginary parts are solutions on their own
    sweep = sum(unit * integrate_radial(terms, sol.config.kappa, sol.config.lam, grid,
                                        Direction.OUTWARD, (part[0], part[1]))
                for unit, part in ((1.0, y.real), (1j, y.imag)))
    gap = float(np.max(np.abs(sweep - y) / np.abs(y)))
    return ({"sweep_gap": gap, "sweep_start": grid.r_min, "nodes": grid.n_points}, (),
            (("sweep_gap", gap, 1e-6),))


_GRID = ("r_min", "r_max", "n_points")
_SERIES = ("alpha", "beta", "kappa", "lam", "epsilon", "s_max") + _GRID
# verify's targets, name: (handler, flags besides --target and --config)
_TARGETS = {"ground": (_verify_ground, ("A", "B", "D", "e_lo", "e_hi", "tolerance") + _GRID),
            "series": (_verify_series, _SERIES)}


# every flag once, keyed by dest.  A help of at most 54 characters fits on
# one line at the 78-column help width, and on its option's line where the
# option and its metavar take at most 20 (so --tolerance shows TOL)
_Flag = namedtuple("_Flag", "option type choices help metavar", defaults=(None,) * 3)
_FLAGS = {
    "config": _Flag("--config", str, help="flat key = value parameter file"),
    "mass": _Flag("--mass", float, help="particle mass m > 0 (required)"),
    "hbar": _Flag("--hbar", float, help="Planck constant hbar > 0 (required)"),
    "dimension": _Flag("--dimension", int,
                       help="space dimension q, an integer >= 2 (required)"),
    "angular_momentum": _Flag("--angular-momentum", int,
                              help="angular momentum l, an integer >= 0 (required)"),
    "energy": _Flag("--energy", float, help="energy E, in the units of U (required)"),
    "term": _Flag("--term", float, help="one term strength * r^-power of U; repeatable",
                  metavar=("STRENGTH", "POWER")),
    "A": _Flag("--A", float, help="strength A > 0 of A r^-4 (required)"),
    "B": _Flag("--B", float, help="strength of B r^-3; default 0"),
    "C": _Flag("--C", float, help="strength of C r^-2, checked against required_C"),
    "D": _Flag("--D", float, help="strength of D r^-1 (required)"),
    "alpha": _Flag("--alpha", float, help="strength alpha > 0 of alpha r^-beta (required)"),
    "beta": _Flag("--beta", float,
                  help="power of alpha r^-beta; series: even, >= 4 (required)"),
    "kappa": _Flag("--kappa", float,
                   help="reduced energy kappa = 2 m E / hbar^2 > 0 (required)"),
    "lam": _Flag("--lambda", float, help="lambda = l + (q - 2)/2; default 0"),
    "epsilon": _Flag("--epsilon", int, (1, -1),
                     help="sign of exp(i eps sqrt(kappa) r); default 1"),
    "s_max": _Flag("--s-max", int, help="highest series index; default 40"),
    "target": _Flag("--target", str, tuple(_TARGETS)),
    "e_lo": _Flag("--e-lo", float, help="deep end of the energy bracket; default 2 E"),
    "e_hi": _Flag("--e-hi", float, help="shallow end of the energy bracket; default E/2"),
    "tolerance": _Flag("--tolerance", float, help="bound on |match_defect|; default 1e-10",
                       metavar="TOL"),
    "r_min": _Flag("--r-min", float,
                   help="first grid radius; default depends on the command"),
    "r_max": _Flag("--r-max", float,
                   help="last grid radius; default depends on the command"),
    "n_points": _Flag("--n-points", int,
                      help="number of grid points; default depends on the command"),
    "coeff_out": _Flag("--coeff-out", str, help="CSV path for the coefficient table"),
    "wave_out": _Flag("--wave-out", str, help="CSV path for the wavefunction table"),
}

_DESCRIPTION = "Radial Schrodinger toolkit for repulsive inverse-power potentials"
# name: (handler, help, flags besides --config)
_COMMANDS = {
    "reduce": (_cmd_reduce, "map a physical setup to reduced units",
               ("mass", "hbar", "dimension", "angular_momentum", "energy", "term")),
    "asym": (_cmd_asym, "near-origin parameters gamma, delta, omega, p", ("alpha", "beta")),
    "series": (_cmd_series, "build the even-beta series solution",
               _SERIES + ("coeff_out", "wave_out")),
    "ground": (_cmd_ground, "closed-form ground state for the 4-term potential",
               ("A", "B", "C", "D", "wave_out") + _GRID),
    # each flag of a target once, in _FLAGS order: the order of its usage line
    "verify": (None, "cross-check analytic results with the oracle",
               ("target",) + tuple(d for d in _FLAGS
                                   if any(d in dests for _, dests in _TARGETS.values()))),
}


def _convert(flag: _Flag, raw: str):
    """``raw`` as the flag's type, within its choices; a ValueError says
    what is wrong in argparse's words."""
    try:
        value = flag.type(raw)
    except ValueError:
        raise ValueError(f"invalid {flag.type.__name__} value: {raw!r}") from None
    if flag.choices is not None and value not in flag.choices:
        raise ValueError(f"invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, flag.choices))})")
    return value


def _formatter(command: Optional[str]):
    """An argparse parser built from the flag table only to format the help
    and usage of ``command`` (None: the top level), never to parse; so
    argparse is imported only when text is printed."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="invpower" if command is None else f"invpower {command}",
        description=_DESCRIPTION if command is None else None,
        # a fixed width, so that the text does not follow the terminal's
        formatter_class=functools.partial(argparse.HelpFormatter, width=78))
    if command is None:
        parser.add_argument("--version", action="version", version=__version__)
        commands = parser.add_subparsers()
        for name, (_, text, _) in _COMMANDS.items():
            commands.add_parser(name, help=text)
        return parser
    groups = {}  # verify lists a flag that one target alone reads under that target
    if command == "verify":
        for target, (_, dests) in _TARGETS.items():
            group = parser.add_argument_group(f"--target {target}")
            groups.update({dest: group for dest in dests if dest not in _GRID})
    for dest in ("config",) + _COMMANDS[command][2]:
        flag = _FLAGS[dest]
        groups.get(dest, parser).add_argument(flag.option, dest=dest, choices=flag.choices,
                                              help=flag.help, metavar=flag.metavar,
                                              nargs=2 if dest == "term" else None)
    return parser


def _stop(command: Optional[str], message: Optional[str] = None, argv=()):
    """Help (no message, exit 0) or a usage error (exit 1).  argparse reads
    every option of ``argv`` before it acts on any, so an ambiguous option
    is reported first."""
    for token in argv[1:]:
        _match(build_parser()[command], token, command)
    parser = _formatter(command)
    if message is None:
        parser.print_help()
        raise SystemExit(0)
    sys.stderr.write(f"{parser.format_usage()}{parser.prog}: error: {message}\n")
    raise SystemExit(1)


def _match(options: dict, token: str, command: Optional[str]) -> Optional[str]:
    """The option that ``token`` names before any '=', in full or, for a
    '--' token, by a unique prefix; None if none, as for '--' alone.  An
    ambiguous prefix is a usage error."""
    option = token.partition("=")[0]
    if option in options or not token.startswith("--") or option == "--":
        return option if option in options else None
    matches = [name for name in options if name.startswith(option)]
    if len(matches) > 1:
        _stop(command, f"ambiguous option: {token} could match {', '.join(matches)}")
    return matches[0] if matches else None


@functools.cache
def build_parser() -> dict:
    """Each command's option table, option string to dest, in help order:
    -h and --help (dest None), --config, then the command's flags.  The
    top level's, under None, holds -h, --help and --version.  Built on the
    first call rather than at import."""
    return {None: dict.fromkeys(("-h", "--help", "--version")),
            **{name: {"-h": None, "--help": None,
                      **{_FLAGS[d].option: d for d in ("config",) + dests}}
               for name, (_, _, dests) in _COMMANDS.items()}}


def _parse(argv: Sequence[str]) -> dict:
    """The dests that ``argv`` sets for the command it starts with, in the
    order it first sets them.  Each option takes its value from '=value' or
    the next token (--term: two, appended); a token that starts with '--' is
    never a value.  Help, the version and usage errors exit here."""
    if not argv or argv[0] not in _COMMANDS:  # help, the version or an error
        option = _match(build_parser()[None], argv[0], None) if argv else None
        if option == "--version":
            print(__version__)
            raise SystemExit(0)
        if option is None and argv and not argv[0].startswith("-"):
            _stop(None, f"argument command: invalid choice: {argv[0]!r} "
                        f"(choose from {', '.join(map(repr, _COMMANDS))})")
        _stop(None, None if option else "the following arguments are required: command")
    command, options = argv[0], build_parser()[argv[0]]
    args, extras, i = {}, [], 1
    while i < len(argv):
        token = argv[i]
        i += 1
        option, eq, raw = token.partition("=")
        if option not in options:
            option = _match(options, token, command)
            if option is None:
                extras.append(token)
                continue
        dest = options[option]
        if dest is None:
            _stop(command, f"argument -h/--help: ignored explicit argument {raw!r}"
                  if eq else None, argv)
        flag, count = _FLAGS[dest], 2 if dest == "term" else 1
        if eq:
            values = [raw]
        else:
            values, i = argv[i:i + count], i + count
            # an option is never a value; count is 1 or 2, so the first and
            # the last are every value
            if values and (values[0].startswith("--") or values[-1].startswith("--")):
                values = []
        try:
            if len(values) < count:
                raise ValueError("expected one argument" if count == 1 else
                                 f"expected {count} arguments")
            if count == 1:
                args[dest] = _convert(flag, values[0])
            else:
                args[dest] = args.get(dest, []) + [[_convert(flag, v) for v in values]]
        except ValueError as exc:
            _stop(command, f"argument {flag.option}: {exc}", argv)
    if extras:
        _stop(command, "unrecognized arguments: " + " ".join(extras))
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parsed = _parse(argv)
    handler, _, dests = _COMMANDS[argv[0]]
    try:
        # explicit flags win over config-file values, which win over defaults
        args = {**_load_config(parsed.pop("config", None), dests), **parsed}
        if handler is None:  # verify runs its target, and argv may set only its flags
            handler, dests = _TARGETS[args.setdefault("target", "ground")]
            for dest in parsed:  # in argv order
                if dest not in ("target",) + dests:
                    _stop("verify", f"argument {_FLAGS[dest].option}: "
                                    f"not allowed with --target {args['target']}")
        # overflow is reported by the validators and _emit, not as warnings
        with np.errstate(all="ignore"):
            payload, tables, checks = handler(args)
            failures = [f"{name} {value:.3g} > {bound:.3g}"
                        for name, value, bound in checks if not value <= bound]
            if checks:
                payload = {"status": "fail" if failures else "pass", **payload}
            _emit(payload, tables)
    except _USER_ERRORS as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    if failures:
        print("fail: " + "; ".join(failures), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
