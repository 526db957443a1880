"""Property test of the CLI contract: whatever numbers a user passes, every
call ends in exit 0, 1 or 2, with strict JSON on stdout or an ``error:``
line on stderr, and no exception other than a usage error's SystemExit
escapes main.  Each drawn call is also parsed by an argparse reference
built from the same flag table, which must read it as the CLI's own
parser does."""

import argparse
import contextlib
import functools
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from invpower.cli import _COMMANDS, _FLAGS, _TARGETS, _parse, main

# values that overflow or are not numbers at all; as text, the float ones
# are also malformed integers
EXTREME = st.sampled_from([1e308, -1e308, math.nan, math.inf, -math.inf])
# any sign and size, so often out of a flag's domain
ANY_FLOAT = st.sampled_from([0.0, 1.0, -1.0, -4.0]) | st.floats(-8.0, 8.0)
ANY_INT = st.integers(-8, 500)
POSITIVE = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 8.0)
# values a user would pass, so that most calls reach the solvers
TYPICAL = {
    "mass": POSITIVE, "hbar": POSITIVE, "energy": ANY_FLOAT,
    "dimension": st.integers(1, 5), "angular_momentum": st.integers(0, 3),
    "term": POSITIVE,
    "alpha": POSITIVE, "beta": st.sampled_from([4.0, 6.0, 8.0, 10.0, 5.0]),
    "kappa": POSITIVE, "lam": st.floats(0.0, 3.0),
    "epsilon": st.sampled_from([1, -1]), "s_max": st.integers(8, 60),
    "A": POSITIVE, "B": st.floats(-4.0, 4.0), "C": ANY_FLOAT, "D": st.floats(-8.0, -0.1),
    "e_lo": st.floats(-8.0, 0.0), "e_hi": st.floats(-8.0, 0.0),
    "tolerance": st.sampled_from([1e-10, 1e-6, 0.0]),
    "r_min": st.floats(0.01, 0.2), "r_max": st.floats(0.15, 30.0),
    "n_points": st.integers(16, 400),
}
TABLES = ("coeff_out", "wave_out")
REQUIRED = {"mass", "hbar", "dimension", "angular_momentum", "energy",
            "alpha", "beta", "kappa", "A", "D"}


def _seldom(rare, common, one_in):
    """``rare`` in about one draw of ``one_in``, ``common`` in the others
    (hypothesis leans toward the low end of a range, so that end is common)."""
    return st.integers(1, one_in).flatmap(lambda k: rare if k == one_in else common)


def _number(dest, kind):
    wild = ANY_FLOAT if kind is float else ANY_INT
    return _seldom(EXTREME, _seldom(wild, TYPICAL[dest], 6), 12)


def _value(dest):
    if dest in TABLES:  # switched on or off; the path is the test's own
        return st.just(True)
    if dest == "term":
        number = _number(dest, float)
        return st.lists(st.tuples(number, number), min_size=1, max_size=2)
    return _number(dest, _FLAGS[dest].type)


def _drawn(dests):
    """Each of ``dests``, absent (None) or with a drawn value; a flag without
    a default is seldom absent, one with a default often."""
    return st.fixed_dictionaries({d: _seldom(st.just(None), _value(d), 10 if d in REQUIRED else 2)
                                  for d in dests})


def _own_flags(target):
    return ("target",) + _TARGETS[target or "ground"][1]


def _target_flags(target):
    """verify --target ``target`` (None: left out), that target's flags and,
    seldom, one flag that only the other target reads."""
    foreign = [d for d in _COMMANDS["verify"][2] if d not in _own_flags(target)]
    one = st.sampled_from(foreign).flatmap(lambda d: _value(d).map(lambda v: {d: v}))
    return st.tuples(_drawn(_TARGETS[target or "ground"][1]), _seldom(one, st.just({}), 8)).map(
        lambda drawn: {"target": target, **drawn[0], **drawn[1]})


def _flags(command):
    """The command's flags as _drawn draws them; verify draws its target
    first."""
    if command == "verify":
        return _seldom(st.just(None), st.sampled_from(tuple(_TARGETS)), 4).flatmap(_target_flags)
    return _drawn(_COMMANDS[command][2])


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


# argparse's reading of a token that starts with '-': an option unless it
# matches this pattern of a negative number
ARGPARSE_NEGATIVE = r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$"
# The intended differences from argparse.  Only the first can occur in the
# calls drawn here, and only with the values in NEGATIVE_VALUES:
# - a token that does not start with '--' is a value, so '--D -inf' is
#   D = -inf where argparse stops with "expected one argument" (so are '-x',
#   '-h' and '-1_0' in a value's place);
# - a token that starts with '--' is never a value, even one with a space;
# - '--' alone is an unrecognized argument, not the end of the options;
# - '-h' takes no joined value: '-hx' is an unrecognized argument;
# - a call that does not start with a command is read from its first token
#   alone.
NEGATIVE_VALUES = ("-inf", "-nan")


class _ReferenceParser(argparse.ArgumentParser):
    """argparse as the CLI used it: usage errors exit 1, and a token that
    matches ``negative`` is a value."""

    def __init__(self, *args, negative, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(negative)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def reference_parsers(negative=ARGPARSE_NEGATIVE + "|^(" + "|".join(NEGATIVE_VALUES) + ")$"):
    """One argparse parser per command, built from ``_FLAGS`` and
    ``_COMMANDS``; by default it also reads the intended differences as
    values."""
    parsers = {}
    for name, (_, _, dests) in _COMMANDS.items():
        parser = parsers[name] = _ReferenceParser(prog=f"invpower {name}", negative=negative)
        for dest in ("config",) + dests:
            flag = _FLAGS[dest]
            extra = {} if dest != "term" else dict(nargs=2, action="append")
            parser.add_argument(flag.option, dest=dest, type=flag.type, choices=flag.choices,
                                help=flag.help, metavar=flag.metavar, **extra)
    return parsers


def _outcome(parse, argv):
    """What ``parse`` makes of ``argv``: the dests it sets and their values,
    sorted, as text (NaN is not equal to itself), or the exit code and the
    ``error:`` line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return repr(sorted(parse(argv).items()))
        except SystemExit as exc:
            return exc.code, err.getvalue().splitlines()[-1]


def _reference_parse(argv, parsers):
    """The dests that argparse sets; it gives every other dest None."""
    return {dest: value for dest, value in vars(parsers[argv[0]].parse_args(argv[1:])).items()
            if value is not None}


def assert_one_parse(argv):
    """The CLI's parser reads ``argv`` as the argparse reference does: the
    same dests set, each to the same value, or exit 1 with the same error
    line."""
    expected = _outcome(lambda a: _reference_parse(a, reference_parsers()), argv)
    assert _outcome(_parse, argv) == expected, argv
    if isinstance(expected, tuple):
        assert expected[0] == 1 and ": error: " in expected[1], argv


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", list(_COMMANDS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_contract(command, data):
    flags = data.draw(_flags(command))
    with tempfile.TemporaryDirectory() as tmp:
        argv, paths = [command], []
        for dest, value in flags.items():
            if value is None:
                continue
            option = _FLAGS[dest].option
            if dest in TABLES:
                paths.append(Path(tmp) / f"{dest}.csv")
                argv.append(f"{option}={paths[-1]}")
            elif dest == "term":
                for strength, power in value:
                    argv += [option, repr(strength), repr(power)]
            else:
                argv.append(f"{option}={value if isinstance(value, str) else repr(value)}")
        assert_one_parse(argv)
        code, out, err = _call(argv)
        assert code in (0, 1, 2), argv
        if command == "verify" and any(value is not None and dest not in _own_flags(flags["target"])
                                       for dest, value in flags.items()):
            assert code == 1 and out == "" and err.startswith("usage: invpower verify"), argv
        if code == 1:
            assert out == "" and "error:" in err, argv
        else:
            payload = json.loads(out, parse_constant=_reject_constant)
            assert isinstance(payload, dict), argv
            assert payload.get("status", "pass") == ("pass" if code == 0 else "fail"), argv
            if code == 0:
                assert err == "", argv
        assert all(path.exists() == (code == 0) for path in paths), argv


@pytest.mark.parametrize("argv", [
    ["reduce", "--mass", "1", "--hbar", "1", "--dimension", "3", "--angular-momentum", "0",
     "--energy", "-1", "--term", "2", "4", "--term", "-0.5", "-1e0"],
    ["ground", "--A", "1", "--B", "2", "--D=-1e308"],
    ["ground", "--A", "1", "--B", "2", "--D", "-4e0"],
    ["asym", "--config", "params.cfg", "--beta", "6"],
    ["verify", "--target", "series", "--alpha", "1", "--beta", "6", "--kappa", "1",
     "--tolerance", "1e-8"],
    ["verify", "--target", "bogus"],
    ["ground", "--A", "1", "--D"],
    ["ground", "--A", "1", "--D", "-inf"],
    ["reduce", "--term", "-nan", "4"],
])
def test_fixed_calls_parse_once(argv):
    assert_one_parse(argv)


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_help_is_the_reference_parsers_help(command, monkeypatch):
    # argparse wraps at the terminal's width less 2, the CLI at 78
    monkeypatch.setenv("COLUMNS", "80")
    reference = reference_parsers()[command]
    code, out, err = _call([command, "--help"])
    assert (code, err) == (0, "")
    if command == "verify":  # its help groups the flags by target; its usage is the same
        assert out.startswith(reference.format_usage() + "\n")
    else:
        assert out == reference.format_help()


@pytest.mark.parametrize("value", NEGATIVE_VALUES)
def test_negative_non_finite_values_are_the_intended_differences(value):
    # argparse's own pattern reads them as options, the CLI as values
    plain = reference_parsers(ARGPARSE_NEGATIVE)
    for argv, dest, error in ((["ground", "--D", value], "D", "expected one argument"),
                              (["reduce", "--term", value, "4"], "term", "expected 2 arguments")):
        code, line = _outcome(lambda a: _reference_parse(a, plain), argv)
        assert code == 1 and line.endswith(error)
        assert repr(_parse(argv)[dest]) == repr(_reference_parse(argv, reference_parsers())[dest])
