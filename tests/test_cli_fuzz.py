"""Property test of the CLI contract: whatever numbers a user passes, every
call ends in exit 0, 1 or 2, with strict JSON on stdout or an ``error:``
line on stderr, and no exception other than argparse's exit escapes main."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from invpower.cli import _COMMANDS, _FLAGS, main

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
    "epsilon": st.sampled_from([1, -1]), "s_min": st.integers(-6, 0),
    "s_max": st.integers(8, 60),
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
    flag = _FLAGS[dest]
    if dest in TYPICAL:
        return _number(dest, flag.type)
    if flag.choices is not None:
        return st.sampled_from(flag.choices)
    return st.sampled_from([s.value for s in flag.type])  # an Enum


def _flags(command):
    """Each of the command's flags, absent (None) or with a drawn value; a
    flag without a default is seldom absent, one with a default often."""
    return st.fixed_dictionaries({d: _seldom(st.just(None), _value(d), 10 if d in REQUIRED else 2)
                                  for d in _COMMANDS[command][2]})


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
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
        code, out, err = _call(argv)
        assert code in (0, 1, 2), argv
        if code == 1:
            assert out == "" and "error:" in err, argv
        else:
            payload = json.loads(out, parse_constant=_reject_constant)
            assert isinstance(payload, dict), argv
            assert payload.get("status", "pass") == ("pass" if code == 0 else "fail"), argv
            if code == 0:
                assert err == "", argv
        assert all(path.exists() == (code == 0) for path in paths), argv
