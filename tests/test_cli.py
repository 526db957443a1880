import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import invpower
from invpower import cli, series
from invpower import (IntegrationDiverged, PotentialMonomial, SeriesConfig,
                      SeriesSolution, ShootingResult, build_series, evaluate_solution,
                      origin_params, ode_residual)
from invpower.cli import _COMMANDS, _FLAGS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def test_reduce(capsys):
    payload = run_json(capsys, "reduce", "--mass", "0.5", "--hbar", "1",
                       "--dimension", "3", "--angular-momentum", "0",
                       "--energy", "2")
    assert payload["kappa"] == 2.0
    assert payload["lambda"] == 0.5


def test_reduce_with_terms(capsys):
    payload = run_json(capsys, "reduce", "--mass", "1", "--hbar", "1",
                       "--dimension", "4", "--angular-momentum", "1",
                       "--energy", "0", "--term", "1", "4")
    assert payload == {"kappa": 0.0, "lambda": 2.0,
                       "term_0_strength": 2.0, "term_0_power": 4.0}


def test_asym_beta4(capsys):
    payload = run_json(capsys, "asym", "--alpha", "1", "--beta", "4")
    assert payload["gamma"] == 1.0
    assert payload["delta"] == 1.0
    assert payload["omega"] == 1.0
    assert payload["p"] == 1.0


def test_asym_domain_error(capsys):
    code, out, err = run(capsys, "asym", "--alpha", "1", "--beta", "2")
    assert code == 1
    assert out == ""
    assert "beta" in err


def test_ground(capsys):
    payload = run_json(capsys, "ground", "--A", "1", "--B", "2", "--D", "-4")
    assert payload["E"] == -1.0
    assert payload["required_C"] == 0.25
    assert payload["c_negative"] is False


def test_ground_reports_c_mismatch(capsys):
    payload = run_json(capsys, "ground", "--A", "1", "--B", "2", "--D", "-4",
                       "--C", "1.25")
    assert payload["C_mismatch"] == 1.0


def test_ground_degenerate_exit(capsys):
    code, _, err = run(capsys, "ground", "--A", "1", "--B", "-2", "--D", "-1")
    assert code == 1
    assert "mu" in err or "c = 0" in err


@pytest.mark.parametrize("flags, error", [
    (("--n-points", "5"), "n_points must be an integer >= 16"),
    (("--r-min", "-3"), "r_min must be positive"),
])
def test_ground_grid_flags_checked_without_wave_out(capsys, tmp_path, flags, error):
    argv = ("ground", "--A", "1", "--B", "2", "--D", "-4") + flags
    for table in ((), ("--wave-out", str(tmp_path / "wave.csv"))):
        assert run(capsys, *argv, *table) == (1, "", f"error: {error}\n")
    assert not (tmp_path / "wave.csv").exists()


def test_series_artifacts_round_trip(capsys, tmp_path):
    coeff_path = tmp_path / "coeffs.csv"
    wave_path = tmp_path / "wave.csv"
    payload = run_json(capsys, "series", "--alpha", "1", "--beta", "6",
                       "--kappa", "1", "--lambda", "0.5", "--epsilon", "1",
                       "--s-max", "20", "--r-min", "0.05", "--r-max", "0.2",
                       "--n-points", "101",
                       "--coeff-out", str(coeff_path),
                       "--wave-out", str(wave_path))
    header, rows = read_csv(coeff_path)
    assert header == ["s", "re_a", "im_a"]
    wave_header, wave_rows = read_csv(wave_path)
    assert wave_header == ["r", "re_y", "im_y", "residual"]
    assert len(wave_rows) == 101

    # re-verify: rebuild the solution from the serialized coefficients and
    # reproduce the reported residual
    pot = PotentialMonomial(1.0, 6.0)
    config = SeriesConfig(pot=pot, kappa=1.0, lam=0.5, epsilon=1, s_max=20)
    coeffs = {int(s): complex(re, im) for s, re, im in rows}
    sol = SeriesSolution(omega=1.5, coefficients=coeffs, config=config,
                         normalization_index=0)
    r = np.linspace(0.05, 0.2, 101)
    res = ode_residual(sol, origin_params(pot), r)
    assert float(np.max(res)) == pytest.approx(payload["max_residual"], rel=1e-12)
    # the wavefunction table carries the same residual column
    assert wave_rows[0][3] == pytest.approx(res[0], rel=1e-12)


def test_a_failed_table_write_leaves_no_table(capsys, tmp_path):
    # the wave table's directory does not exist, so the coefficient table,
    # written before it, is removed again
    coeff_path = tmp_path / "coeffs.csv"
    code, out, err = run(capsys, "series", "--alpha", "1", "--beta", "6", "--kappa", "1",
                         "--coeff-out", str(coeff_path),
                         "--wave-out", str(tmp_path / "missing" / "wave.csv"))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not coeff_path.exists()


def test_series_residual_where_y_underflows(capsys):
    # y = 1.0e-322 at r = 0.0862, where the envelope is subnormal; the
    # largest residual, 1.4e-12, is at r = 0.2
    payload = run_json(capsys, "series", "--alpha", "2", "--beta", "8", "--kappa", "1",
                       "--lambda", "0.5", "--s-max", "16")
    assert payload["max_residual"] <= 1e-10


def test_series_odd_beta_exit(capsys):
    code, out, err = run(capsys, "series", "--alpha", "1", "--beta", "5",
                         "--kappa", "1")
    assert code == 1
    assert "even" in err


def test_config_file_merging(capsys, tmp_path):
    config = tmp_path / "params.cfg"
    # blank and comment lines are skipped
    config.write_text("# near-origin parameters\n\nalpha = 4\n   \n  # beta next\nbeta = 6\n")
    payload = run_json(capsys, "asym", "--config", str(config))
    assert payload["gamma"] == 1.0
    assert payload["delta"] == 2.0
    # explicit flags win over the config file
    payload = run_json(capsys, "asym", "--config", str(config), "--alpha", "1")
    assert payload["gamma"] == 0.5


def test_missing_parameter(capsys):
    code, _, err = run(capsys, "asym", "--alpha", "1")
    assert code == 1
    assert "beta" in err


def test_verify_ground_pass(capsys):
    payload = run_json(capsys, "verify", "--target", "ground",
                       "--A", "1", "--B", "2", "--D", "-4")
    assert payload["status"] == "pass"
    assert payload["relative_energy_error"] <= 1e-6


def test_verify_ground_shallow_state_on_defaults(capsys):
    # E = -0.25: the default grid reaches r = 35 / sqrt(-E_hi) = 99
    payload = run_json(capsys, "verify", "--target", "ground",
                       "--A", "1", "--B", "0", "--D", "-1")
    assert payload["status"] == "pass"
    assert payload["relative_energy_error"] <= 1e-9
    assert payload["nodes"] == 0
    assert payload["evaluations"] == payload["iterations"] + 2


def test_verify_ground_small_A_on_defaults(capsys):
    # A = 0.51: at r_min = 0.08 the solution that grows toward the origin
    # would enter at exp(-2 sqrt(A) / r_min) = 2e-8
    payload = run_json(capsys, "verify", "--target", "ground", "--A", "0.5113450782424802",
                       "--B", "0.37712470909883766", "--D", "-4.130268603638953")
    assert payload["status"] == "pass"
    assert payload["relative_energy_error"] <= 1e-10


def test_verify_ground_names_the_failed_checks(capsys):
    # this bracket holds the first excited state, not the ground state
    code, out, err = run(capsys, "verify", "--target", "ground", "--A", "0.586",
                         "--B", "2.517", "--D", "-3.668", "--e-lo", "-0.3",
                         "--e-hi", "-0.2")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert payload["nodes"] == 1
    assert err.count("\n") == 1
    assert "relative_energy_error" in err and "nodes 1 > 0" in err


def test_verify_ground_fail_exit_code(capsys):
    # an empty bracket is a domain error, not a verification failure
    code, _, err = run(capsys, "verify", "--target", "ground", "--A", "1",
                       "--B", "2", "--D", "-4", "--e-lo", "-0.2",
                       "--e-hi", "-0.1")
    assert code == 1
    assert "bracket" in err.lower()


def test_verify_ground_rejects_an_infinite_bracket_end(capsys):
    # -inf < E_hi < 0 holds, so the bracket rule alone would pass it on to the
    # grid check
    code, out, err = run(capsys, "verify", "--target", "ground", "--A", "1", "--B", "2",
                         "--D", "-4", "--e-lo", "-inf")
    assert (code, out) == (1, "")
    assert "e_lo must be finite" in err


@pytest.mark.parametrize("tolerance", ["0", "-1"])
def test_verify_ground_rejects_a_tolerance_that_cannot_pass(capsys, tolerance):
    # |match_defect| <= tolerance never holds, so the shoot would run to the
    # root and still report fail
    code, out, err = run(capsys, "verify", "--target", "ground", "--A", "1", "--B", "0",
                         "--D", "-1", "--tolerance", tolerance)
    assert code == 1
    assert out == ""
    assert err == "error: tolerance must be positive\n"


def test_verify_series_pass(capsys):
    payload = run_json(capsys, "verify", "--target", "series", "--alpha", "1",
                       "--beta", "6", "--kappa", "1", "--lambda", "0.5",
                       "--s-max", "20")
    assert payload["status"] == "pass"


def test_verify_ground_reports_shooting_diagnostics(capsys):
    payload = run_json(capsys, "verify", "--target", "ground",
                       "--A", "1", "--B", "2", "--D", "-4")
    assert len(payload["trace"]) == payload["evaluations"]
    assert payload["trace"][-1] == [payload["shooting_energy"], payload["match_defect"]]
    assert 0.08 < payload["match_radius"] < 14.0
    assert payload["rescales"] == 0


VERIFY_SERIES_ARGS = ("verify", "--target", "series", "--alpha", "1", "--beta", "6",
                      "--kappa", "1", "--lambda", "0.5")


def test_verify_series_names_the_failed_check(capsys, monkeypatch):
    # a wrong recurrence: the a_{s+2} factor beta (s/2 + 3/4) becomes
    # beta (s/2 - 1/4), and the series-seeded sweep parts from the series
    right = series._recurrence_rows

    def mutant(config, shifts):
        for lead, cross, (i, c), rest in right(config, shifts):
            yield lead, cross, (i, c - config.pot.beta), rest

    monkeypatch.setattr(series, "_recurrence_rows", mutant)
    code, out, err = run(capsys, *VERIFY_SERIES_ARGS)
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert payload["sweep_gap"] > 1e-3
    assert err.count("\n") == 1
    assert err.startswith("fail: sweep_gap ") and err.rstrip().endswith("> 1e-06")


@pytest.mark.parametrize("extra", [
    pytest.param((), id="defaults"),
    # a 16-point grid: the sweep uses 4 000 nodes whatever --n-points says
    pytest.param(("--alpha", "0.03125", "--beta", "10", "--kappa", "0.5",
                  "--r-min", "0.125", "--n-points", "16"), id="coarse-grid"),
])
def test_verify_series_sweep_agrees_with_a_good_series(capsys, extra):
    payload = run_json(capsys, *VERIFY_SERIES_ARGS, *extra)
    assert payload["status"] == "pass"
    assert payload["sweep_gap"] <= 1e-8
    assert payload["nodes"] == 4000
    assert 0.05 < payload["sweep_start"] < 0.2


def test_verify_series_fails_beyond_the_series_reach(capsys):
    # at beta = 4 the truncated series does not solve the ODE on [0.05, 0.2]
    code, out, err = run(capsys, *VERIFY_SERIES_ARGS, "--beta", "4")
    assert code == 2
    assert json.loads(out)["sweep_gap"] > 0.5
    assert err.startswith("fail: sweep_gap ")


def test_verify_series_rejects_an_underflowing_series(capsys):
    # exp(-gamma r^-delta) underflows to 0 at r_max = 0.06 for beta = 8
    code, out, err = run(capsys, *VERIFY_SERIES_ARGS, "--beta", "8", "--r-max", "0.06")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "underflows to 0" in err


@pytest.mark.parametrize("grid", [("300", "400"), ("1000", "200")])
def test_verify_ground_rejects_a_grid_too_coarse_for_numerov(capsys, grid):
    # h^2 r^2 (f - E) / 12 passes 1 at large r: such steps would flip the
    # sign of the sweep and count false nodes
    code, out, err = run(capsys, "verify", "--target", "ground", "--A", "1", "--B", "2",
                         "--D", "-4", "--r-max", grid[0], "--n-points", grid[1])
    assert code == 1
    assert out == ""
    assert err.startswith("error: grid too coarse: 1 - h^2 g / 12 reaches -")


def test_verify_ground_rescales_a_long_log_grid(capsys):
    # the inward sweep from r = 3000 grows past the rescale limit inside one
    # block of the kernel, whose start is rescaled before its end is formed
    payload = run_json(capsys, "verify", "--target", "ground", "--A", "1", "--B", "2",
                       "--D", "-4", "--r-max", "3000", "--n-points", "14145")
    assert payload["status"] == "pass"
    assert payload["shooting_energy"] == pytest.approx(-1.0, abs=1e-11)
    assert payload["nodes"] == 0
    assert payload["rescales"] >= 1


def test_verify_ground_reports_an_overflow_on_one_error_line(capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise IntegrationDiverged("integration overflowed at r = 2599.93", 13_960, 2599.93)

    monkeypatch.setattr(cli, "shoot_ground_energy", overflow)
    code, out, err = run(capsys, "verify", "--target", "ground", "--A", "1", "--B", "2",
                         "--D", "-4")
    assert (code, out, err) == (1, "", "error: integration overflowed at r = 2599.93\n")


def test_verify_ground_prints_every_shooting_result_field(capsys):
    # the result's energy is printed as shooting_energy, next to the
    # closed form; its other fields follow in field order
    payload = run_json(capsys, "verify", "--target", "ground", "--A", "1", "--B", "2",
                       "--D", "-4")
    fields = [f.name for f in dataclasses.fields(ShootingResult) if f.name != "energy"]
    assert list(payload) == ["status", "closed_form_energy", "shooting_energy",
                             "relative_energy_error", *fields,
                             "finite_difference_residual"]
    assert payload["converged"] is True


@pytest.mark.parametrize("value, code, status, err", [
    (0.5, 0, "pass", ""),
    (1.0, 0, "pass", ""),
    (2.0, 2, "fail", "fail: gap 2 > 1\n"),
    (-2.0, 2, "fail", "fail: gap 2 > 1\n"),
    (math.nan, 1, None, "error: gap is not finite, got nan\n"),
])
def test_check_passes_when_value_is_at_most_its_bound(capsys, monkeypatch,
                                                      value, code, status, err):
    # a check is a payload field with a bound, and passes when the field's
    # magnitude is at most the bound; a NaN field is never printed
    monkeypatch.setitem(cli._TARGETS, "ground",
                        (lambda args: ({"gap": value}, (), {"gap": 1.0}), ()))
    out = json.dumps({"status": status, "gap": value}) + "\n" if status else ""
    assert run(capsys, "verify", "--target", "ground") == (code, out, err)


def test_every_failed_check_on_one_line(capsys, monkeypatch):
    payload = {"a": 2.0, "b": 0.0, "c": 3.0}
    monkeypatch.setitem(cli._TARGETS, "series",
                        (lambda args: (payload, (), {"a": 1.0, "b": 0.0, "c": 0.0}), ()))
    assert run(capsys, "verify", "--target", "series") == (
        2, json.dumps({"status": "fail", **payload}) + "\n", "fail: a 2 > 1; c 3 > 0\n")


@pytest.mark.parametrize("argv", [
    ("verify", "--target", "ground", "--A", "1", "--B", "2", "--D", "-4"),
    VERIFY_SERIES_ARGS,
])
def test_verify_status_is_the_first_key(capsys, argv):
    assert next(iter(run_json(capsys, *argv))) == "status"


# each flag that one verify target reads and the other does not, with the other
FOREIGN = ([("series", dest) for dest in ("A", "B", "D", "e_lo", "e_hi", "tolerance")]
           + [("ground", dest) for dest in ("alpha", "beta", "kappa", "lam", "epsilon", "s_max")])
TARGET_ARGS = {"ground": ("--A", "1", "--B", "2", "--D", "-4"),
               "series": ("--alpha", "1", "--beta", "6", "--kappa", "1")}
FOREIGN_VALUES = {"epsilon": "1", "s_max": "20"}


def usage_error(capsys, *argv):
    """The error line of a call that must exit 1 with its command's usage."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage: invpower {argv[0]}")
    return err.splitlines()[-1]


@pytest.mark.parametrize("target, dest", FOREIGN)
def test_flag_of_another_target_is_a_usage_error(capsys, target, dest):
    option = _FLAGS[dest].option
    assert usage_error(capsys, "verify", "--target", target, *TARGET_ARGS[target],
                       option, FOREIGN_VALUES.get(dest, "1")) == (
        f"invpower verify: error: argument {option}: not allowed with --target {target}")


def test_first_foreign_flag_in_argv_order_is_reported(capsys):
    for extra, option in ((("--s-max", "2", "--beta", "5"), "--s-max"),
                          (("--be", "5", "--s-max=2"), "--beta")):
        assert usage_error(capsys, "verify", *TARGET_ARGS["ground"], *extra).endswith(
            f"argument {option}: not allowed with --target ground")


def test_target_defaults_to_ground_for_its_flags(capsys):
    assert usage_error(capsys, "verify", *TARGET_ARGS["series"]).endswith(
        "argument --alpha: not allowed with --target ground")


def test_target_from_the_config_file_owns_the_flags(capsys, tmp_path):
    config = tmp_path / "params.cfg"
    config.write_text("target = series\n")
    assert usage_error(capsys, "verify", "--config", str(config), *TARGET_ARGS["series"],
                       "--tolerance", "1e-8").endswith(
        "argument --tolerance: not allowed with --target series")
    payload = run_json(capsys, "verify", "--config", str(config), *TARGET_ARGS["series"])
    assert payload == run_json(capsys, "verify", "--target", "series", *TARGET_ARGS["series"])


def test_verify_flags_are_the_targets_flags():
    flags = _COMMANDS["verify"][2]
    assert len(set(flags)) == len(flags)
    assert set(flags) == {"target"}.union(*(dests for _, dests in cli._TARGETS.values()))
    # the order of the usage line and of an ambiguous prefix's matches
    assert flags == ("target", "A", "B", "D", "alpha", "beta", "kappa", "lam", "epsilon",
                     "s_max", "e_lo", "e_hi", "tolerance", "r_min", "r_max", "n_points")


def test_verify_help_usage_block(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith(
        "usage: invpower verify [-h] [--config CONFIG] [--target {ground,series}]\n"
        "                       [--A A] [--B B] [--D D] [--alpha ALPHA] [--beta BETA]\n"
        "                       [--kappa KAPPA] [--lambda LAM] [--epsilon {1,-1}]\n"
        "                       [--s-max S_MAX] [--e-lo E_LO] [--e-hi E_HI]\n"
        "                       [--tolerance TOL] [--r-min R_MIN] [--r-max R_MAX]\n"
        "                       [--n-points N_POINTS]\n"
        "\n"
        "options:\n")


def test_target_choices_are_the_targets_table(capsys):
    assert _FLAGS["target"].choices == tuple(cli._TARGETS) == ("ground", "series")
    with pytest.raises(SystemExit) as info:
        main(["verify", "--target", "bogus"])
    assert info.value.code == 1
    assert capsys.readouterr().err.endswith("invalid choice: 'bogus' (choose from 'ground', 'series')\n")


def test_header_stability(capsys, tmp_path):
    # golden contract: two runs produce byte-identical artifacts
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        run_json(capsys, "series", "--alpha", "1", "--beta", "6", "--kappa", "1",
                 "--lambda", "0.5", "--s-max", "10", "--coeff-out", str(path))
    assert paths[0].read_bytes() == paths[1].read_bytes()


REDUCE_ARGS = ("reduce", "--hbar", "1", "--dimension", "3", "--angular-momentum", "0",
               "--energy", "1")
SERIES_ARGS = ("series", "--alpha", "1", "--beta", "6", "--kappa", "1")


@pytest.mark.parametrize("argv", [
    pytest.param(("asym", "--alpha", "nan", "--beta", "4"), id="asym-alpha-nan"),
    pytest.param(("asym", "--alpha", "1", "--beta", "inf"), id="asym-beta-inf"),
    pytest.param(("ground", "--A", "inf", "--B", "2", "--D", "-4"), id="ground-A-inf"),
    pytest.param(("ground", "--A", "1", "--B", "2", "--D", "-4", "--C", "nan"),
                 id="ground-C-nan"),
    pytest.param(REDUCE_ARGS + ("--mass", "nan"), id="reduce-mass-nan"),
    pytest.param(REDUCE_ARGS + ("--mass", "1", "--term", "inf", "4"), id="reduce-term-inf"),
    pytest.param(SERIES_ARGS + ("--lambda", "nan"), id="series-lambda-nan"),
    pytest.param(SERIES_ARGS + ("--s-max", "400"), id="series-s-max-overflow"),
    pytest.param(("verify", "--target", "ground", "--A", "1", "--B", "2", "--D", "-4",
                  "--tolerance", "nan"), id="verify-tolerance-nan"),
    pytest.param(REDUCE_ARGS + ("--mass", "1", "--hbar", "1e308"), id="reduce-hbar-overflow"),
    pytest.param(REDUCE_ARGS + ("--mass", "1e308"), id="reduce-mass-overflow"),
    pytest.param(SERIES_ARGS + ("--lambda", "1e308"), id="series-lambda-overflow"),
    pytest.param(("ground", "--A", "1", "--B", "2", "--D=-1e308"), id="ground-D-overflow"),
    pytest.param(("ground", "--A", "1", "--B", "2", "--D", "-1e308"),
                 id="ground-D-overflow-separate-value"),
    pytest.param(("ground", "--A", "1", "--B", "1e308", "--D", "-4"), id="ground-B-overflow"),
    # a token that does not start with '--' is a value, so -inf and -nan
    # reach require_finite in both forms, not the parser's usage error
    pytest.param(("ground", "--A", "1", "--D", "-inf"), id="ground-D-minus-inf"),
    pytest.param(("ground", "--A", "1", "--D=-inf"), id="ground-D-minus-inf-joined"),
    pytest.param(("ground", "--A", "1", "--D", "-nan"), id="ground-D-minus-nan"),
    pytest.param(("ground", "--A", "1", "--D=-nan"), id="ground-D-minus-nan-joined"),
    # the residual overflows: only the final non-finite output check sees it
    pytest.param(("series", "--alpha", "1e308", "--beta", "6", "--kappa", "1"),
                 id="series-alpha-overflow"),
    # alpha * kappa overflows, so the forward solve stops at a_1
    pytest.param(("series", "--alpha", "1e308", "--beta", "4", "--kappa", "2"),
                 id="series-a1-overflow"),
])
def test_non_finite_input_and_overflow_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_series_default_grid_is_the_validity_range(capsys):
    payload = run_json(capsys, "series", "--alpha", "1", "--beta", "6",
                       "--kappa", "1", "--lambda", "0.5")
    assert payload["max_residual"] <= 1e-8


def test_usage_errors_exit_1(capsys):
    # exit code 2 is reserved for a failed verification
    with pytest.raises(SystemExit) as info:
        main(["asym", "--alpha", "1", "--beta", "6", "--bogus", "1"])
    assert info.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    for argv in (["--help"], ["--version"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0


def test_usage_error_names_the_command(capsys):
    # a call that names a command is parsed by that command's parser alone
    with pytest.raises(SystemExit) as info:
        main(["asym", "--alpha", "1", "--beta", "6", "--bogus", "1"])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: invpower asym")
    assert "invpower asym: error: unrecognized arguments: --bogus 1" in err


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--bogus", "asym"]])
def test_calls_without_a_command_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert capsys.readouterr().err.startswith("usage: invpower [-h] [--version]")


def test_successful_calls_import_no_argparse():
    # a fresh interpreter, since pytest itself imports argparse
    calls = [["reduce", "--mass", "1", "--hbar", "1", "--dimension", "3",
              "--angular-momentum", "0", "--energy", "1"],
             ["asym", "--alpha", "1", "--beta", "6"],
             ["series", "--alpha", "1", "--beta", "6", "--kappa", "1"],
             ["ground", "--A", "1", "--B", "2", "--D", "-4"],
             ["verify", "--target", "ground", "--A", "1", "--B", "2", "--D", "-4"],
             list(VERIFY_SERIES_ARGS)]
    script = ("import contextlib, io, sys\nfrom invpower.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    codes = [main(argv) for argv in {calls!r}]\n"
              "print(codes, 'argparse' in sys.modules)\n")
    path = [str(Path(invpower.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert (result.stdout, result.stderr) == (f"{[0] * len(calls)} False\n", "")


def test_verify_help_lists_each_targets_own_flags_under_it(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--help"])
    assert info.value.code == 0
    _, *blocks = capsys.readouterr().out.split("\n\n")
    sections = {}
    for block in blocks:
        title, *rows = block.splitlines()
        sections[title] = [row.split()[0] for row in rows]
    assert sections == {
        "options:": ["-h,", "--config", "--target", "--r-min", "--r-max", "--n-points"],
        "--target ground:": ["--A", "--B", "--D", "--e-lo", "--e-hi", "--tolerance"],
        "--target series:": ["--alpha", "--beta", "--kappa", "--lambda", "--epsilon",
                             "--s-max"],
    }


def test_argv_defaults_to_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["invpower", "asym", "--alpha", "4", "--beta", "6"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["gamma"] == 1.0
    monkeypatch.setattr("sys.argv", ["invpower", "--version"])
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == invpower.__version__


def test_negative_value_in_exponent_form(capsys):
    assert run_json(capsys, "ground", "--A", "1", "--B", "2", "--D", "-4e0") == \
        run_json(capsys, "ground", "--A", "1", "--B", "2", "--D", "-4")


@pytest.mark.parametrize("line", ["alpha = abc", "n_points = 1.5", "strategy = bogus",
                                  "alpha", "epsilon = 3", "lamda = 1.5", "lam = 1.5",
                                  # --term takes two values; --config names this file
                                  "term = 1 4", "config = other.cfg"])
def test_malformed_config_value_rejected(capsys, tmp_path, line):
    config = tmp_path / "params.cfg"
    config.write_text(f"alpha = 1\nbeta = 6\nkappa = 1\n{line}\n")
    code, out, err = run(capsys, "series", "--config", str(config))
    assert code == 1
    assert out == ""
    key = line.partition("=")[0].strip()
    assert err.startswith(f"error: config key '{key}'")
    assert err.count("\n") == 1


def test_config_key_is_the_option_name(capsys, tmp_path):
    config = tmp_path / "params.cfg"
    config.write_text("alpha = 1\nbeta = 6\nkappa = 1\nlambda = 1.5\ns-max = 30\n")
    from_file = run_json(capsys, "series", "--config", str(config))
    from_flags = run_json(capsys, "series", "--alpha", "1", "--beta", "6", "--kappa", "1",
                          "--lambda", "1.5", "--s-max", "30")
    assert from_file == from_flags
    assert from_file != run_json(capsys, "series", "--alpha", "1", "--beta", "6",
                                 "--kappa", "1", "--s-max", "30")


@pytest.mark.parametrize("argv", [
    ("series", "--alpha", "1e308", "--beta", "6", "--kappa", "1"),
    ("verify", "--target", "ground", "--A", "1e308", "--B", "0", "--D", "-1"),
])
def test_overflow_prints_only_the_error_line(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("exc", [
    MemoryError("Unable to allocate 3.73 GiB for an array with shape (500000000,)"),
    MemoryError()], ids=["numpy", "bare"])
def test_out_of_memory_prints_only_the_error_line(capsys, monkeypatch, exc):
    # a real allocation that large could be granted lazily and kill the process
    def handler(args):
        raise exc

    monkeypatch.setitem(cli._TARGETS, "series", (handler, cli._TARGETS["series"][1]))
    code, out, err = run(capsys, "verify", "--target", "series", "--alpha", "1",
                         "--beta", "6", "--kappa", "1", "--n-points", "100000000")
    assert code == 1
    assert out == ""
    assert err == f"error: {str(exc) or 'MemoryError'}\n"


def test_config_key_of_another_subcommands_flag_ignored(capsys, tmp_path):
    # C and wave_out are ground's flags, tolerance and e_lo verify --target
    # ground's; verify --target series reads none of them
    config = tmp_path / "params.cfg"
    config.write_text("C = 1\nwave_out = wave.csv\ntolerance = -3\ne_lo = 5\n")
    argv = ("verify", "--target", "series", "--alpha", "1", "--beta", "6", "--kappa", "1")
    assert run_json(capsys, *argv, "--config", str(config)) == run_json(capsys, *argv)


def test_config_tables_match_the_flags(capsys, tmp_path):
    # the CSV paths are config keys like any other
    base = ("series", "--alpha", "1", "--beta", "6", "--kappa", "1", "--n-points", "40")
    flags, config = tmp_path / "flags", tmp_path / "config"
    for folder in (flags, config):
        folder.mkdir()
    from_flags = run_json(capsys, *base, "--coeff-out", str(flags / "coeffs.csv"),
                          "--wave-out", str(flags / "wave.csv"))
    params = tmp_path / "params.cfg"
    params.write_text(f"coeff_out = {config / 'coeffs.csv'}\nwave-out = {config / 'wave.csv'}\n")
    assert run_json(capsys, *base, "--config", str(params)) == from_flags
    for name in ("coeffs.csv", "wave.csv"):
        assert (config / name).read_bytes() == (flags / name).read_bytes()


def test_table_path_flag_wins_over_config(capsys, tmp_path):
    params = tmp_path / "params.cfg"
    params.write_text(f"coeff_out = {tmp_path / 'config.csv'}\n")
    run_json(capsys, "series", "--alpha", "1", "--beta", "6", "--kappa", "1",
             "--config", str(params), "--coeff-out", str(tmp_path / "flag.csv"))
    assert sorted(path.name for path in tmp_path.iterdir()) == ["flag.csv", "params.cfg"]


def test_config_values_checked_when_read(capsys, tmp_path):
    # verify --target ground reads no s_max, yet its config value must still
    # be an int, as it must be on the command line
    config = tmp_path / "params.cfg"
    config.write_text("s_max = abc\n")
    code, out, err = run(capsys, "verify", "--target", "ground", "--A", "1", "--B", "2",
                         "--D", "-4", "--config", str(config))
    assert code == 1
    assert out == ""
    assert err == "error: config key 's_max': invalid int value: 'abc'\n"


def test_non_finite_result_writes_no_csv(capsys, tmp_path):
    paths = [tmp_path / "coeffs.csv", tmp_path / "wave.csv"]
    code, out, err = run(capsys, "series", "--alpha", "1e308", "--beta", "6",
                         "--kappa", "1", "--coeff-out", str(paths[0]),
                         "--wave-out", str(paths[1]))
    assert code == 1
    assert out == "" and err.startswith("error: max_residual is not finite")
    assert not any(path.exists() for path in paths)


def test_wave_table_holds_the_solution_and_its_residual(capsys, tmp_path):
    # every digit of the table: r, y = evaluate_solution and ode_residual,
    # each with 17 significant digits
    path = tmp_path / "wave.csv"
    run_json(capsys, "series", "--alpha", "1", "--beta", "6", "--kappa", "1",
             "--lambda", "0.5", "--s-max", "20", "--n-points", "64",
             "--wave-out", str(path))
    config = SeriesConfig(pot=PotentialMonomial(1.0, 6.0), kappa=1.0, lam=0.5,
                          epsilon=1, s_max=20)
    sol, origin = build_series(config), origin_params(config.pot)
    r = np.linspace(0.05, 0.2, 64)
    y = evaluate_solution(sol, origin, r)
    rows = zip(r, y.real, y.imag, ode_residual(sol, origin, r))
    expected = "r,re_y,im_y,residual\r\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\r\n" for row in rows)
    assert path.read_bytes() == expected.encode()


class TestParserReuse:
    """main builds its parser once per process; no call may see another's
    arguments or config."""

    def test_repeated_flag_does_not_carry_over(self, capsys):
        base = ("reduce", "--mass", "1", "--hbar", "1", "--dimension", "3",
                "--angular-momentum", "0", "--energy", "1")
        first = run_json(capsys, *base, "--term", "1", "4", "--term", "-2", "3")
        assert first["term_1_power"] == 3.0
        second = run_json(capsys, *base)
        assert second == {"kappa": 2.0, "lambda": 0.5}

    def test_config_does_not_carry_over(self, capsys, tmp_path):
        config = tmp_path / "params.cfg"
        config.write_text("alpha = 4\nbeta = 6\n")
        assert run_json(capsys, "asym", "--config", str(config))["gamma"] == 1.0
        code, out, err = run(capsys, "asym", "--alpha", "4")
        assert code == 1 and out == ""
        assert "beta" in err

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["ground", "--A", "1", "--D"])
        assert info.value.code == 1
        capsys.readouterr()
        assert run_json(capsys, "ground", "--A", "1", "--B", "2", "--D", "-4")["E"] == -1.0


class TestGrammar:
    """The edges of the flag grammar, which the table parser reads as
    argparse did."""

    def test_unique_prefix_names_the_option(self, capsys):
        assert run_json(capsys, "asym", "--al", "1", "--beta", "6") == \
            run_json(capsys, "asym", "--alpha", "1", "--beta", "6")
        assert run_json(capsys, "asym", "--al=1", "--be", "6") == \
            run_json(capsys, "asym", "--alpha", "1", "--beta", "6")

    def test_ambiguous_prefix_is_a_usage_error(self, capsys):
        assert usage_error(capsys, "verify", "--e", "1") == (
            "invpower verify: error: ambiguous option: --e could match --epsilon, --e-lo, --e-hi")

    @pytest.mark.parametrize("term", [("--term=1", "2"), ("--term", "1")])
    def test_term_takes_two_values(self, capsys, term):
        argv = ("reduce", "--mass", "1", "--hbar", "1", "--dimension", "3",
                "--angular-momentum", "0", "--energy", "1") + term
        assert usage_error(capsys, *argv) == (
            "invpower reduce: error: argument --term: expected 2 arguments")

    def test_option_is_not_a_value(self, capsys):
        assert usage_error(capsys, "ground", "--A", "1", "--D", "--B", "2") == (
            "invpower ground: error: argument --D: expected one argument")

    def test_repeated_flag_last_wins(self, capsys):
        assert run_json(capsys, "asym", "--alpha", "9", "--beta", "6", "--alpha", "1") == \
            run_json(capsys, "asym", "--alpha", "1", "--beta", "6")

    def test_help_after_other_flags_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["asym", "--alpha", "1", "--bogus", "-h", "--beta", "x"])
        assert info.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: invpower asym") and err == ""

    def test_help_lists_every_option_with_its_help(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--help"])
        assert info.value.code == 0
        # each option is indented; blank lines and section titles are not
        lines = [line for line in capsys.readouterr().out.split("\noptions:\n")[1].splitlines()
                 if line.startswith("  ")]
        for dest in ("config",) + _COMMANDS["verify"][2]:
            flag = _FLAGS[dest]
            line = next(line for line in lines if line.split()[0] == flag.option)
            assert flag.help is None or line.endswith(flag.help), line

    def test_every_flag_has_a_one_line_help(self):
        # --target's choices name the targets; every other flag says what it
        # takes in at most 54 characters, the help column at 78 columns
        for dest, flag in _FLAGS.items():
            assert (flag.help is None) == (dest == "target"), dest
            assert len(flag.help or "") <= 54, dest
