import csv
import json
import math
import warnings

import numpy as np
import pytest

import invpower
from invpower import series
from invpower import (PotentialMonomial, SeriesConfig, SeriesSolution,
                      build_series, evaluate_solution, origin_params, ode_residual)
from invpower.cli import main


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


def test_series_odd_beta_exit(capsys):
    code, out, err = run(capsys, "series", "--alpha", "1", "--beta", "5",
                         "--kappa", "1")
    assert code == 1
    assert "even" in err


def test_config_file_merging(capsys, tmp_path):
    config = tmp_path / "params.cfg"
    config.write_text("alpha = 4\nbeta = 6\n")
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
    # the residual overflows: only the final non-finite output check sees it
    pytest.param(("series", "--alpha", "1e308", "--beta", "6", "--kappa", "1"),
                 id="series-alpha-overflow"),
    # alpha * kappa overflows, so the forward solve stops at a_1
    pytest.param(("series", "--alpha", "1e308", "--beta", "4", "--kappa", "2",
                  "--strategy", "windowed"), id="series-windowed-overflow"),
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
                                  "alpha", "epsilon = 3", "lamda = 1.5", "lam = 1.5"])
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


def test_config_key_of_another_subcommands_flag_ignored(capsys, tmp_path):
    # s_min and strategy are series flags; verify --target series has neither
    config = tmp_path / "params.cfg"
    config.write_text("s_min = -3\nstrategy = windowed\n")
    argv = ("verify", "--target", "series", "--alpha", "1", "--beta", "6", "--kappa", "1")
    assert run_json(capsys, *argv, "--config", str(config)) == run_json(capsys, *argv)


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
