import csv
import json
import math
import warnings

import numpy as np
import pytest

from invpower import (PotentialMonomial, SeriesConfig, SeriesSolution,
                      origin_params, ode_residual)
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


def test_negative_value_in_exponent_form(capsys):
    assert run_json(capsys, "ground", "--A", "1", "--B", "2", "--D", "-4e0") == \
        run_json(capsys, "ground", "--A", "1", "--B", "2", "--D", "-4")


@pytest.mark.parametrize("line", ["alpha = abc", "n_points = 1.5", "strategy = bogus",
                                  "alpha", "epsilon = 3"])
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
