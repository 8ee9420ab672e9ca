"""Command-line interface: simulate, fit, evaluate, bench, persistence."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import jil.cli as cli
import jil.sim
from jil.cli import main
from jil.core import JilFit, Linear, Partition
from jil.policy import I2dr, PropensityModel, UniformRandom, ValueReport, recommend, select_dose
from jil.sim import ScenarioSpec, gen_scenario
from jil.tuning import CvReport, default_gamma, default_grid

from conftest import diverging_sgd_rows

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def s1_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "s1.csv"
    rc = main(["simulate", "--scenario", "1", "--n", "400", "--p", "4",
               "--seed", "11", "--out", str(path)])
    assert rc == 0
    return path


# ----------------------------------------------------------------- simulate


def test_simulate_header_and_row_count(tmp_path):
    out = tmp_path / "d.csv"
    rc = main(["simulate", "--scenario", "1", "--n", "5", "--p", "3",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "y,a,x1,x2,x3"
    assert len(lines) == 6


def test_simulate_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--scenario", "2", "--n", "50", "--p", "2", "--seed", "5",
          "--out", str(a)])
    main(["simulate", "--scenario", "2", "--n", "50", "--p", "2", "--seed", "5",
          "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_values_bitwise_match_generator(tmp_path):
    out = tmp_path / "d.csv"
    main(["simulate", "--scenario", "3", "--n", "40", "--p", "2", "--seed", "9",
          "--out", str(out)])
    d, _ = gen_scenario(ScenarioSpec(3, 40, 2, 9))
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    got_y = np.array([float(r[0]) for r in rows])
    got_a = np.array([float(r[1]) for r in rows])
    got_x = np.array([[float(v) for v in r[2:]] for r in rows])
    np.testing.assert_array_equal(got_y, d.outcomes)
    np.testing.assert_array_equal(got_a, d.treatments)
    np.testing.assert_array_equal(got_x, d.covariates)


def test_simulate_usage_errors(tmp_path, capsys):
    assert main(["simulate", "--scenario", "9", "--n", "5", "--p", "2",
                 "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["simulate"]) == 1
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------- fit


def test_fit_recovers_structure_and_writes_artifact(s1_csv, tmp_path, capsys):
    model = tmp_path / "model.json"
    rc = main(["fit", "--data", str(s1_csv), "--method", "ljil", "--lambda", "0",
               "--gamma", "default", "--seed", "3", "--out", str(model)])
    assert rc == 0
    report = capsys.readouterr().out
    art = json.loads(model.read_text())
    assert art["schema_version"] == "1"
    assert art["method"] == "ljil"
    assert art["m"] == 80
    assert len(art["partition"]) == 3
    cuts = [pair[1] / art["m"] for pair in art["partition"][:-1]]
    assert abs(cuts[0] - 0.35) <= 0.05 and abs(cuts[1] - 0.65) <= 0.05
    assert "segments 3" in report
    assert "change_points" in report and "theta" in report
    assert "objective" in report and "v_hat" in report
    assert art["provenance"]["n"] == 400 and art["provenance"]["p"] == 4
    assert len(art["models"]) == 3
    assert len(art["models"][0]["theta"]) == 5


def test_fit_auto_cv_smoke(tmp_path, capsys):
    data = tmp_path / "d.csv"
    main(["simulate", "--scenario", "1", "--n", "100", "--p", "2", "--seed", "2",
          "--out", str(data)])
    model = tmp_path / "m.json"
    rc = main(["fit", "--data", str(data), "--lambda", "auto", "--gamma", "auto",
               "--folds", "3", "--seed", "4", "--out", str(model)])
    assert rc == 0
    art = json.loads(model.read_text())
    assert art["lambda"] in (0.0, 1e-3, 1e-2)
    assert art["gamma"] > 0
    capsys.readouterr()


def test_fit_gamma_zero_cross_validates_lambda(s1_csv, tmp_path, capsys):
    # --gamma 0 with the default --lambda auto runs CV over lambda at gamma = 0
    model = tmp_path / "m.json"
    rc = main(["fit", "--data", str(s1_csv), "--gamma", "0", "--folds", "3",
               "--out", str(model)])
    assert rc == 0
    assert "error" not in capsys.readouterr().err
    art = json.loads(model.read_text())
    assert art["gamma"] == 0.0
    assert art["lambda"] in default_grid(400, 0).lambdas


@pytest.mark.parametrize(
    "lam_flag, gamma_flag",
    [("auto", "auto"), ("auto", "default"), ("auto", "0.05"), ("0.001", "auto")],
)
def test_fit_cv_grid_is_default_grid(s1_csv, tmp_path, monkeypatch, capsys, lam_flag, gamma_flag):
    grids = []
    real = cli.cv_select_ljil

    def capture(d, m, grid):
        grids.append(grid)
        return real(d, m, grid)

    monkeypatch.setattr(cli, "cv_select_ljil", capture)
    rc = main(["fit", "--data", str(s1_csv), "--lambda", lam_flag, "--gamma", gamma_flag,
               "--folds", "3", "--seed", "6", "--out", str(tmp_path / "m.json")])
    assert rc == 0
    capsys.readouterr()
    want = default_grid(400, 6, 3)
    (got,) = grids
    assert (got.k_folds, got.seed) == (3, 6)
    assert got.lambdas == (want.lambdas if lam_flag == "auto" else (0.001,))
    if gamma_flag == "auto":
        assert got.gammas == want.gammas
    elif gamma_flag == "default":
        assert got.gammas == (default_gamma(400),)
    else:
        assert got.gammas == (0.05,)


def test_fit_djil_cv_gammas_are_default_grid(tmp_path, monkeypatch, capsys):
    data = tmp_path / "d.csv"
    main(["simulate", "--scenario", "1", "--n", "40", "--p", "2", "--seed", "3",
          "--out", str(data)])
    seen = []

    def capture(d, m, grid, cfg):
        seen.append((grid, cfg.seed))
        scores = np.zeros((1, len(grid.gammas)))
        return CvReport(scores, 0.0, grid.gammas[0], np.zeros(d.n, dtype=np.int64))

    monkeypatch.setattr(cli, "cv_select_djil", capture)
    rc = main(["fit", "--data", str(data), "--method", "djil", "--c", "20",
               "--folds", "4", "--seed", "9", "--out", str(tmp_path / "m.json")])
    assert rc == 0
    capsys.readouterr()
    assert seen == [(replace(default_grid(40, 9, 4), lambdas=(0.0,)), 9)]


@pytest.mark.parametrize("lam_flag", ["0.5", "1e-3"])
def test_fit_djil_rejects_lambda_exit_1(tmp_path, monkeypatch, capsys, lam_flag):
    data = tmp_path / "d.csv"
    main(["simulate", "--scenario", "1", "--n", "40", "--p", "2", "--seed", "3",
          "--out", str(data)])
    monkeypatch.setattr(cli, "fit_djil", lambda *a: pytest.fail("fitted despite --lambda"))
    model = tmp_path / "m.json"
    capsys.readouterr()
    rc = main(["fit", "--data", str(data), "--method", "djil", "--lambda", lam_flag,
               "--gamma", "0.05", "--out", str(model)])
    assert rc == 1
    assert "--lambda" in capsys.readouterr().err
    assert not model.exists()


def test_fit_malformed_row_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,a,x1\n1.0,0.5,0.1\n2.0,0.7,oops\n1.5,0.2,0.3\n")
    rc = main(["fit", "--data", str(bad), "--gamma", "0.1", "--lambda", "0",
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "row 1" in err


@pytest.mark.parametrize("dose", ["inf", "-inf", "nan"])
def test_fit_non_finite_dose_names_row_exit_2(tmp_path, capsys, dose):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"y,a,x1\n1.0,0.5,0.1\n2.0,{dose},0.2\n1.5,0.2,0.3\n")
    model = tmp_path / "m.json"
    rc = main(["fit", "--data", str(bad), "--gamma", "0.1", "--lambda", "0",
               "--out", str(model)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "row 1" in err
    assert not model.exists()


@pytest.mark.parametrize("flags", [[], ["--gamma", "default"], ["--method", "djil"]])
def test_fit_one_row_exit_2(tmp_path, capsys, flags):
    # the default jump penalty 4 log(n) / n needs n >= 2
    one = tmp_path / "one.csv"
    one.write_text("y,a,x1\n1.0,0.5,0.1\n")
    model = tmp_path / "m.json"
    assert main(["fit", "--data", str(one), "--out", str(model), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err
    assert not model.exists()


def test_fit_bad_header_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("outcome,dose,x1\n1.0,0.5,0.1\n")
    rc = main(["fit", "--data", str(bad), "--out", str(tmp_path / "m.json")])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "text, message",
    [("", "data file is empty"), ("\n \n", "data file is empty"),
     ("y,a,x1\n1.0,0.5,0.1\n2.0,0.3\n", "expected 3 fields at row 1, got 2"),
     ("y,a,x1,x2\n", "dataset has no rows"),
     # doses outside [0, 1] with no range cannot be min-max scaled
     ("y,a,x1\n1.0,5.0,0.1\n2.0,5.0,0.2\n1.5,5.0,0.3\n",
      "treatment range is zero; cannot normalize")],
)
def test_fit_empty_file_or_short_row_exit_2(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    model = tmp_path / "m.json"
    assert main(["fit", "--data", str(bad), "--gamma", "0.1", "--lambda", "0",
                 "--out", str(model)]) == 2
    assert message in capsys.readouterr().err
    assert not model.exists()


def test_fit_missing_file_exit_2(tmp_path, capsys):
    rc = main(["fit", "--data", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    capsys.readouterr()


def test_fit_raw_treatments_normalized(tmp_path, capsys):
    lines, model = raw_dose_fit(tmp_path)
    doses = np.array([float(line.split(",")[1]) for line in lines[1:]])
    art = json.loads(model.read_text())
    assert art["provenance"]["a_min"] == pytest.approx(doses.min())
    assert art["provenance"]["a_max"] == pytest.approx(doses.max())
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(model), "--data", str(tmp_path / "raw.csv")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["v_hat"] == art["value"]["v_hat"]


def raw_dose_fit(tmp_path):
    """A fit on doses in [50, 300]: the data's lines and the artifact path."""
    rng = np.random.default_rng(8)
    n = 120
    doses = rng.uniform(50.0, 300.0, n)
    x = rng.uniform(-1, 1, n)
    y = np.where(doses < 175.0, 1.0, -1.0) + 0.2 * rng.standard_normal(n)
    lines = ["y,a,x1"] + [
        f"{float(y[i])!r},{float(doses[i])!r},{float(x[i])!r}" for i in range(n)
    ]
    data = tmp_path / "raw.csv"
    data.write_text("\n".join(lines) + "\n")
    model = tmp_path / "m.json"
    rc = main(["fit", "--data", str(data), "--lambda", "0", "--gamma", "0.05",
               "--c", "10", "--out", str(model)])
    assert rc == 0
    return lines, model


def test_evaluate_raw_doses_in_range_round_trip_bitwise(tmp_path, capsys):
    lines, model = raw_dose_fit(tmp_path)
    art = json.loads(model.read_text())
    # the training rows, reordered, are in range and map to the same cells
    data = tmp_path / "again.csv"
    data.write_text("\n".join([lines[0]] + lines[:0:-1]) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 0
    got = json.loads(capsys.readouterr().out)
    for key in ("v_hat", "sigma_hat", "ci_lo", "ci_hi"):
        assert float(got[key]).hex() == float(art["value"][key]).hex()


@pytest.mark.parametrize("row,scale", [(17, 1.0 + 1e-12), (3, 1.0 - 1e-12)])
def test_evaluate_dose_outside_fitted_range_exit_2(tmp_path, capsys, row, scale):
    lines, model = raw_dose_fit(tmp_path)
    art = json.loads(model.read_text())
    edge = art["provenance"]["a_max" if scale > 1.0 else "a_min"]
    fields = lines[row + 1].split(",")
    fields[1] = repr(edge * scale)
    lines[row + 1] = ",".join(fields)
    data = tmp_path / "out.csv"
    data.write_text("\n".join(lines) + "\n")
    plot = tmp_path / "plot.tsv"
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(model), "--data", str(data),
               "--plot-data", str(plot)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"at row {row} is outside the fitted range" in err
    assert not plot.exists()


def unit_or_raw_model(kind, s1_artifact, tmp_path):
    """(artifact path, data header) of a model fit on doses in [0, 1] (p = 4)
    or on raw doses in [50, 300] (p = 1)."""
    if kind == "raw":
        lines, model = raw_dose_fit(tmp_path)
        return model, lines[0]
    model = tmp_path / "unit.json"
    model.write_text(s1_artifact)
    return model, "y,a,x1,x2,x3,x4"


@pytest.mark.parametrize("kind", ["unit", "raw"])
def test_evaluate_header_only_csv_exit_2(s1_artifact, tmp_path, capsys, kind):
    model, header = unit_or_raw_model(kind, s1_artifact, tmp_path)
    data, plot = tmp_path / "empty.csv", tmp_path / "plot.tsv"
    data.write_text(header + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--data", str(data),
                 "--plot-data", str(plot)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: dataset has no rows\n")
    assert not plot.exists()


@pytest.mark.parametrize("dose", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", ["unit", "raw"])
def test_evaluate_non_finite_dose_names_row_exit_2(s1_artifact, tmp_path, capsys, kind, dose):
    model, header = unit_or_raw_model(kind, s1_artifact, tmp_path)
    width = len(header.split(",")) - 2
    rows = [header] + [",".join(["1.0", a] + ["0.5"] * width) for a in ("0.5", "1.0", dose)]
    data = tmp_path / "bad.csv"
    data.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: non-finite treatment at row 2\n")


@pytest.mark.parametrize("dose, row", [("1.5", 1), ("-0.25", 0)])
def test_evaluate_dose_outside_unit_range_exit_2(s1_artifact, tmp_path, capsys, dose, row):
    # a model fit on doses in [0, 1] records no range, so new doses are never
    # rescaled: one outside [0, 1] is rejected
    model, header = unit_or_raw_model("unit", s1_artifact, tmp_path)
    doses = ["0.5", "0.2", "0.9"]
    doses[row] = dose
    data = tmp_path / "bad.csv"
    data.write_text("\n".join([header] + [f"1.0,{a},0,0,0,0" for a in doses]) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 2
    assert capsys.readouterr().err == f"error: treatment outside [0, 1] at row {row}\n"


# ----------------------------------------------------------------- evaluate


def test_evaluate_round_trip_bitwise(s1_csv, tmp_path, capsys):
    model = tmp_path / "m.json"
    main(["fit", "--data", str(s1_csv), "--lambda", "0.001", "--gamma", "default",
          "--seed", "1", "--out", str(model)])
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(model), "--data", str(s1_csv),
               "--alpha", "0.05"])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    art = json.loads(model.read_text())
    assert got["v_hat"] == art["value"]["v_hat"]
    assert got["sigma_hat"] == art["value"]["sigma_hat"]
    assert got["ci_lo"] == art["value"]["ci_lo"]
    assert got["ci_hi"] == art["value"]["ci_hi"]


def test_evaluate_alpha_nesting(s1_csv, tmp_path, capsys):
    model = tmp_path / "m.json"
    main(["fit", "--data", str(s1_csv), "--lambda", "0", "--gamma", "default",
          "--out", str(model)])
    capsys.readouterr()
    main(["evaluate", "--model", str(model), "--data", str(s1_csv), "--alpha", "0.05"])
    r05 = json.loads(capsys.readouterr().out)
    main(["evaluate", "--model", str(model), "--data", str(s1_csv), "--alpha", "0.10"])
    r10 = json.loads(capsys.readouterr().out)
    assert r05["ci_lo"] < r10["ci_lo"] and r10["ci_hi"] < r05["ci_hi"]


def _strict_json(text):
    """json.loads that rejects the NaN and Infinity tokens."""
    return json.loads(text, parse_constant=lambda tok: pytest.fail(f"{tok} in JSON"))


def test_smallest_alpha_keeps_artifact_and_report_finite(s1_csv, tmp_path, capsys):
    # 1 - alpha/2 rounds to 1 for alpha <= 2**-53, where the quantile is
    # infinite; the flag rejects those (test_numeric_flag_out_of_bounds_exit_1)
    # and accepts the next double up
    smallest = repr(float(np.nextafter(2.0**-53, 1.0)))
    model = tmp_path / "m.json"
    assert main(["fit", "--data", str(s1_csv), "--lambda", "0", "--gamma", "default",
                 "--alpha", smallest, "--out", str(model)]) == 0
    capsys.readouterr()
    assert _strict_json(model.read_text())["value"]["alpha"] == float(smallest)
    assert main(["evaluate", "--model", str(model), "--data", str(s1_csv),
                 "--alpha", smallest]) == 0
    _strict_json(capsys.readouterr().out)


def test_evaluate_dimension_mismatch_exit_2(s1_csv, tmp_path, capsys):
    model = tmp_path / "m.json"
    main(["fit", "--data", str(s1_csv), "--lambda", "0", "--gamma", "default",
          "--out", str(model)])
    other = tmp_path / "p2.csv"
    main(["simulate", "--scenario", "1", "--n", "50", "--p", "2", "--seed", "3",
          "--out", str(other)])
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(model), "--data", str(other)])
    assert rc == 2
    capsys.readouterr()


def test_evaluate_corrupt_model_exit_2(s1_csv, tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["evaluate", "--model", str(broken), "--data", str(s1_csv)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema_version": "99"}))
    assert main(["evaluate", "--model", str(wrong), "--data", str(s1_csv)]) == 2
    capsys.readouterr()


def _drop_theta(art):
    del art["models"][0]["theta"]


def _unpair_partition(art):
    art["partition"][0] = [art["partition"][0][0]]


def _drop_p(art):
    del art["provenance"]["p"]


def _spell_m(art):
    art["m"] = "eighty"


def _gap_partition(art):
    # the second interval starts one cell after the first ends
    art["partition"][1][0] += 1


def _extra_model(art):
    art["models"].append(art["models"][0])


def _empirical_propensity(art):
    # an otherwise well-formed payload of a kind the reader does not know
    k = len(art["partition"])
    art["propensity"].update(kind="empirical", freqs=[1.0 / k] * k)


def _raise_floor(art):
    # the propensity floor is a constant of the program, not of the artifact
    art["propensity"]["floor"] = 0.2


def _fractional_edges(art):
    # both ends of an inner edge truncate to the same integer
    b = art["partition"][0][1]
    art["partition"][0][1] = b + 0.7
    art["partition"][1][0] = b + 0.2


def _bool_edge(art):
    art["partition"][0][0] = False


def _fractional_seed(art):
    art["provenance"]["seed"] = 3.9


def _float_p(art):
    art["provenance"]["p"] = float(art["provenance"]["p"])


def _string_theta(art):
    art["models"][0]["theta"] = [str(t) for t in art["models"][0]["theta"]]


def _bool_theta(art):
    art["models"][0]["theta"][0] = True


def _scalar_theta(art):
    art["models"][0]["theta"] = 3.0


def _nan_theta(art):
    art["models"][0]["theta"][0] = float("nan")


def _nan_propensity_weight(art):
    art["propensity"]["weights"][0][0] = float("nan")


def _flat_propensity_weights(art):
    art["propensity"]["weights"] = [row[0] for row in art["propensity"]["weights"]]


def _list_lambda(art):
    art["lambda"] = [art["lambda"]]


def _list_floor(art):
    art["propensity"]["floor"] = [art["propensity"]["floor"]]


def _list_dose_range(art):
    art["provenance"]["a_min"], art["provenance"]["a_max"] = [0.0], [1.0]


def _unknown_method(art):
    art["method"] = "xjil"


@pytest.fixture(scope="module")
def s1_artifact(s1_csv, tmp_path_factory):
    model = tmp_path_factory.mktemp("model") / "m.json"
    assert main(["fit", "--data", str(s1_csv), "--lambda", "0", "--gamma", "default",
                 "--out", str(model)]) == 0
    return model.read_text()


def evaluate_corrupted(text, corrupt, data, tmp_path, capsys):
    """(exit code, stderr) of evaluate on a corrupted copy of an artifact,
    checking that the error is reported as one, not as an internal failure."""
    art = json.loads(text)
    corrupt(art)
    model = tmp_path / "m.json"
    model.write_text(json.dumps(art))
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(model), "--data", str(data)])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err
    return rc, err


@pytest.mark.parametrize(
    "corrupt",
    [_drop_theta, _unpair_partition, _gap_partition, _extra_model, _drop_p, _spell_m,
     _empirical_propensity, _raise_floor, _fractional_edges, _bool_edge, _fractional_seed,
     _float_p, _string_theta, _bool_theta, _scalar_theta, _nan_theta, _nan_propensity_weight,
     _flat_propensity_weights, _list_lambda, _list_floor, _list_dose_range, _unknown_method],
)
def test_evaluate_malformed_model_fields_exit_2(s1_csv, s1_artifact, tmp_path, capsys, corrupt):
    assert evaluate_corrupted(s1_artifact, corrupt, s1_csv, tmp_path, capsys)[0] == 2


@pytest.mark.parametrize("key", cli.ARTIFACT_KEYS)
def test_evaluate_model_missing_key_exit_2(s1_csv, s1_artifact, tmp_path, capsys, key):
    def drop(art):
        del art[key]

    rc, err = evaluate_corrupted(s1_artifact, drop, s1_csv, tmp_path, capsys)
    assert rc == 2 and key in err


def test_evaluate_model_not_an_object_exit_2(s1_csv, tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text("[1, 2]")
    assert main(["evaluate", "--model", str(model), "--data", str(s1_csv)]) == 2
    assert "must contain a JSON object" in capsys.readouterr().err


def _float_layer_size(art):
    art["models"][0]["layer_sizes"][0] = float(art["models"][0]["layer_sizes"][0])


def _string_weight(art):
    art["models"][0]["weights"][0][0][0] = "0.5"


def _nan_bias(art):
    art["models"][0]["biases"][0][0] = float("nan")


def _short_bias(art):
    art["models"][0]["biases"][0] = art["models"][0]["biases"][0][:1]


def _narrow_weight(art):
    art["models"][0]["weights"][0] = [row[:1] for row in art["models"][0]["weights"][0]]


@pytest.mark.parametrize(
    "corrupt", [_float_layer_size, _string_weight, _nan_bias, _short_bias, _narrow_weight]
)
def test_evaluate_malformed_network_fields_exit_2(tmp_path, capsys, corrupt):
    data = tmp_path / "d.csv"
    main(["simulate", "--scenario", "1", "--n", "80", "--p", "2", "--seed", "13",
          "--out", str(data)])
    model = tmp_path / "m.json"
    assert main(["fit", "--data", str(data), "--method", "djil", "--c", "20",
                 "--gamma", "0.1", "--seed", "5", "--out", str(model)]) == 0
    assert evaluate_corrupted(model.read_text(), corrupt, data, tmp_path, capsys)[0] == 2


def test_evaluate_plot_data_preferences(s1_csv, tmp_path, capsys):
    model = tmp_path / "m.json"
    main(["fit", "--data", str(s1_csv), "--lambda", "0", "--gamma", "default",
          "--seed", "2", "--out", str(model)])
    capsys.readouterr()
    doses = {}
    for pref in ("min", "max", "mid", "uniform"):
        tsv = tmp_path / f"plot_{pref}.tsv"
        rc = main(["evaluate", "--model", str(model), "--data", str(s1_csv),
                   "--pref", pref, "--plot-data", str(tsv)])
        assert rc == 0
        capsys.readouterr()
        lines = tsv.read_text().splitlines()
        assert lines[0] == "index\tlo\thi\tdose"
        assert len(lines) == 401
        rows = [line.split("\t") for line in lines[1:]]
        lo = np.array([float(r[1]) for r in rows])
        hi = np.array([float(r[2]) for r in rows])
        dose = np.array([float(r[3]) for r in rows])
        assert np.all((lo <= dose) & (dose <= hi))
        doses[pref] = dose
    np.testing.assert_allclose(
        doses["mid"], (doses["min"] + doses["max"]) / 2.0, rtol=0, atol=1e-15
    )


def test_evaluate_uniform_pref_deterministic(s1_csv, tmp_path, capsys):
    model = tmp_path / "m.json"
    main(["fit", "--data", str(s1_csv), "--lambda", "0", "--gamma", "default",
          "--seed", "6", "--out", str(model)])
    t1, t2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    main(["evaluate", "--model", str(model), "--data", str(s1_csv),
          "--pref", "uniform", "--plot-data", str(t1)])
    main(["evaluate", "--model", str(model), "--data", str(s1_csv),
          "--pref", "uniform", "--plot-data", str(t2)])
    assert t1.read_bytes() == t2.read_bytes()
    capsys.readouterr()


def test_evaluate_plot_data_uniform_matches_select_dose(s1_csv, tmp_path, capsys):
    # every row's interval is the recommendation at that row's covariates, and
    # the doses are one select_dose call per row, in row order, on a fresh
    # UniformRandom seeded by the artifact's seed
    model, tsv = tmp_path / "m.json", tmp_path / "u.tsv"
    main(["fit", "--data", str(s1_csv), "--lambda", "0", "--gamma", "default",
          "--seed", "5", "--out", str(model)])
    assert main(["evaluate", "--model", str(model), "--data", str(s1_csv),
                 "--pref", "uniform", "--plot-data", str(tsv)]) == 0
    capsys.readouterr()
    rule = I2dr(cli._read_artifact(str(model))[0])
    X = np.loadtxt(s1_csv, delimiter=",", skiprows=1)[:, 2:]
    pref = UniformRandom(5)
    want = ["index\tlo\thi\tdose"]
    for i, x in enumerate(X):
        iv = recommend(rule, x)
        cols = (iv.lo_frac, iv.hi_frac, select_dose(iv, pref))
        want.append("\t".join([str(i)] + [repr(float(v)) for v in cols]))
    assert tsv.read_text().splitlines() == want


# --------------------------------------------------------------------- djil


def test_fit_djil_round_trip(tmp_path, capsys):
    data = tmp_path / "d.csv"
    main(["simulate", "--scenario", "1", "--n", "80", "--p", "2", "--seed", "13",
          "--out", str(data)])
    model = tmp_path / "m.json"
    rc = main(["fit", "--data", str(data), "--method", "djil", "--c", "20",
               "--gamma", "0.1", "--seed", "5", "--out", str(model)])
    assert rc == 0
    capsys.readouterr()
    art = json.loads(model.read_text())
    assert art["method"] == "djil"
    assert art["lambda"] == 0.0
    assert "layer_sizes" in art["models"][0]
    rc = main(["evaluate", "--model", str(model), "--data", str(data)])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got["v_hat"] == art["value"]["v_hat"]


def test_fit_djil_diverging_training_exit_2_without_artifact(tmp_path, capsys):
    y, a, X = diverging_sgd_rows()
    data = tmp_path / "d.csv"
    rows = ["y,a,x1,x2"] + [",".join(f"{v:.17g}" for v in row) for row in zip(y, a, *X.T)]
    data.write_text("\n".join(rows) + "\n")
    model = tmp_path / "m.json"
    rc = main(["fit", "--data", str(data), "--method", "djil", "--gamma", "default",
               "--out", str(model)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert re.match(r"error: network training on \[[\d.]+, [\d.]+[)\]] diverged", err)
    assert "nan" not in out
    assert not model.exists()


# -------------------------------------------------------------------- bench


def test_bench_deterministic_tsv(capsys):
    rc = main(["bench", "--scenario", "1", "--n", "120", "--p", "4",
               "--reps", "2", "--seed", "4"])
    assert rc == 0
    out1 = capsys.readouterr().out
    rc = main(["bench", "--scenario", "1", "--n", "120", "--p", "4",
               "--reps", "2", "--seed", "4"])
    assert rc == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    lines = out1.splitlines()
    assert len(lines) == 2
    header = lines[0].split("\t")
    row = dict(zip(header, lines[1].split("\t")))
    assert row["scenario"] == "1" and row["reps"] == "2"
    assert 0.0 <= float(row["coverage_pct"]) <= 100.0
    assert float(row["mean_v_hat"]) == pytest.approx(1.34, abs=0.5)


# ------------------------------------------------------------- persistence


def test_artifact_created_at_honors_epoch_env(s1_csv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    main(["fit", "--data", str(s1_csv), "--lambda", "0", "--gamma", "default",
          "--seed", "9", "--out", str(m1)])
    main(["fit", "--data", str(s1_csv), "--lambda", "0", "--gamma", "default",
          "--seed", "9", "--out", str(m2)])
    capsys.readouterr()
    assert m1.read_bytes() == m2.read_bytes()


@pytest.mark.parametrize("epoch", ["abc", "99999999999999"])
def test_fit_rejects_bad_source_date_epoch_before_reading_data_exit_1(
    tmp_path, monkeypatch, capsys, epoch
):
    # the variable is parsed before the data file is opened: a missing file
    # would exit 2
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    model = tmp_path / "m.json"
    rc = main(["fit", "--data", str(tmp_path / "absent.csv"), "--lambda", "0",
               "--gamma", "default", "--out", str(model)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: SOURCE_DATE_EPOCH must be a Unix time in seconds, got {epoch!r}\n"
    )
    assert not model.exists()


EXTREMES = [5e-324, -0.0, 1.7976931348623157e308, 0.1, 1 / 3]


def extreme_artifact_parts():
    """A two-interval L-JIL fit, propensity and value whose theta and
    propensity weights hold the smallest subnormal, -0.0, the largest double,
    and 0.1 and 1/3, which have no exact binary form."""
    part = Partition.from_edges([0, 1, 2], 2)
    thetas = np.array([EXTREMES, EXTREMES[::-1]])
    fit = JilFit(partition=part, models=tuple(Linear(t) for t in thetas), m=2,
                 lam=0.1, gamma=1 / 3, objective=0.1)
    prop = PropensityModel(part, thetas.copy())
    return fit, prop, ValueReport(0.1, 1 / 3, -0.0, 0.5, 0.05)


def test_artifact_round_trips_extreme_doubles_bitwise(tmp_path):
    fit, prop, value = extreme_artifact_parts()
    provenance = {"n": 10, "p": 4, "seed": 0, "created_at": "2023-11-14T22:13:20+00:00",
                  "a_min": None, "a_max": None}
    model = tmp_path / "m.json"
    model.write_text(cli._json(cli._artifact_dict(fit, prop, value, provenance)) + "\n")
    got, got_prop, p, seed, a_range = cli._read_artifact(str(model))
    for want, mod in zip(fit.models, got.models):
        assert mod.theta.tobytes() == want.theta.tobytes()
    assert got_prop.weights.tobytes() == prop.weights.tobytes()
    assert (got.lam, got.gamma, got.objective) == (fit.lam, fit.gamma, fit.objective)
    assert (p, seed, a_range) == (4, 0, None)


# an artifact as earlier releases wrote it: 17 significant digits, lists inline
LEGACY_ARTIFACT = """{
  "schema_version": "1",
  "method": "ljil",
  "m": 2,
  "lambda": 0.10000000000000001,
  "gamma": 0.33333333333333331,
  "objective": 0.10000000000000001,
  "partition": [[0, 1], [1, 2]],
  "models": [{
    "theta": [4.9406564584124654e-324, -0, 1.7976931348623157e+308, 0.10000000000000001, 0.33333333333333331]
  }, {
    "theta": [0.33333333333333331, 0.10000000000000001, 1.7976931348623157e+308, -0, 4.9406564584124654e-324]
  }],
  "propensity": {
    "kind": "multinomial",
    "floor": 0.01,
    "weights": [[4.9406564584124654e-324, -0, 1.7976931348623157e+308, 0.10000000000000001, 0.33333333333333331], [0.33333333333333331, 0.10000000000000001, 1.7976931348623157e+308, -0, 4.9406564584124654e-324]]
  },
  "value": {
    "v_hat": 0.10000000000000001,
    "sigma_hat": 0.33333333333333331,
    "ci_lo": -0,
    "ci_hi": 0.5,
    "alpha": 0.050000000000000003
  },
  "provenance": {
    "n": 10,
    "p": 4,
    "seed": 0,
    "created_at": "2023-11-14T22:13:20+00:00",
    "a_min": null,
    "a_max": null
  }
}
"""


def test_legacy_17_digit_artifact_decodes_to_the_same_doubles(tmp_path):
    fit, prop, _ = extreme_artifact_parts()
    model = tmp_path / "old.json"
    model.write_text(LEGACY_ARTIFACT)
    got, got_prop, _, _, _ = cli._read_artifact(str(model))
    # that format wrote -0.0 as "-0", a JSON integer, which reads back as +0.0
    # (as it did when it was written); every other double keeps its bits
    thetas = np.array([m.theta for m in fit.models]) + 0.0
    assert np.array([m.theta for m in got.models]).tobytes() == thetas.tobytes()
    assert got_prop.weights.tobytes() == (prop.weights + 0.0).tobytes()
    assert (got.lam, got.gamma, got.objective) == (fit.lam, fit.gamma, fit.objective)


def run_jil(*args):
    """`python -m jil` in a fresh process, which reports overflow warnings
    rather than raising them as the test configuration does."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "jil", *args], capture_output=True,
                          text=True, env=env)


def write_rows(path, y, a, X):
    rows = [",".join(["y", "a"] + [f"x{j + 1}" for j in range(X.shape[1])])]
    rows += [",".join(repr(float(v)) for v in row) for row in zip(y, a, *X.T)]
    path.write_text("\n".join(rows) + "\n")


def assert_one_error_line(proc, message):
    assert proc.returncode == 2
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and errors[0].startswith("error: " + message)
    assert "Traceback" not in proc.stderr


def test_fit_overflowing_outcomes_exit_2_without_artifact(tmp_path):
    # 200 rows of 1e160 * N(0, 1) outcomes: their moments overflow, which the
    # cost layer rejects before any cost is computed
    rng = np.random.default_rng(0)
    data, model = tmp_path / "big.csv", tmp_path / "m.json"
    write_rows(data, 1e160 * rng.standard_normal(200), rng.random(200),
               rng.uniform(-1, 1, (200, 2)))
    proc = run_jil("fit", "--data", str(data), "--lambda", "0", "--gamma", "default",
                   "--out", str(model))
    assert_one_error_line(proc, "outcomes are too large: their moments overflow")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["big.csv"]


def big_outcomes(s1_csv, path, scale):
    """The s1 rows with outcomes scale * N(0, 1), written to path."""
    raw = np.loadtxt(s1_csv, delimiter=",", skiprows=1)
    write_rows(path, scale * np.random.default_rng(1).standard_normal(len(raw)),
               raw[:, 1], raw[:, 2:])


def test_evaluate_overflowing_term_sum_reports_finite_mean(s1_csv, s1_artifact, tmp_path, capsys):
    # a model fit on ordinary data, evaluated on 1e307 * N(0, 1) outcomes:
    # the sum of the AIPW terms overflows, but their mean and sigma_hat are
    # finite and are reported, with the plot data
    model, data, tsv = tmp_path / "m.json", tmp_path / "big.csv", tmp_path / "p.tsv"
    model.write_text(s1_artifact)
    big_outcomes(s1_csv, data, 1e307)
    assert main(["evaluate", "--model", str(model), "--data", str(data),
                 "--plot-data", str(tsv)]) == 0
    got = json.loads(capsys.readouterr().out)
    assert all(math.isfinite(v) for v in got.values())
    assert 1e306 < got["sigma_hat"] < 1e308
    assert tsv.exists()


def test_evaluate_infinite_terms_of_both_signs_exit_2(s1_csv, s1_artifact, tmp_path):
    # outcomes of +-1.5e308 overflow AIPW terms to +inf and -inf, whose exact
    # sum is undefined (math.fsum refuses inf - inf); the report is not
    # finite, which is an error, not an internal failure
    model, data = tmp_path / "m.json", tmp_path / "huge.csv"
    model.write_text(s1_artifact)
    raw = np.loadtxt(s1_csv, delimiter=",", skiprows=1)
    signs = np.sign(np.random.default_rng(1).standard_normal(len(raw)))
    write_rows(data, 1.5e308 * signs, raw[:, 1], raw[:, 2:])
    proc = run_jil("evaluate", "--model", str(model), "--data", str(data))
    assert_one_error_line(proc, "the result is not finite")


def test_evaluate_large_outcomes_finite_sigma_hat(s1_csv, s1_artifact, tmp_path, capsys):
    # at 1e155 * N(0, 1) outcomes the squared deviations would overflow, but
    # sigma_hat (about 1.7e155) is finite and is reported; the test
    # configuration turns an overflow warning into exit 3
    model, data = tmp_path / "m.json", tmp_path / "big.csv"
    model.write_text(s1_artifact)
    big_outcomes(s1_csv, data, 1e155)
    assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 0
    got = json.loads(capsys.readouterr().out)
    assert all(math.isfinite(v) for v in got.values())
    assert 1e154 < got["sigma_hat"] < 1e156


def test_failed_rename_leaves_target_and_no_temp_file(tmp_path, monkeypatch, capsys):
    target = tmp_path / "x.csv"
    target.write_text("old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    rc = main(["simulate", "--scenario", "1", "--n", "5", "--p", "2", "--out", str(target)])
    assert rc == 2
    assert "rename refused" in capsys.readouterr().err
    assert target.read_text() == "old\n"
    assert [f.name for f in tmp_path.iterdir()] == ["x.csv"]


def test_internal_error_exit_3(tmp_path, monkeypatch, capsys):
    def boom(spec):
        raise RuntimeError("exploded")

    monkeypatch.setattr(cli, "gen_scenario", boom)
    rc = main(["simulate", "--scenario", "1", "--n", "5", "--p", "2",
               "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    capsys.readouterr()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "jil", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "evaluate" in proc.stdout


def test_bench_one_row_exit_2(monkeypatch, capsys):
    # the sample size is checked before the 10^6-draw v_opt run
    def boom(*args):
        raise AssertionError("v_opt computed before the sample-size check")

    monkeypatch.setattr(jil.sim, "true_optimal_value", boom)
    assert main(["bench", "--n", "1", "--reps", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err


@pytest.mark.parametrize("method", ["ljil", "djil"])
def test_bench_one_driver_for_both_methods(monkeypatch, capsys, method):
    seen = {}

    def fake(reps, n, seed, **kw):
        seen.update(kw, reps=reps, n=n, seed=seed)
        return {"mean_v_hat": 1.0, "mean_sigma_hat": 1.0, "coverage_pct": 100.0,
                "mean_segments": 1.0, "mean_l2": None, "v_opt": 1.0}

    monkeypatch.setattr(cli, "replicate_table1", fake)
    rc = main(["bench", "--n", "40", "--reps", "2", "--method", method])
    assert rc == 0
    assert seen == {"reps": 2, "n": 40, "seed": 0, "scenario": 1, "p": 4, "c": 5.0,
                    "method": method}
    assert capsys.readouterr().out.splitlines()[1].split("\t")[3] == method


# ------------------------------------------------------------------ parser

_FLAG_BASE = {
    "simulate": ["simulate", "--scenario", "1", "--n", "5", "--out", "x.csv"],
    "fit": ["fit", "--data", "d.csv", "--out", "m.json"],
    "evaluate": ["evaluate", "--model", "m.json", "--data", "d.csv"],
    "bench": ["bench", "--n", "5", "--reps", "1"],
}
_ALL_BAD = ("0", "-1", "nan", "inf", "x")


_BAD_FLAGS = [
    ("simulate", "--n", _ALL_BAD),
    ("simulate", "--p", _ALL_BAD),
    ("bench", "--n", _ALL_BAD),
    ("bench", "--p", _ALL_BAD),
    ("bench", "--reps", _ALL_BAD),
    ("bench", "--c", _ALL_BAD),
    ("fit", "--c", _ALL_BAD),
    ("fit", "--folds", _ALL_BAD),
    ("fit", "--alpha", _ALL_BAD + ("1e-17",)),
    ("evaluate", "--alpha", _ALL_BAD + ("1e-17",)),
    ("fit", "--lambda", ("-1", "nan", "inf", "x")),
    ("fit", "--gamma", ("-1", "nan", "inf", "x")),
]


@pytest.mark.parametrize(
    "command, flag, bad", _BAD_FLAGS, ids=[c + f for c, f, _ in _BAD_FLAGS]
)
def test_numeric_flag_out_of_bounds_exit_1(monkeypatch, capsys, command, flag, bad):
    for name in ("cmd_simulate", "cmd_fit", "cmd_evaluate", "cmd_bench"):
        monkeypatch.setattr(cli, name, lambda args: pytest.fail("parsed a bad flag"))
    for tok in bad:
        assert main(_FLAG_BASE[command] + [flag, tok]) == 1, (flag, tok)
        assert flag in capsys.readouterr().err, (flag, tok)


def test_numeric_flag_edge_values_parse():
    parse = cli.build_parser().parse_args
    fit = _FLAG_BASE["fit"]
    assert parse(fit + ["--folds", "2"]).folds == 2
    assert parse(fit + ["--alpha", "0.5"]).alpha == 0.5
    assert parse(fit + ["--lambda", "AUTO"]).lam == "auto"
    assert parse(fit + ["--gamma", "Default"]).gamma == "default"
    assert parse(fit + ["--lambda", "0", "--gamma", "0"]).lam == 0.0
    assert parse(_FLAG_BASE["bench"] + ["--c", "0.5"]).c == 0.5
