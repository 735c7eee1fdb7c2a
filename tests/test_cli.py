import json
import re
import time

import numpy as np
import pytest

from bnineq import (
    FactorShape,
    PureState,
    canonical_counterexample,
    deformed_counterexample,
    haar_state,
    save_state,
    state_to_document,
)
from bnineq.cli import main

TWO_LN_TWO = 1.3862943611198906


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


# ------------------------------------------------------------- happy paths


def test_counterexample_reports_the_violation(capsys):
    code, doc = run_json(capsys, ["counterexample", "--dim", "2"])
    assert code == 0
    assert doc["lhs"] < 1e-10
    assert abs(doc["rhs_product"]) < 1e-10
    assert abs(doc["rhs_entangled"] - TWO_LN_TWO) < 1e-9
    assert abs(doc["gap_entangled"] + TWO_LN_TWO) < 1e-9
    assert abs(doc["theoretical_entangled_rhs"] - TWO_LN_TWO) < 1e-15
    assert doc["residual_entangled"] < 1e-10


def test_counterexample_base_two(capsys):
    code, doc = run_json(capsys, ["counterexample", "--dim", "2", "--log-base", "2"])
    assert code == 0
    assert abs(doc["rhs_entangled"] - 2.0) < 1e-9
    assert abs(doc["theoretical_entangled_rhs"] - 2.0) < 1e-15


def test_counterexample_dim_three(capsys):
    code, doc = run_json(capsys, ["counterexample", "--dim", "3"])
    assert code == 0
    assert abs(doc["rhs_entangled"] - 2.0 * np.log(3.0)) < 1e-9


def test_deform_reports_unique_spectrum_and_negative_gap(capsys):
    code, doc = run_json(capsys, ["deform", "--dim", "2", "--eps", "0.1"])
    assert code == 0
    assert doc["unique_spectrum"] is True
    assert doc["gap"] < -1.0
    assert doc["coefficients"] == [0.26875, 0.25625, 0.24375, 0.23125]


def test_deform_gap_approaches_the_ceiling_as_eps_shrinks(capsys):
    gaps = {}
    for eps in ("0.2", "0.1", "0.05"):
        _, doc = run_json(capsys, ["deform", "--dim", "2", "--eps", eps])
        gaps[eps] = doc["gap"]
    assert gaps["0.2"] > gaps["0.1"] > gaps["0.05"]
    assert gaps["0.05"] > -TWO_LN_TWO


def test_check_on_the_canonical_state(capsys, tmp_path):
    path = tmp_path / "canon.json"
    save_state(canonical_counterexample(2).state, path)
    code, doc = run_json(capsys, ["check", "--input", str(path)])
    assert code == 0
    assert doc["lhs"] < 1e-10
    assert doc["residual"] < 1e-9
    assert doc["decomposition_source"] == "svd"
    assert np.allclose(doc["coefficients"], [0.25] * 4, atol=1e-10)


def test_maximize_from_dim(capsys):
    code, doc = run_json(capsys, ["maximize", "--dim", "2", "--seed", "1"])
    assert code == 0
    assert doc["best_rhs"] >= TWO_LN_TWO - 0.01
    assert doc["best_rhs"] >= doc["initial_rhs"] - 1e-10
    assert doc["blocks"] == [[0, 1, 2, 3]]
    assert "sweeps_used" in doc["search"]


def test_maximize_from_file_without_freedom(capsys, tmp_path):
    state, _ = deformed_counterexample(2, 0.1)
    path = tmp_path / "deformed.json"
    save_state(state.state, path)
    code, doc = run_json(capsys, ["maximize", "--input", str(path)])
    assert code == 0
    assert abs(doc["best_rhs"] - doc["initial_rhs"]) < 1e-10
    assert all(len(b) == 1 for b in doc["blocks"])


def test_check_and_maximize_accept_a_small_schmidt_coefficient(capsys, tmp_path):
    # sqrt(1 - lam)|0000> + sqrt(lam)|1111> is a valid unit vector; cutting
    # its second Schmidt term would fail the residual gate by sqrt(lam).
    lam = 1e-13
    amps = np.zeros(16)
    amps[0], amps[15] = np.sqrt(1.0 - lam), np.sqrt(lam)
    path = tmp_path / "tail.json"
    save_state(PureState(FactorShape((2, 2, 2, 2)), amps), path)
    code, out = run(capsys, ["check", "--input", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["coefficients"]) == 2
    assert doc["residual"] <= 1e-15
    code, out = run(capsys, ["maximize", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["blocks"] == [[0], [1]]


def test_scan_json_document(capsys):
    code, doc = run_json(capsys, ["scan", "--dim", "2", "--samples", "5", "--seed", "3"])
    assert code == 0
    assert doc["n_samples"] == 5
    assert len(doc["samples"]) == 5
    assert doc["errors"] == []
    gaps = [row["gap"] for row in doc["samples"]]
    assert doc["min_gap"] == min(gaps)
    assert doc["violation_count"] == sum(g < -1e-9 for g in gaps)


def test_scan_csv_is_deterministic(capsys):
    argv = ["scan", "--dim", "2", "--samples", "8", "--seed", "21", "--format", "csv"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    header_at = [i for i, line in enumerate(lines) if not line.startswith("#")][0]
    assert lines[header_at] == "sample_index,derived_seed,lhs,rhs,gap"
    assert len(lines) - header_at - 1 == 8


def test_output_file_writing(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["counterexample", "--dim", "2", "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert abs(doc["rhs_entangled"] - TWO_LN_TWO) < 1e-9


# ------------------------------------------------------- format agreement


def parse_scalar_csv(text):
    rows = {}
    lines = text.strip().split("\n")
    assert lines[0] == "key,value"
    for line in lines[1:]:
        key, value = line.split(",", 1)
        rows[key] = value
    return rows


@pytest.mark.parametrize(
    "argv,fields",
    [
        (
            ["counterexample", "--dim", "3"],
            ["lhs", "rhs_product", "rhs_entangled", "gap_entangled", "theoretical_entangled_rhs"],
        ),
        (["deform", "--dim", "2", "--eps", "0.07"], ["lhs", "rhs", "gap"]),
    ],
)
def test_json_and_csv_payloads_agree_exactly(capsys, argv, fields):
    _, doc = run_json(capsys, argv)
    _, csv_text = run(capsys, argv + ["--format", "csv"])
    rows = parse_scalar_csv(csv_text)
    for field in fields:
        # 17 significant digits round-trip doubles exactly
        assert float(rows[field]) == doc[field]


def test_scan_json_and_csv_agree_exactly(capsys):
    argv = ["scan", "--dim", "2", "--samples", "6", "--seed", "9"]
    _, doc = run_json(capsys, argv)
    _, csv_text = run(capsys, argv + ["--format", "csv"])
    lines = [l for l in csv_text.strip().split("\n") if not l.startswith("#")]
    for row, line in zip(doc["samples"], lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == row["sample_index"]
        assert int(cells[1]) == row["derived_seed"]
        assert float(cells[2]) == row["lhs"]
        assert float(cells[3]) == row["rhs"]
        assert float(cells[4]) == row["gap"]
    aggregates = {
        line.split("=")[0].lstrip("# "): line.split("=", 1)[1]
        for line in csv_text.strip().split("\n")
        if line.startswith("# ") and "=" in line
    }
    assert float(aggregates["min_gap"]) == doc["min_gap"]
    assert float(aggregates["mean_gap"]) == doc["mean_gap"]


# -------------------------------------------------------------- exit codes


def test_exit_2_on_bad_dimension(capsys):
    assert main(["counterexample", "--dim", "1"]) == 2
    assert main(["deform", "--dim", "2", "--eps", "1.5"]) == 2
    assert main(["scan", "--dim", "2", "--samples", "0"]) == 2


def test_exit_2_on_malformed_state_files(capsys, tmp_path):
    missing = tmp_path / "nowhere.json"
    assert main(["check", "--input", str(missing)]) == 2

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{broken")
    assert main(["check", "--input", str(garbage)]) == 2

    wrong_norm = tmp_path / "wrong_norm.json"
    doc = state_to_document(canonical_counterexample(2).state)
    doc["amplitudes"][0] = [0.9, 0.0]
    wrong_norm.write_text(json.dumps(doc))
    assert main(["check", "--input", str(wrong_norm)]) == 2

    two_factors = tmp_path / "two.json"
    save_state(haar_state(FactorShape((2, 2)), 1), two_factors)
    assert main(["check", "--input", str(two_factors)]) == 2


def test_check_exit_2_on_non_finite_tol(capsys, tmp_path):
    path = tmp_path / "canon.json"
    save_state(canonical_counterexample(2).state, path)
    for tol in ("nan", "inf"):
        assert main(["check", "--input", str(path), "--tol", tol]) == 2


def test_check_exit_2_on_bool_dims(capsys, tmp_path):
    path = tmp_path / "bool_dims.json"
    doc = state_to_document(haar_state(FactorShape((1, 2, 2, 2)), 3))
    doc["dims"][0] = True
    path.write_text(json.dumps(doc))
    assert main(["check", "--input", str(path)]) == 2


def test_exit_2_when_maximize_gets_no_or_both_sources(capsys, tmp_path):
    assert main(["maximize"]) == 2
    path = tmp_path / "canon.json"
    save_state(canonical_counterexample(2).state, path)
    assert main(["maximize", "--input", str(path), "--dim", "2"]) == 2


def test_maximize_exit_2_on_oversized_search(capsys):
    t0 = time.perf_counter()
    assert main(["maximize", "--dim", "31"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "work limit" in capsys.readouterr().err


def test_maximize_accepts_dim_5_at_the_default_budget(capsys):
    code, doc = run_json(capsys, ["maximize", "--dim", "5"])
    assert code == 0
    assert re.fullmatch(r"restarts=20 sweeps_used=\d+/2000 stop=(converged|budget)", doc["search"])


def test_argparse_rejects_unknown_flags():
    with pytest.raises(SystemExit) as err:
        main(["counterexample", "--dim", "2", "--bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["counterexample"])  # --dim is required
    assert err.value.code == 2
