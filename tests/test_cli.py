import json
import re
import time
from dataclasses import replace

import numpy as np
import pytest

import bnineq
from bnineq import (
    ADDITIVITY_SPLIT,
    FactorShape,
    FourFactorState,
    NumericalError,
    PureState,
    bn_gap,
    canonical_counterexample,
    deformed_counterexample,
    entangled_decomposition,
    haar_state,
    load_state,
    save_state,
    schmidt_decompose,
    state_to_document,
    verify_decomposition,
)
from bnineq.cli import _scan_json, main, run_scan

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


def test_check_prints_the_residual_that_bn_gap_gated_on(capsys, tmp_path):
    path = tmp_path / "haar.json"
    save_state(haar_state(FactorShape((2, 3, 2, 3)), 5), path)
    code, doc = run_json(capsys, ["check", "--input", str(path)])
    assert code == 0
    psi = load_state(path)
    dec = schmidt_decompose(psi, ADDITIVITY_SPLIT)
    assert doc["residual"] == bn_gap(FourFactorState(psi), dec).residual
    assert doc["residual"] == verify_decomposition(psi, dec)


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


# ------------------------------------------------------------ unit boundary

LN2 = 0.6931471805599453

#: Report fields that hold an entropy; ``--log-base 2`` rescales exactly these.
ENTROPY_FIELDS = {
    "lhs", "rhs", "gap", "rhs_product", "rhs_entangled", "gap_entangled",
    "theoretical_entangled_rhs", "initial_rhs", "best_rhs", "min_gap", "max_gap", "mean_gap",
}


def assert_bits_match_nats(nats, bits, key=None):
    """Entropy fields in bits are the nats fields over ln 2; all else is equal."""
    if isinstance(nats, dict):
        assert nats.keys() == bits.keys()
        for k in nats.keys() - {"log_base"}:
            assert_bits_match_nats(nats[k], bits[k], k)
    elif isinstance(nats, list):
        assert len(nats) == len(bits)
        for a, b in zip(nats, bits):
            assert_bits_match_nats(a, b, key)
    elif key in ENTROPY_FIELDS:
        assert abs(bits - nats / LN2) <= 1e-15, key
    else:
        assert bits == nats, key


def scan_csv_fields(text):
    """A scan CSV as {"header": {key: value}, "rows": [{column: value}]},
    with the entropy fields parsed as floats and the rest kept as text."""
    lines = text.strip().split("\n")
    header = dict(line[2:].split("=", 1) for line in lines if line.startswith("# ") and "=" in line)
    body = [line.split(",") for line in lines if not line.startswith("#")]
    rows = [dict(zip(body[0], cells)) for cells in body[1:]]
    for fields in [header, *rows]:
        for k in fields.keys() & ENTROPY_FIELDS:
            fields[k] = float(fields[k])
    return {"header": header, "rows": rows}


@pytest.mark.parametrize(
    "argv",
    [
        ["counterexample", "--dim", "3"],
        ["deform", "--dim", "2", "--eps", "0.1"],
        ["scan", "--dim", "2", "--samples", "40", "--seed", "7"],
        ["check", "--input", "STATE"],
        ["maximize", "--dim", "2"],
        ["maximize", "--input", "STATE"],
    ],
)
def test_log_base_two_rescales_only_the_entropy_fields(capsys, tmp_path, argv):
    path = tmp_path / "state.json"
    save_state(haar_state(FactorShape((2, 3, 2, 3)), 5), path)
    argv = [str(path) if a == "STATE" else a for a in argv]
    _, nats = run_json(capsys, argv)
    code, bits = run_json(capsys, argv + ["--log-base", "2"])
    assert code == 0
    assert (nats["log_base"], bits["log_base"]) == ("e", "2")
    assert ENTROPY_FIELDS & nats.keys()
    assert_bits_match_nats(nats, bits)


def test_log_base_two_rescales_only_the_entropy_columns_of_a_scan_csv(capsys):
    argv = ["scan", "--dim", "2", "--samples", "40", "--seed", "7", "--format", "csv"]
    _, nats = run(capsys, argv)
    code, bits = run(capsys, argv + ["--log-base", "2"])
    assert code == 0
    nats, bits = scan_csv_fields(nats), scan_csv_fields(bits)
    assert int(nats["header"]["violation_count"]) > 0
    assert len(bits["rows"]) == 40
    assert_bits_match_nats(nats, bits)


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

    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'{"dims": [2, 2, 2, 2], "amplitudes": "\xff"}')
    assert main(["check", "--input", str(not_utf8)]) == 2

    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["check", "--input", str(deep)]) == 2

    # 400 digits overflow a float; 5000 exceed the integer parsing limit.
    for digits, part in ((400, 0), (400, 1), (5000, 0)):
        big = tmp_path / f"big_{digits}_{part}.json"
        doc = state_to_document(canonical_counterexample(2).state)
        doc["amplitudes"][0][part] = "BIG"
        big.write_text(json.dumps(doc).replace('"BIG"', "1" * digits))
        assert main(["check", "--input", str(big)]) == 2


@pytest.mark.parametrize("argv", [["counterexample"], ["deform", "--eps", "0.1"], ["maximize"]])
def test_exit_2_on_an_oversized_dim(capsys, argv):
    # The (d, d, d, d) shape is refused before any array of that size exists.
    t0 = time.perf_counter()
    assert main([*argv, "--dim", "1000"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "exceeds the supported maximum" in capsys.readouterr().err


def test_counterexample_exit_2_when_a_decomposition_fails_the_residual_gate(capsys, monkeypatch):
    def broken(d):
        dec = entangled_decomposition(d)
        return replace(dec, right=np.eye(d * d, dtype=dec.right.dtype))

    monkeypatch.setattr(bnineq.cli, "entangled_decomposition", broken)
    assert main(["counterexample", "--dim", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not reproduce the state" in captured.err


def test_exit_2_when_the_output_cannot_be_written(capsys, tmp_path):
    for target in (tmp_path, tmp_path / "missing" / "report.json"):
        assert main(["counterexample", "--dim", "2", "--output", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")


def test_check_exit_2_on_bool_dims(capsys, tmp_path):
    path = tmp_path / "bool_dims.json"
    doc = state_to_document(haar_state(FactorShape((1, 2, 2, 2)), 3))
    doc["dims"][0] = True
    path.write_text(json.dumps(doc))
    assert main(["check", "--input", str(path)]) == 2


def test_check_exit_2_on_bool_amplitudes(capsys, tmp_path):
    path = tmp_path / "bool_amplitudes.json"
    amps = np.zeros(16)
    amps[0] = 1.0
    doc = state_to_document(PureState(FactorShape((2, 2, 2, 2)), amps))
    doc["amplitudes"][0] = [True, False]
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


def test_scan_exit_3_when_every_sample_fails(capsys, monkeypatch):
    def failing_svd(m):
        raise NumericalError("SVD failed to converge: injected")

    monkeypatch.setattr(bnineq.spectra, "svd", failing_svd)
    code = main(["scan", "--dim", "2", "--samples", "4", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "every sample in the scan failed" in captured.err


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("log_base, unit", [("e", 1.0), ("2", 1.0 / LN2)], ids=["e", "2"])
def test_scan_json_writer_matches_the_json_encoder(dim, log_base, unit):
    doc = run_scan(dim, 30, 7, log_base, unit)
    assert _scan_json(doc) == json.dumps(doc, indent=2)


def test_scan_json_writer_matches_the_json_encoder_with_error_rows(fail_svd_on):
    fail_svd_on(haar_state(FactorShape((2, 2, 2, 2)), bnineq.derive_seed(3, 7)).amplitudes)
    doc = run_scan(2, 20, 3, "e", 1.0)
    assert [row["sample_index"] for row in doc["errors"]] == [7]
    assert _scan_json(doc) == json.dumps(doc, indent=2)


def test_scan_json_writer_matches_the_json_encoder_on_non_finite_floats():
    nan, inf = float("nan"), float("inf")
    rows = [
        {"sample_index": 0, "derived_seed": 2**64 - 1, "lhs": nan, "rhs": inf, "gap": -inf},
        {"sample_index": 1, "derived_seed": 0, "lhs": -0.0, "rhs": 1e-310, "gap": 1e300},
        {"sample_index": 2, "derived_seed": 5, "lhs": 0.1, "rhs": inf, "gap": nan},
    ]
    doc = {
        "command": "scan", "n_samples": 4, "shape": [2, 2, 2, 2], "master_seed": -3,
        "min_gap": nan, "max_gap": inf, "mean_gap": -inf, "violation_count": 0,
        "samples": rows,
        "errors": [{"sample_index": 3, "derived_seed": 9, "message": '"samples": []\n'}],
    }
    assert _scan_json(doc) == json.dumps(doc, indent=2)
    assert _scan_json({**doc, "samples": []}) == json.dumps({**doc, "samples": []}, indent=2)


def test_scan_refuses_an_oversized_run_with_exit_2(capsys):
    t0 = time.perf_counter()
    code = main(["scan", "--dim", "2", "--samples", "100000000000"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "amplitudes" in captured.err


def test_argparse_rejects_unknown_flags():
    with pytest.raises(SystemExit) as err:
        main(["counterexample", "--dim", "2", "--bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["counterexample"])  # --dim is required
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["counterexample", "--dim", "2", "--log-base", "10"])
    assert err.value.code == 2
