"""Self-tests of the benchmark.

Run from the root of a checkout: ``python3 -m pytest bench -q``.  The
smoke runs start ``bench/run.py`` in child processes; everything else
runs in-process on a few operations.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import bnineq  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_the_metrics_of_the_spec(workload, trace, key):
    done = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--smoke",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC[key]
    ]


def test_run_without_package_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    name = SPEC["workloads"][0]["name"]
    done = run_bench(tmp_path, "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.fixture(scope="module")
def scan_doc(tmp_path_factory):
    """A real 6-sample d = 2 scan (seed 11), checked, and its JSON."""
    wl = workloads.ScanWorkload(dim=2, segment_size=6, traced_size=6, reference_size=1)
    wl.prepare(tmp_path_factory.mktemp("scan"))
    seg = wl.segment(11, 6)
    assert (seg.check.ops, seg.check.failed, seg.check.mismatches) == (6, 0, [])
    return json.loads(wl.output.read_text(encoding="utf-8"))


def test_oracle_counts_a_flipped_gap_as_failed(scan_doc):
    doc = copy.deepcopy(scan_doc)
    doc["samples"][2]["gap"] = -doc["samples"][2]["gap"]
    check = oracle.check_scan(doc, 2, 6, 11)
    assert check.failed == 1
    assert any("sample 2" in m for m in check.mismatches)


def test_oracle_flags_a_changed_violation_count(scan_doc):
    doc = copy.deepcopy(scan_doc)
    doc["violation_count"] += 1
    assert oracle.check_scan(doc, 2, 6, 11).mismatches


def test_rerun_check_flags_a_changed_row(scan_doc):
    doc = copy.deepcopy(scan_doc)
    doc["samples"][0]["rhs"] += 1e-11
    assert oracle.rerun_mismatches(oracle.scan_rows(scan_doc), oracle.scan_rows(doc))
    assert not oracle.rerun_mismatches(oracle.scan_rows(scan_doc), oracle.scan_rows(scan_doc))


def test_oracle_flags_a_maximize_rhs_that_the_vectors_do_not_give():
    # The canonical d = 2 state in its product Schmidt basis: rhs is 0.
    lam, basis = np.full(4, 0.25), np.eye(4, dtype=complex)
    assert oracle.check_maximize(2, lam, basis, basis, 0.0, 1e-6).mismatches


def test_maximize_shortfall_is_a_miss_not_a_failed_operation():
    lam, basis = np.full(4, 0.25), np.eye(4, dtype=complex)
    check = oracle.check_maximize(2, lam, basis, basis, 0.0, 0.0)
    assert (check.failed, check.mismatches, check.misses) == (0, [], 1)
    assert check.shortfalls == [2 * math.log(2)]


def traced_calls(wl, seed, size):
    t = tracer.Tracer(wl.op_marker, wl.op_scope)
    seg = wl.segment(seed, size, program=t)
    assert not seg.check.mismatches
    return {name: row["calls"] for name, row in t.totals().items()}


def test_two_traced_runs_give_identical_call_counts(tmp_path):
    for wl, size in (
        (workloads.ScanWorkload(dim=2, segment_size=5, traced_size=5, reference_size=1), 5),
        (workloads.MaximizeWorkload(dim=2, segment_size=1, traced_size=1, reference_size=1), 1),
    ):
        wl.prepare(tmp_path)
        first = traced_calls(wl, 7, size)
        assert first == traced_calls(wl, 7, size)
        assert first[wl.op_marker] >= 1 and first["kernel.svd"] >= 1


def test_tracer_restores_every_name_and_reports_absent_ones(tmp_path, monkeypatch):
    originals = (bnineq.sampling.schmidt_decompose, bnineq.PureState.__init__, np.linalg.svd)
    monkeypatch.setitem(tracer.LAYERS, "schmidt", tracer.LAYERS["schmidt"] + ("removed_name",))
    t = tracer.Tracer("sampling.haar_state", "sampling.scan")
    with t:
        assert bnineq.sampling.schmidt_decompose is not originals[0]
    assert (bnineq.sampling.schmidt_decompose, bnineq.PureState.__init__, np.linalg.svd) == originals
    assert t.absent == ["schmidt.removed_name"]
