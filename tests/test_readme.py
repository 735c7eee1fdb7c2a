"""The numbers and the example that the README quotes."""

import json
import math
import re
from pathlib import Path

import pytest

from bnineq.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("dim,samples,count", [(2, 1000, 68), (3, 300, 0), (4, 200, 0)])
def test_scan_violation_counts(capsys, dim, samples, count):
    argv = ["scan", "--dim", str(dim), "--samples", str(samples), "--seed", "7"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    # The rows come from a template; the document must still be json.dumps's.
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert json.loads(out)["violation_count"] == count


def test_maximize_reaches_two_ln_three(capsys):
    doc = run_json(capsys, ["maximize", "--dim", "3"])
    assert abs(doc["best_rhs"] - 2.0 * math.log(3.0)) <= 1e-9
    assert doc["search"].endswith("stop=converged")


def test_the_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out.splitlines()[-1] == "True"
