"""Run a fixed list of ``bnineq`` commands and store what each one prints.

::

    python tests/cli_matrix.py DIR

writes the state files that the commands read into ``DIR/states`` with
:func:`bnineq.save_state`, then runs every command of ``RUNS`` through
``python -m bnineq.cli``, importing this checkout's ``src``, from ``DIR``
as the working directory, so every path a report prints is relative.  Run
``NAME`` leaves ``DIR/runs/NAME.out``, ``NAME.err`` and ``NAME.code`` (the
exit code).  The script exits 1, after writing every run and naming each
bad one, if a run of ``REFUSALS`` exits with a code other than 2, any
other run with a code other than 0, or any run prints a ``Traceback``.
Two checkouts then compare with one ``diff -r``::

    python old/tests/cli_matrix.py /tmp/old
    python new/tests/cli_matrix.py /tmp/new
    diff -r /tmp/old /tmp/new

The list covers every subcommand in both formats and both log bases,
``maximize`` with and without degenerate freedom, with an ascent that
stalls and on near-ties that are not a block, scans of more than one
stack of samples at d = 2 and d = 4, the exit-2 refusals, and a state
path that a CSV cell must quote.  The file has no ``test_`` prefix, so
pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bnineq import (  # noqa: E402
    FactorShape,
    PureState,
    canonical_counterexample,
    deformed_counterexample,
    haar_state,
    haar_unitary,
    save_state,
    state_to_document,
)
from helpers import tilted_product_state  # noqa: E402

#: Each state file, relative to DIR, and the state it holds.
STATES = {
    "states/haar.json": lambda: haar_state(FactorShape((2, 3, 2, 3)), 5),
    "states/canon.json": lambda: canonical_counterexample(2).state,
    "states/deformed.json": lambda: deformed_counterexample(2, 0.1)[0].state,
    # a flat spectrum with random bases: the SVD start's rhs is not 0
    "states/flat.json": lambda: PureState(FactorShape((2,) * 4), haar_unitary(4, 3) / 2),
    "states/a,b.json": lambda: canonical_counterexample(2).state,
    # diag(sqrt(lambda)) with the deformed tilt at eps = 3e-8: near-ties
    # that are not a degenerate block
    "states/tilted.json": lambda: tilted_product_state(2, 3e-8),
}

#: The commands whose reports are compared in both formats and log bases.
REPORTS = {
    "counterexample-d2": ["counterexample", "--dim", "2"],
    "counterexample-d3": ["counterexample", "--dim", "3"],
    "deform": ["deform", "--dim", "2", "--eps", "0.1"],
    "scan": ["scan", "--dim", "2", "--samples", "20", "--seed", "7"],
    # d = 3 sides are not qubit cuts, so this rhs takes batched eigvalsh
    "scan-d3": ["scan", "--dim", "3", "--samples", "10", "--seed", "7"],
    # one stack of 256 samples at d = 4 and part of a second
    "scan-d4-chunks": ["scan", "--dim", "4", "--samples", "300", "--seed", "7"],
    "check-haar": ["check", "--input", "states/haar.json"],
    "check-canon": ["check", "--input", "states/canon.json"],
    "maximize-d2": ["maximize", "--dim", "2"],
    "maximize-haar": ["maximize", "--input", "states/haar.json"],
    "maximize-d3": ["maximize", "--dim", "3"],
    "maximize-d3-stalled": ["maximize", "--dim", "3", "--seed", "164"],
    "maximize-flat": ["maximize", "--input", "states/flat.json"],
    "maximize-deformed": ["maximize", "--input", "states/deformed.json"],
    "check-comma": ["check", "--input", "states/a,b.json"],
    "maximize-comma": ["maximize", "--input", "states/a,b.json"],
    "check-tilted": ["check", "--input", "states/tilted.json"],
    "maximize-tilted": ["maximize", "--input", "states/tilted.json"],
    # a tilt just above the smallest one that degenerate_blocks resolves
    "deform-eps-1e-9": ["deform", "--dim", "2", "--eps", "1e-9"],
}

#: The refusals of bad input: each run must exit 2.
REFUSALS = {
    "maximize-no-source": ["maximize"],
    "maximize-both-sources": ["maximize", "--input", "states/canon.json", "--dim", "2"],
    "maximize-d31": ["maximize", "--dim", "31"],
    "scan-no-samples": ["scan", "--dim", "2", "--samples", "0"],
    "check-missing-input": ["check", "--input", "states/missing.json"],
    "check-directory-input": ["check", "--input", "states"],
    "check-bool-dims": ["check", "--input", "states/bool_dims.json"],
    "output-directory": ["counterexample", "--dim", "2", "--output", "states"],
    "counterexample-d1": ["counterexample", "--dim", "1"],
    "counterexample-d1000": ["counterexample", "--dim", "1000"],
    "deform-eps-1.5": ["deform", "--dim", "2", "--eps", "1.5"],
    "scan-huge": ["scan", "--dim", "2", "--samples", "100000000000"],
    "unknown-flag": ["counterexample", "--dim", "2", "--frobnicate"],
    "missing-dim": ["counterexample"],
    "no-subcommand": [],
}

#: Every run, by name: the reports above, one long scan in both formats,
#: the refusals and the help texts.  Every run outside ``REFUSALS`` must
#: exit 0.
RUNS = {
    f"{name}-{fmt}-{base}": [*argv, "--format", fmt, "--log-base", base]
    for name, argv in REPORTS.items()
    for fmt in ("json", "csv")
    for base in ("e", "2")
} | {
    # one stack of 4,096 samples at d = 2 and part of a second, in both
    # formats: the JSON run writes 4,100 rows through the row template
    **{
        f"scan-d2-chunks-{fmt}": [
            "scan", "--dim", "2", "--samples", "4100", "--seed", "7", "--format", fmt,
        ]
        for fmt in ("json", "csv")
    },
} | REFUSALS | {
    "help": ["--help"],
    "maximize-help": ["maximize", "--help"],
}


def write_states(states: Path) -> None:
    states.mkdir(parents=True, exist_ok=True)
    for name, build in STATES.items():
        save_state(build(), states.parent / name)
    doc = state_to_document(haar_state(FactorShape((1, 2, 2, 2)), 3))
    doc["dims"][0] = True
    (states / "bool_dims.json").write_text(json.dumps(doc), encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/cli_matrix.py DIR", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    write_states(out / "states")
    runs = out / "runs"
    runs.mkdir(exist_ok=True)
    # A fixed terminal width, so argparse wraps the help texts alike.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"}
    bad = []
    for name, args in RUNS.items():
        run = subprocess.run(
            [sys.executable, "-m", "bnineq.cli", *args],
            cwd=out, env=env, capture_output=True, text=True,
        )
        (runs / f"{name}.out").write_text(run.stdout, encoding="utf-8")
        (runs / f"{name}.err").write_text(run.stderr, encoding="utf-8")
        (runs / f"{name}.code").write_text(f"{run.returncode}\n", encoding="utf-8")
        want = 2 if name in REFUSALS else 0
        if run.returncode != want or "Traceback" in run.stdout + run.stderr:
            bad.append(f"{name} (exit {run.returncode}, expected {want})")
    print(f"{len(RUNS)} runs written to {runs}")
    if bad:
        print("failed: " + ", ".join(bad), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
