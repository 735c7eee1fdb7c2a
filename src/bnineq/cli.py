"""Command-line interface.

Subcommands map onto the library's main entry points:

* ``counterexample`` evaluates the canonical violating family at a given
  local dimension, reporting both the product-basis and the entangled
  (Bell-basis) right-hand side.
* ``deform`` evaluates the deformed family with a unique Schmidt form.
* ``scan`` runs a seeded scan over Haar-random states.
* ``check`` loads a state file and evaluates the inequality with the SVD
  decomposition.
* ``maximize`` searches the Schmidt freedom of a state for the largest
  right-hand side.

Each subparser carries its handler as ``args.run``; a handler reads its
own flags and returns its report, and ``main`` puts the ``"command"`` key
first.  The parser is built once per process, and each ``args.run`` looks
its handler up on this module when it runs, so a patched one is obeyed.

The library computes every entropy in nats.  This module alone knows about
bits: ``--log-base 2`` multiplies each entropy field by 1/ln 2 where the
report builds that field, and nothing else.

Exit codes: 0 on success, 2 on invalid input (bad arguments, malformed
state files, an ``--output`` path that cannot be written, a decomposition
that fails the residual gate of :func:`bn_gap`), 3 on numerical failure.
The CSV writes 17 significant digits and the JSON the shortest repr that
round-trips, so both parse back to the same doubles.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .inequality import (
    ADDITIVITY_SPLIT,
    FourFactorState,
    bn_gap,
    canonical_counterexample,
    deformed_counterexample,
    entangled_decomposition,
    maximize_rhs,
    product_decomposition,
)
from .sampling import scan
from .schmidt import degenerate_blocks, schmidt_decompose
from .tensor import FactorShape, InputError, NumericalError, load_state


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(float(value), ".17g")
    if isinstance(value, list):
        # Lists of numbers join with ';', nested lists (index blocks) use
        # ':' inside so no list cell needs CSV quoting.
        return ";".join(
            ":".join(str(x) for x in v) if isinstance(v, list) else _csv_cell(v)
            for v in value
        )
    text = str(value)
    # A string (a state file path) is quoted as RFC 4180 does, only if needed.
    if set(text) & set(',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _scalar_csv(doc: dict) -> str:
    lines = ["key,value"]
    for key, value in doc.items():
        lines.append(f"{key},{_csv_cell(value)}")
    return "\n".join(lines) + "\n"


#: A scan row's columns in tuple order, and the row as ``json.dumps(doc, indent=2)``
#: writes it.  ``%s`` writes an int as ``json`` does and a finite float as ``float.__repr__``.
_SCAN_COLUMNS = ("sample_index", "derived_seed", "lhs", "rhs", "gap")
_SCAN_ROW = "    {\n" + ",\n".join(f'      "{c}": %s' for c in _SCAN_COLUMNS) + "\n    }"


def _scan_csv(doc: dict) -> str:
    header = {**doc, "shape": "x".join(str(d) for d in doc["shape"])}
    skip = ("command", "samples", "errors")
    lines = [f"# {key}={_csv_cell(value)}" for key, value in header.items() if key not in skip]
    lines.append(",".join(_SCAN_COLUMNS))
    lines += [",".join(map(_csv_cell, row)) for row in doc["samples"]]
    lines += ["# error " + " ".join(f"{k}={v}" for k, v in row.items()) for row in doc["errors"]]
    return "\n".join(lines) + "\n"


def _scan_row(row: tuple) -> str:
    """One row from ``_SCAN_ROW``, in one ``%`` step when its floats are
    finite (a finite sum has no NaN or inf term), else with each float as
    ``json.dumps`` writes it (``NaN``, ``Infinity``)."""
    i, k, a, b, g = row
    if math.isfinite(a + b + g):
        return _SCAN_ROW % row
    return _SCAN_ROW % (i, k, *map(json.dumps, (a, b, g)))


def _scan_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2)`` of a scan report with dict rows, byte for
    byte, from rows that are tuples of Python ints and floats (as
    ``tolist`` gives them) in ``_SCAN_COLUMNS`` order."""
    text = json.dumps({**doc, "samples": []}, indent=2)
    if not doc["samples"]:
        return text
    rows = ",\n".join(map(_scan_row, doc["samples"]))
    head, tail = text.split('"samples": []', 1)
    return f'{head}"samples": [\n{rows}\n  ]{tail}'


def run_counterexample(args: argparse.Namespace, unit: float) -> dict:
    s = canonical_counterexample(args.dim)
    product = bn_gap(s, product_decomposition(args.dim))
    entangled = bn_gap(s, entangled_decomposition(args.dim))
    return {
        "dim": args.dim,
        "log_base": args.log_base,
        "lhs": entangled.lhs * unit,
        "rhs_product": product.rhs * unit,
        "rhs_entangled": entangled.rhs * unit,
        "gap_entangled": entangled.gap * unit,
        "theoretical_entangled_rhs": 2.0 * math.log(args.dim) * unit,
        "residual_product": product.residual,
        "residual_entangled": entangled.residual,
    }


def run_deform(args: argparse.Namespace, unit: float) -> dict:
    state, dec = deformed_counterexample(args.dim, args.eps)
    report = bn_gap(state, dec)
    blocks = degenerate_blocks(dec.coefficients)
    return {
        "dim": args.dim,
        "eps": args.eps,
        "log_base": args.log_base,
        "lhs": report.lhs * unit,
        "rhs": report.rhs * unit,
        "gap": report.gap * unit,
        "unique_spectrum": all(len(b) == 1 for b in blocks),
        "coefficients": [float(x) for x in dec.coefficients],
    }


def run_scan(args: argparse.Namespace, unit: float) -> dict:
    report = scan(args.samples, FactorShape((args.dim,) * 4), args.seed)
    if len(report.errors) == report.n_samples:
        raise NumericalError("every sample in the scan failed")
    ok = report._ok
    arrays = (report.seeds, report.lhs * unit, report.rhs * unit, report.gap * unit)
    values = zip(ok.nonzero()[0].tolist(), *(a[ok].tolist() for a in arrays))
    return {
        "n_samples": report.n_samples,
        "shape": list(report.shape.dims),
        "master_seed": report.master_seed,
        "log_base": args.log_base,
        "min_gap": report.min_gap * unit,
        "max_gap": report.max_gap * unit,
        "mean_gap": report.mean_gap * unit,
        "violation_count": report.violation_count,
        "samples": list(values),
        "errors": [
            {"sample_index": i, "derived_seed": int(report.seeds[i]), "message": message}
            for i, message in report.errors.items()
        ],
    }


def run_check(args: argparse.Namespace, unit: float) -> dict:
    s = FourFactorState(load_state(args.input))
    dec = schmidt_decompose(s.state, ADDITIVITY_SPLIT)
    report = bn_gap(s, dec, source="svd")
    return {
        "input": args.input,
        "log_base": args.log_base,
        "lhs": report.lhs * unit,
        "rhs": report.rhs * unit,
        "gap": report.gap * unit,
        "residual": report.residual,
        "decomposition_source": report.decomposition_source,
        "coefficients": [float(x) for x in dec.coefficients],
    }


def run_maximize(args: argparse.Namespace, unit: float) -> dict:
    if (args.input is None) == (args.dim is None):
        raise InputError("maximize needs exactly one of --input or --dim")
    if args.input is not None:
        s = FourFactorState(load_state(args.input))
        origin = args.input
    else:
        s = canonical_counterexample(args.dim)
        origin = f"canonical dim={args.dim}"
    dec, report = maximize_rhs(s, restarts=args.restarts, sweeps=args.sweeps, seed=args.seed)
    return {
        "state": origin,
        "log_base": args.log_base,
        "restarts": args.restarts,
        "sweeps": args.sweeps,
        "seed": args.seed,
        "initial_rhs": report.initial_rhs * unit,
        "best_rhs": report.rhs * unit,
        "lhs": report.lhs * unit,
        "gap": report.gap * unit,
        "blocks": [list(b) for b in degenerate_blocks(dec.coefficients)],
        "search": report.state_descriptor,
    }


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {output}: {exc}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnineq",
        description="Evaluate the Benatti-Narnhofer entanglement entropy "
        "inequality and the family of states that violates it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, run) -> None:
        p.set_defaults(run=run)
        p.add_argument("--log-base", choices=["e", "2"], default="e")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("counterexample", help="evaluate the canonical violating family")
    p.add_argument("--dim", type=int, required=True, help="local dimension d >= 2")
    common(p, lambda *a: run_counterexample(*a))

    p = sub.add_parser("deform", help="evaluate the deformed family (unique Schmidt form)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--eps", type=float, required=True, help="deformation strength in (0, 1)")
    common(p, lambda *a: run_deform(*a))

    p = sub.add_parser("scan", help="seeded scan over Haar-random states")
    p.add_argument("--dim", type=int, required=True, help="scan states of shape (d, d, d, d)")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    common(p, lambda *a: run_scan(*a))

    p = sub.add_parser("check", help="evaluate a state loaded from a JSON file")
    p.add_argument("--input", required=True, help="state file path")
    common(p, lambda *a: run_check(*a))

    p = sub.add_parser("maximize", help="search the Schmidt freedom for the largest rhs")
    p.add_argument("--input", default=None, help="state file path")
    p.add_argument("--dim", type=int, default=None, help="use the canonical state at this dim")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--sweeps", type=int, default=2000, help="gradient ascent steps")
    p.add_argument("--seed", type=int, default=0)
    common(p, lambda *a: run_maximize(*a))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    unit = 1.0 if args.log_base == "e" else 1.0 / math.log(2.0)
    try:
        doc = {"command": args.command, **args.run(args, unit)}
        if args.format == "json":
            text = _scan_json(doc) if args.command == "scan" else json.dumps(doc, indent=2)
            _emit(text + "\n", args.output)
        else:
            _emit(_scan_csv(doc) if args.command == "scan" else _scalar_csv(doc), args.output)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
