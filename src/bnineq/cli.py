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

The library computes every entropy in nats.  This module alone knows about
bits: ``--log-base 2`` multiplies each entropy field by 1/ln 2 as the
report is written, and nothing else.

Exit codes: 0 on success, 2 on invalid input (bad arguments or malformed
state files), 3 on numerical failure.  All numeric output is written with
17 significant digits, so JSON and CSV payloads agree bit-for-bit after
parsing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .exceptions import InputError, NumericalError
from .inequality import (
    ADDITIVITY_SPLIT,
    FourFactorState,
    bn_gap,
    bn_lhs,
    bn_rhs,
    canonical_counterexample,
    deformed_counterexample,
    entangled_decomposition,
    maximize_rhs,
    product_decomposition,
)
from .sampling import scan
from .schmidt import degenerate_blocks, schmidt_decompose, verify_decomposition
from .tensor import FactorShape, load_state


def _fmt(x: float) -> str:
    """17 significant digits: enough to reproduce the double exactly."""
    return format(float(x), ".17g")


#: The entropy fields of each command's report, in nats until ``--log-base
#: 2`` multiplies them by 1/ln 2, in the report and in the rows of its lists.
_ENTROPY_KEYS = {
    "counterexample": {
        "lhs", "rhs_product", "rhs_entangled", "gap_entangled", "theoretical_entangled_rhs",
    },
    "deform": {"lhs", "rhs", "gap"},
    "scan": {"lhs", "rhs", "gap", "min_gap", "max_gap", "mean_gap"},
    "check": {"lhs", "rhs", "gap"},
    "maximize": {"initial_rhs", "best_rhs", "lhs", "gap"},
}


def _rescale(doc: dict, keys: set, factor: float) -> None:
    """Multiply the fields of ``doc`` named in ``keys`` by ``factor``, in place."""
    for key, value in doc.items():
        if key in keys:
            doc[key] = value * factor
        elif isinstance(value, list):
            for row in value:
                if isinstance(row, dict):
                    _rescale(row, keys, factor)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, list):
        # Lists of numbers join with ';', nested lists (index blocks) use
        # ':' inside so no cell ever needs CSV quoting.
        return ";".join(
            ":".join(str(x) for x in v) if isinstance(v, list) else _csv_cell(v)
            for v in value
        )
    return str(value)


def _scalar_csv(doc: dict) -> str:
    lines = ["key,value"]
    for key, value in doc.items():
        lines.append(f"{key},{_csv_cell(value)}")
    return "\n".join(lines) + "\n"


def _scan_csv(doc: dict) -> str:
    header = {**doc, "shape": "x".join(str(d) for d in doc["shape"])}
    skip = ("command", "samples", "errors")
    lines = [f"# {key}={_csv_cell(value)}" for key, value in header.items() if key not in skip]
    columns = ("sample_index", "derived_seed", "lhs", "rhs", "gap")
    lines.append(",".join(columns))
    lines += [",".join(_csv_cell(row[c]) for c in columns) for row in doc["samples"]]
    lines += ["# error " + " ".join(f"{k}={v}" for k, v in row.items()) for row in doc["errors"]]
    return "\n".join(lines) + "\n"


#: One row of a scan's "samples" list, laid out as ``json.dumps(doc,
#: indent=2)`` lays it out.
_SCAN_ROW = (
    '    {{\n      "sample_index": {},\n      "derived_seed": {},\n'
    '      "lhs": {},\n      "rhs": {},\n      "gap": {}\n    }}'
)


def _json_float(x: float) -> str:
    """A float as ``json`` writes it."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _scan_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2)`` of a scan report, byte for byte, with
    the sample rows written from a template instead of by the encoder."""
    text = json.dumps({**doc, "samples": []}, indent=2)
    if not doc["samples"]:
        return text
    rows = ",\n".join(
        _SCAN_ROW.format(
            r["sample_index"], r["derived_seed"],
            _json_float(r["lhs"]), _json_float(r["rhs"]), _json_float(r["gap"]),
        )
        for r in doc["samples"]
    )
    head, tail = text.split('"samples": []', 1)
    return f'{head}"samples": [\n{rows}\n  ]{tail}'


def run_counterexample(dim: int, log_base: str) -> dict:
    s = canonical_counterexample(dim)
    product = product_decomposition(dim)
    entangled = entangled_decomposition(dim)
    lhs = bn_lhs(s)
    rhs_entangled = bn_rhs(entangled)
    return {
        "command": "counterexample",
        "dim": dim,
        "log_base": log_base,
        "lhs": lhs,
        "rhs_product": bn_rhs(product),
        "rhs_entangled": rhs_entangled,
        "gap_entangled": lhs - rhs_entangled,
        "theoretical_entangled_rhs": 2.0 * math.log(dim),
        "residual_product": verify_decomposition(s.state, product),
        "residual_entangled": verify_decomposition(s.state, entangled),
    }


def run_deform(dim: int, eps: float, log_base: str) -> dict:
    state, dec = deformed_counterexample(dim, eps)
    report = bn_gap(state, dec, source="deformed", descriptor=f"deformed dim={dim} eps={eps}")
    blocks = degenerate_blocks(dec.coefficients)
    return {
        "command": "deform",
        "dim": dim,
        "eps": eps,
        "log_base": log_base,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "gap": report.gap,
        "unique_spectrum": all(len(b) == 1 for b in blocks),
        "coefficients": [float(x) for x in dec.coefficients],
    }


def run_scan(dim: int, samples: int, seed: int) -> dict:
    report = scan(samples, FactorShape((dim, dim, dim, dim)), seed)
    if len(report.errors) == report.n_samples:
        raise NumericalError("every sample in the scan failed")
    ok = np.delete(np.arange(report.n_samples), list(report.errors))
    arrays = (report.seeds, report.lhs, report.rhs, report.gap)
    values = zip(ok.tolist(), *(a[ok].tolist() for a in arrays))
    return {
        "command": "scan",
        "n_samples": report.n_samples,
        "shape": list(report.shape.dims),
        "master_seed": report.master_seed,
        "min_gap": report.min_gap,
        "max_gap": report.max_gap,
        "mean_gap": report.mean_gap,
        "violation_count": report.violation_count,
        "samples": [
            {"sample_index": i, "derived_seed": k, "lhs": a, "rhs": b, "gap": g}
            for i, k, a, b, g in values
        ],
        "errors": [
            {"sample_index": i, "derived_seed": int(report.seeds[i]), "message": message}
            for i, message in report.errors.items()
        ],
    }


def run_check(input_path: str, log_base: str) -> dict:
    psi = load_state(input_path)
    s = FourFactorState(psi)
    dec = schmidt_decompose(psi, ADDITIVITY_SPLIT)
    report = bn_gap(s, dec, source="svd", descriptor=f"state file {input_path}")
    return {
        "command": "check",
        "input": input_path,
        "log_base": log_base,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "gap": report.gap,
        "residual": verify_decomposition(psi, dec),
        "decomposition_source": report.decomposition_source,
        "coefficients": [float(x) for x in dec.coefficients],
    }


def run_maximize(
    input_path: str | None,
    dim: int | None,
    restarts: int,
    sweeps: int,
    seed: int,
    log_base: str,
) -> dict:
    if (input_path is None) == (dim is None):
        raise InputError("maximize needs exactly one of --input or --dim")
    if input_path is not None:
        s = FourFactorState(load_state(input_path))
        origin = input_path
    else:
        s = canonical_counterexample(dim)
        origin = f"canonical dim={dim}"
    # maximize_rhs first: it refuses an oversized search before any SVD.
    dec, report = maximize_rhs(s, restarts=restarts, sweeps=sweeps, seed=seed)
    initial_rhs = bn_rhs(schmidt_decompose(s.state, ADDITIVITY_SPLIT))
    return {
        "command": "maximize",
        "state": origin,
        "log_base": log_base,
        "restarts": restarts,
        "sweeps": sweeps,
        "seed": seed,
        "initial_rhs": initial_rhs,
        "best_rhs": report.rhs,
        "lhs": report.lhs,
        "gap": report.gap,
        "blocks": [list(b) for b in degenerate_blocks(dec.coefficients)],
        "search": report.state_descriptor,
    }


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnineq",
        description="Evaluate the Benatti-Narnhofer entanglement entropy "
        "inequality and the family of states that violates it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--log-base", choices=["e", "2"], default="e")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("counterexample", help="evaluate the canonical violating family")
    p.add_argument("--dim", type=int, required=True, help="local dimension d >= 2")
    common(p)

    p = sub.add_parser("deform", help="evaluate the deformed family (unique Schmidt form)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--eps", type=float, required=True, help="deformation strength in (0, 1)")
    common(p)

    p = sub.add_parser("scan", help="seeded scan over Haar-random states")
    p.add_argument("--dim", type=int, required=True, help="scan states of shape (d, d, d, d)")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("check", help="evaluate a state loaded from a JSON file")
    p.add_argument("--input", required=True, help="state file path")
    common(p)

    p = sub.add_parser("maximize", help="search the Schmidt freedom for the largest rhs")
    p.add_argument("--input", default=None, help="state file path")
    p.add_argument("--dim", type=int, default=None, help="use the canonical state at this dim")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--sweeps", type=int, default=2000, help="gradient ascent steps")
    p.add_argument("--seed", type=int, default=0)
    common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "counterexample":
            doc = run_counterexample(args.dim, args.log_base)
        elif args.command == "deform":
            doc = run_deform(args.dim, args.eps, args.log_base)
        elif args.command == "scan":
            doc = run_scan(args.dim, args.samples, args.seed)
        elif args.command == "check":
            doc = run_check(args.input, args.log_base)
        else:
            doc = run_maximize(
                args.input, args.dim, args.restarts, args.sweeps, args.seed, args.log_base
            )
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if args.log_base == "2":
        _rescale(doc, _ENTROPY_KEYS[args.command], 1.0 / math.log(2.0))
    if args.format == "json":
        text = _scan_json(doc) if args.command == "scan" else json.dumps(doc, indent=2)
        _emit(text + "\n", args.output)
    else:
        _emit(_scan_csv(doc) if args.command == "scan" else _scalar_csv(doc), args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
