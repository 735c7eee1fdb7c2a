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
from .sampling import ScanReport, scan
from .schmidt import degenerate_blocks, schmidt_decompose, verify_decomposition
from .spectra import _log_scale
from .tensor import FactorShape, load_state
from .tolerances import RESIDUAL_TOL


def _fmt(x: float) -> str:
    """17 significant digits: enough to reproduce the double exactly."""
    return format(float(x), ".17g")


def _sanitize(value):
    """Make a report value JSON-serializable (plain Python types)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return str(value)


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


def _scan_csv(report: ScanReport) -> str:
    lines = [
        f"# n_samples={report.n_samples}",
        f"# shape={'x'.join(str(d) for d in report.shape.dims)}",
        f"# master_seed={report.master_seed}",
        f"# min_gap={_fmt(report.min_gap)}",
        f"# max_gap={_fmt(report.max_gap)}",
        f"# mean_gap={_fmt(report.mean_gap)}",
        f"# violation_count={report.violation_count}",
        "sample_index,derived_seed,lhs,rhs,gap",
    ]
    for row in report.per_sample:
        if row.error is None:
            lines.append(
                f"{row.sample_index},{row.derived_seed},"
                f"{_fmt(row.lhs)},{_fmt(row.rhs)},{_fmt(row.gap)}"
            )
    for row in report.per_sample:
        if row.error is not None:
            lines.append(
                f"# error sample_index={row.sample_index} "
                f"derived_seed={row.derived_seed} message={row.error}"
            )
    return "\n".join(lines) + "\n"


def _scan_doc(report: ScanReport) -> dict:
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
            {
                "sample_index": r.sample_index,
                "derived_seed": r.derived_seed,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "gap": r.gap,
            }
            for r in report.per_sample
            if r.error is None
        ],
        "errors": [
            {
                "sample_index": r.sample_index,
                "derived_seed": r.derived_seed,
                "message": r.error,
            }
            for r in report.per_sample
            if r.error is not None
        ],
    }


def run_counterexample(dim: int, log_base: str) -> dict:
    s = canonical_counterexample(dim)
    product = product_decomposition(dim)
    entangled = entangled_decomposition(dim)
    lhs = bn_lhs(s, log_base)
    rhs_entangled = bn_rhs(entangled, log_base)
    return {
        "command": "counterexample",
        "dim": dim,
        "log_base": log_base,
        "lhs": lhs,
        "rhs_product": bn_rhs(product, log_base),
        "rhs_entangled": rhs_entangled,
        "gap_entangled": lhs - rhs_entangled,
        "theoretical_entangled_rhs": 2.0 * math.log(dim) * _log_scale(log_base),
        "residual_product": verify_decomposition(s.state, product),
        "residual_entangled": verify_decomposition(s.state, entangled),
    }


def run_deform(dim: int, eps: float, log_base: str) -> dict:
    state, dec = deformed_counterexample(dim, eps)
    report = bn_gap(
        state, dec, log_base, source="deformed", descriptor=f"deformed dim={dim} eps={eps}"
    )
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


def run_scan(dim: int, samples: int, seed: int, log_base: str) -> ScanReport:
    shape = FactorShape((dim, dim, dim, dim))
    report = scan(samples, shape, seed, log_base)
    if all(r.error is not None for r in report.per_sample):
        raise NumericalError("every sample in the scan failed")
    return report


def run_check(input_path: str, log_base: str, residual_tol: float) -> dict:
    psi = load_state(input_path)
    s = FourFactorState(psi)
    dec = schmidt_decompose(psi, ADDITIVITY_SPLIT)
    report = bn_gap(
        s,
        dec,
        log_base,
        residual_tol=residual_tol,
        source="svd",
        descriptor=f"state file {input_path}",
    )
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
    dec, report = maximize_rhs(s, restarts=restarts, sweeps=sweeps, seed=seed, log_base=log_base)
    initial_rhs = bn_rhs(schmidt_decompose(s.state, ADDITIVITY_SPLIT), log_base)
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
    p.add_argument(
        "--tol",
        type=float,
        default=RESIDUAL_TOL,
        help="verification residual gate for the decomposition",
    )
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
            report = run_scan(args.dim, args.samples, args.seed, args.log_base)
            if args.format == "csv":
                _emit(_scan_csv(report), args.output)
            else:
                _emit(json.dumps(_scan_doc(report), indent=2) + "\n", args.output)
            return 0
        elif args.command == "check":
            doc = run_check(args.input, args.log_base, args.tol)
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
    doc = {k: _sanitize(v) for k, v in doc.items()}
    if args.format == "csv":
        _emit(_scalar_csv(doc), args.output)
    else:
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
