"""Benchmark of the bnineq package.

Run from the root of a source checkout:

    python3 bench/run.py --workload scan-d2 --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout; nothing needs to
be installed.  With ``--trace 0`` the run measures the end-to-end
metrics; with ``--trace 1`` it measures the per-layer metrics from
spans.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record (environment, extra figures,
mismatches) goes to ``bench/out/``.  The exit code is 0 when every
output agreed with the oracle, 1 when one did not, and 2 when the run
could not start.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Pinned before numpy is imported: the plain single-threaded baseline,
#: and no thread-pool start-up inside setup_s.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Fresh interpreters started per run for setup_s; the median is reported.
SETUP_PROBES = 7
#: A run measures at least this many segments, and reruns at least this
#: many, however short --seconds is.
MIN_SEGMENTS = 3
#: Share of --seconds spent on new seeds; the rest reruns them in order.
FIRST_PASS = 0.85
#: A traced run repeats its (untraced, traced) pair at least this often,
#: so that the call counts can be compared between repeats.
MIN_TRACE_PAIRS = 2

END_TO_END = {
    "op_time_rel.p50": "x_oracle",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

#: Per-layer metrics, normalised per operation.  ``<span>.calls`` and
#: ``<span>.self_s`` come straight from the spans of that name.
PER_LAYER = {
    "tensor.PureState.calls": "calls/op",
    "tensor.PureState.self_s": "s/op",
    "tensor.DensityMatrix.calls": "calls/op",
    "tensor.DensityMatrix.self_s": "s/op",
    "tensor.partial_trace.calls": "calls/op",
    "tensor.partial_trace.self_s": "s/op",
    "tensor.permute_factors.calls": "calls/op",
    "spectra.von_neumann_entropy.calls": "calls/op",
    "spectra.von_neumann_entropy.self_s": "s/op",
    "spectra.entropy_from_eigenvalues.calls": "calls/op",
    "schmidt.schmidt_decompose.self_s": "s/op",
    "schmidt.verify_decomposition.calls": "calls/op",
    "schmidt.verify_decomposition.self_s": "s/op",
    "schmidt.degenerate_blocks.calls": "calls/op",
    "inequality.bn_lhs.self_s": "s/op",
    "inequality.bn_rhs.self_s": "s/op",
    "inequality.bn_gap.self_s": "s/op",
    "inequality.maximize_rhs.self_s": "s/op",
    "inequality.maximize_rhs.sweeps": "sweeps/op",
    "inequality.maximize_rhs.shortfall_nats": "nats",
    "sampling.haar_state.self_s": "s/op",
    "sampling.haar_unitary.calls": "calls/op",
    "sampling.scan.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "kernel.svd.calls": "calls/op",
    "kernel.eigvalsh.calls": "calls/op",
    "kernel.qr.calls": "calls/op",
    "kernel.norm.calls": "calls/op",
    "kernel.self_s": "s/op",
    "kernel.flops_est": "flop/op",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one-operation segments (self-tests)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "num_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "commit": commit or "unknown (not a git checkout)",
    }


def setup_probe(args) -> float:
    """Wall time of a fresh interpreter that imports bnineq, builds the
    inputs and finishes one warm-up operation."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return seconds


def measure(wl, args) -> dict:
    """Untraced run: end-to-end metrics over seeded segments.

    The shared machine this was built on runs one fixed computation up to
    1.8 times slower for seconds to minutes at a time, so a run's wall
    times say as much about the machine as about the program.  Each timed
    segment is therefore sandwiched between two timings of a fixed
    yardstick, :func:`oracle.reference_batch` (plain numpy, the same work
    on every run), and the run reports the median of the time per
    operation over the mean of the two yardstick times.  The median is
    taken over groups of ``segments_per_group`` consecutive segments,
    averaged: one scan segment already averages many samples, but one
    maximize call's cost depends on its seed.  Wall times are recorded
    too.

    The first 85% of the run times new seeds; the rest reruns them in
    order, as the same-seed rerun check, and those times count as well.
    The set-up probes are spread over the run.
    """
    import oracle

    splitmix = oracle.splitmix64
    size = 1 if args.smoke else wl.segment_size
    probes = 1 if args.smoke else SETUP_PROBES
    check = wl.segment(splitmix(args.seed, 0), size).check  # warm-up, untimed

    def reference() -> float:
        began = time.perf_counter()
        oracle.reference_batch(wl.dim, wl.reference_size)
        return time.perf_counter() - began

    reference()  # warm-up
    last_ref = reference()
    setup, ratios, op_seconds, sweeps = [], [], [], []
    start = time.perf_counter()

    def timed(seed):
        nonlocal last_ref
        due = len(setup) * args.seconds / probes
        if len(setup) < probes and time.perf_counter() - start >= due:
            setup.append(setup_probe(args))
            last_ref = reference()
        seg = wl.run(seed, size)
        ref = reference()
        ratios.append((seg.seconds / size) / ((last_ref + ref) / 2 / wl.reference_size))
        op_seconds.append(seg.seconds / size)
        last_ref = ref
        return seg

    first = []
    while len(first) < MIN_SEGMENTS or time.perf_counter() - start < FIRST_PASS * args.seconds:
        seed = splitmix(args.seed, len(first) + 1)
        seg = timed(seed)
        check.add(wl.verify(seg))
        seg.results = None
        first.append(seg)
        sweeps += seg.sweeps
    for i, seg in enumerate(first):
        if i >= MIN_SEGMENTS and time.perf_counter() - start >= args.seconds:
            break
        again = timed(seg.seed)
        check.mismatches += again.errors
        check.mismatches += oracle.rerun_mismatches(seg.outputs, again.outputs)
    while len(setup) < probes:
        setup.append(setup_probe(args))
    g = wl.segments_per_group
    groups = [statistics.fmean(ratios[i:i + g]) for i in range(0, max(len(ratios) - g, 0) + 1, g)]
    metrics = {
        "op_time_rel.p50": statistics.median(groups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    wall = statistics.median(op_seconds)
    extras = {
        "segments": len(ratios),
        f"{wl.op_name}s_per_segment": size,
        "reference_states": wl.reference_size,
        "op_time_ms.p50": 1e3 * wall,
        "setup_probes_s": setup,
        "op_ms_per_segment": [1e3 * t for t in op_seconds],
        "op_time_rel_per_segment": ratios,
        "failed_op_ratio": check.failed / check.ops,
    }
    if wl.op_name == "sample":
        extras["samples_per_s"] = 1.0 / wall
    else:
        extras["maximize_call_s.p50"] = wall
        extras["maximize_calls"] = len(op_seconds)
        extras["maximize_shortfall_nats"] = max(check.shortfalls)
        extras["maximize_misses"] = check.misses
        extras["sweeps_used"] = sweeps
    return {"check": check, "metrics": metrics, "extras": extras}


def measure_traced(wl, args) -> dict:
    """Traced run: per-layer metrics from spans over a fixed seeded block,
    repeated as (untraced, traced) pairs until --seconds have passed."""
    import oracle
    from tracer import Tracer

    splitmix = oracle.splitmix64
    size = 1 if args.smoke else wl.traced_size
    block_seed = splitmix(args.seed, 0)
    check = wl.segment(block_seed, size).check  # warm-up, untimed
    ratios, self_times, calls, kept = [], {}, None, None
    deadline = time.perf_counter() + args.seconds
    while len(ratios) < MIN_TRACE_PAIRS or time.perf_counter() < deadline:
        plain = wl.segment(block_seed, size)
        tracer = Tracer(wl.op_marker, wl.op_scope)
        traced = wl.segment(block_seed, size, program=tracer)
        check.add(plain.check)
        check.add(traced.check)
        ratios.append(traced.seconds / plain.seconds)
        totals = tracer.totals()
        pair_calls = {name: row["calls"] for name, row in totals.items()}
        if calls is None:
            calls, kept, sweeps = pair_calls, tracer, traced.sweeps
            flops = sum(row["flops_est"] for row in totals.values())
        elif pair_calls != calls:
            check.mismatches.append("traced call counts differ between repeats of one block")
        for name, row in totals.items():
            self_times.setdefault(name, []).append(row["self_s"])
        kernel_self = sum(row["self_s"] for name, row in totals.items() if name.startswith("kernel."))
        self_times.setdefault("kernel", []).append(kernel_self)
    metrics = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = calls.get(span, 0) / size
        elif kind == "self_s":
            metrics[name] = statistics.median(self_times.get(span, [0.0])) / size
    metrics["kernel.flops_est"] = flops / size
    metrics["inequality.maximize_rhs.sweeps"] = sum(sweeps) / size
    metrics["inequality.maximize_rhs.shortfall_nats"] = max(check.shortfalls, default=0.0)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
    kept.write(spans_path)
    extras = {
        "pairs": len(ratios),
        f"{wl.op_name}s_per_block": size,
        "absent": kept.absent,
        "spans": len(kept.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failed_op_ratio": check.failed / check.ops,
    }
    return {"check": check, "metrics": metrics, "extras": extras}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bnineq" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/bnineq; run from a bnineq checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    import bnineq
    import oracle
    from workloads import WORKLOADS

    if Path(bnineq.__file__).resolve().parent != SRC / "bnineq":
        print(f"error: imported bnineq from {bnineq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl.prepare(OUT_DIR)
    if args.setup_probe:
        wl.warm_up(args.seed)
        wl.cleanup()
        return 0
    try:
        run = (measure_traced if args.trace else measure)(wl, args)
    finally:
        wl.cleanup()
    check = run["check"]
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": run["metrics"][name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "attempted": check.ops,
        "failed": check.failed,
        "mismatches": check.mismatches[:50],
        "metrics": metrics,
        "extras": run["extras"],
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(f"bnineq benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  environment: {json.dumps(record['environment'])}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in run["extras"].items():
        if isinstance(value, (int, float)) and name != "failed_op_ratio":
            print(f"  {name:40s} {value:.6g}")
    print(f"  {'failed_op_ratio':40s} {check.failed / check.ops:.6g} ({check.failed} of {check.ops} operations failed)")
    if check.shortfalls:
        print(
            f"  {'maximize_miss_ratio':40s} {check.misses / len(check.shortfalls):.6g} "
            f"({check.misses} of {len(check.shortfalls)} checked calls stopped more than "
            f"{oracle.SHORTFALL_TOL:g} short of 2 ln d)"
        )
    for line in check.mismatches[:10]:
        print(f"  MISMATCH: {line}")
    correct = not check.mismatches
    print(json.dumps({"correct": correct, "attempted": check.ops, "failed": check.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
