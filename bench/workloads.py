"""The benchmark's workloads, run through the package's public entry points.

A workload runs *segments*.  A segment is a fixed amount of seeded work:
for a scan, one ``bnineq scan`` command of ``size`` samples, run
in-process through ``bnineq.cli.main`` with its JSON written to a file;
for maximize, ``size`` calls of ``maximize_rhs`` on the canonical d = 2
state.  :meth:`run` times (and traces, when a tracer is passed) only the
program call; :meth:`verify` checks the outputs against the oracle
afterwards.  A same-seed repeat is not verified but compared with the
verified run.  An operation is one scan sample or one maximize call.

Each workload also names its yardstick: ``reference_size`` states of
its dimension for :func:`oracle.reference_batch`.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bnineq
import bnineq.cli
import oracle


@dataclass
class Segment:
    seed: int
    size: int
    seconds: float
    #: The program's raw results, for :meth:`verify`.
    results: object
    #: What a same-seed rerun must reproduce, as a float array.
    outputs: np.ndarray
    #: Mismatches found while reading the results (a failed command).
    errors: list[str] = field(default_factory=list)
    #: Greedy sweeps used per maximize call.
    sweeps: list[int] = field(default_factory=list)
    #: The oracle's verdict, once :meth:`Workload.segment` has verified it.
    check: oracle.Check | None = None


class Workload:
    """What the two workload kinds share: ``run``, then ``verify``."""

    def segment(self, seed: int, size: int, program=contextlib.nullcontext()) -> Segment:
        """Run and verify; the result's ``check`` holds the verdict."""
        seg = self.run(seed, size, program)
        seg.check = self.verify(seg)
        return seg


class ScanWorkload(Workload):
    op_marker = "sampling.haar_state"
    op_scope = "sampling.scan"
    op_name = "sample"
    segments_per_group = 1

    def __init__(self, dim: int, segment_size: int, traced_size: int, reference_size: int) -> None:
        self.dim = dim
        self.segment_size = segment_size
        self.traced_size = traced_size
        self.reference_size = reference_size
        self.output: Path | None = None

    def prepare(self, out_dir: Path) -> None:
        self.output = out_dir / f"scan-d{self.dim}-{os.getpid()}.json"

    def argv(self, master_seed: int, size: int) -> list[str]:
        return [
            "scan", "--dim", str(self.dim), "--samples", str(size),
            "--seed", str(master_seed), "--output", str(self.output),
        ]

    def warm_up(self, seed: int) -> None:
        if bnineq.cli.main(self.argv(seed, 1)) != 0:
            raise RuntimeError("warm-up scan failed")

    def run(self, master_seed: int, size: int, program=contextlib.nullcontext()) -> Segment:
        argv = self.argv(master_seed, size)
        with program:
            start = time.perf_counter()
            code = bnineq.cli.main(argv)
            seconds = time.perf_counter() - start
        if code != 0:
            return Segment(master_seed, size, seconds, None, np.empty(0), [f"scan exited with {code}"])
        doc = json.loads(self.output.read_text(encoding="utf-8"))
        return Segment(master_seed, size, seconds, doc, oracle.scan_rows(doc))

    def verify(self, seg: Segment) -> oracle.Check:
        if seg.errors:
            return oracle.Check(ops=seg.size, failed=seg.size, mismatches=list(seg.errors))
        return oracle.check_scan(seg.results, self.dim, seg.size, seg.seed)

    def cleanup(self) -> None:
        if self.output is not None:
            self.output.unlink(missing_ok=True)


def _columns(dec, side: str):
    """Schmidt vectors of one side as columns.

    Falls back to a ``left``/``right`` array attribute, the array-native
    form that the roadmap plans for ``SchmidtDecomposition``.
    """
    method = getattr(dec, f"{side}_matrix", None)
    return method() if method is not None else getattr(dec, side)


class MaximizeWorkload(Workload):
    op_marker = "inequality.maximize_rhs"
    op_scope = "inequality.maximize_rhs"
    op_name = "call"
    #: A call's cost follows its seed's sweep count (3 to 8 at d = 2), so
    #: the run's median is taken over means of four calls.
    segments_per_group = 4

    def __init__(self, dim: int, segment_size: int, traced_size: int, reference_size: int) -> None:
        self.dim = dim
        self.segment_size = segment_size
        self.traced_size = traced_size
        self.reference_size = reference_size
        self.state = None

    def prepare(self, out_dir: Path) -> None:
        self.state = bnineq.canonical_counterexample(self.dim)

    def warm_up(self, seed: int) -> None:
        bnineq.maximize_rhs(self.state, restarts=1, sweeps=1, seed=oracle.splitmix64(seed, 0))

    def run(self, seed: int, size: int, program=contextlib.nullcontext()) -> Segment:
        seeds = [oracle.splitmix64(seed, j) for j in range(size)]
        results = []
        with program:
            start = time.perf_counter()
            for call_seed in seeds:
                results.append(bnineq.maximize_rhs(self.state, seed=call_seed))
            seconds = time.perf_counter() - start
        sweeps = []
        for _, report in results:
            used = re.search(r"sweeps_used=(\d+)", report.state_descriptor)
            if used:
                sweeps.append(int(used.group(1)))
        rhs = np.array([report.rhs for _, report in results])
        return Segment(seed, size, seconds, results, rhs, sweeps=sweeps)

    def verify(self, seg: Segment) -> oracle.Check:
        checked = oracle.Check()
        for dec, report in seg.results:
            checked.add(
                oracle.check_maximize(
                    self.dim, dec.coefficients, _columns(dec, "left"), _columns(dec, "right"),
                    report.lhs, report.rhs,
                )
            )
        return checked

    def cleanup(self) -> None:
        pass


#: Segments take about 0.1 s (scans) and 0.4 s (one maximize call) on a
#: 2-CPU x86-64 virtual machine; traced blocks take about 0.2 s and 1 s.
#: The yardstick batches take about a third (scans) or a tenth (maximize)
#: of a segment.
WORKLOADS = {
    "scan-d2": ScanWorkload(dim=2, segment_size=100, traced_size=200, reference_size=100),
    "scan-d4": ScanWorkload(dim=4, segment_size=30, traced_size=60, reference_size=30),
    "maximize-d2": MaximizeWorkload(dim=2, segment_size=1, traced_size=2, reference_size=200),
}
