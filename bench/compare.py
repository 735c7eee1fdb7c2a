"""Compare benchmark results of two commits.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the last stdout line of runs of one workload, one JSON
object per line, and line i of both files comes from the same seed
(run as an alternating pair).  For every metric the script prints each
side's median and quartiles, how many pairs the change won, and a
verdict by the rules of ``bench/README.md``: a gain needs wins in at
least nine tenths of the pairs and a median difference larger than the
base's own quartile spread; a regression is a median worse than the
base's by more than the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path: str) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(name: str, base: list[float], change: list[float]) -> str:
    spec = METRICS.get(name, {"better": "lower"})
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    bq1, bmed, bq3 = quartiles(base)
    cmed = statistics.median(change)
    text = f"wins {wins}/{len(base)}"
    if wins >= 0.9 * len(base) and abs(cmed - bmed) > bq3 - bq1:
        return text + ", gain"
    bound = spec.get("bound")
    if bound is not None and sign * (cmed - bmed) > bound * abs(bmed):
        return text + f", worse by more than the bound {bound}"
    if bound is not None and bq3 - bq1 > bound * abs(bmed):
        return text + ", unresolved (base spread wider than the bound)"
    return text + ", no gain shown"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    if len(base) != len(change) or not base:
        print("error: both files need the same, nonzero number of runs", file=sys.stderr)
        return 2
    for side, runs in (("base", base), ("change", change)):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        wrong = sum(not r["correct"] for r in runs)
        print(f"{side}: {failed} of {attempted} operations failed; {wrong} runs with wrong output")
    for name in base[0]["metrics"]:
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        unit = base[0]["metrics"][name]["unit"]
        (bq1, bm, bq3), (cq1, cm, cq3) = quartiles(b), quartiles(c)
        print(
            f"{name:40s} base {bm:.6g} [{bq1:.6g}, {bq3:.6g}]  "
            f"change {cm:.6g} [{cq1:.6g}, {cq3:.6g}] {unit}  {verdict(name, b, c)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
