"""Plain-numpy oracle for the benchmark's outputs.

Nothing here imports ``bnineq``.  The oracle recomputes every checked
number from the definitions: a Haar state from its seed (the package's
documented reproducibility contract), the left-hand side from the
{1,3} | {2,4} reshape, and the right-hand side from the SVD across
{1,2} | {3,4} and the singular values of each reshaped Schmidt vector.

A check returns a :class:`Check`: how many operations it covered, which
of them failed, and the mismatches found.  A mismatch means the program
returned a wrong output, and the operation counts as failed; so does a
scan error row.  A maximize call that stops short of 2 ln d returned a
correct but suboptimal decomposition (``maximize_rhs`` is a heuristic
search that promises only not to fall below its SVD start): its
shortfall is recorded, and it is not a failed operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: lhs, rhs and gap must agree with the oracle to this absolute tolerance.
VALUE_TOL = 1e-10
#: Same-seed reruns, and scan aggregates recomputed from the rows, must
#: agree to this tolerance.
RERUN_TOL = 1e-12
#: Reconstruction residual and orthonormality defect allowed for a
#: returned decomposition.
DECOMPOSITION_TOL = 1e-10
#: A maximize call counts as a miss when it stops more than this short of
#: the 2 ln d optimum.
SHORTFALL_TOL = 1e-9
#: Shortfalls are floored here: below it is roundoff.
SHORTFALL_FLOOR = 1e-12
#: Gap below which a scan sample counts as a violation (the CLI's rule).
VIOLATION_THRESHOLD = -1e-9

_MASK64 = (1 << 64) - 1


@dataclass
class Check:
    ops: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    shortfalls: list[float] = field(default_factory=list)

    def add(self, other: "Check") -> None:
        self.ops += other.ops
        self.failed += other.failed
        self.mismatches += other.mismatches
        self.shortfalls += other.shortfalls

    @property
    def misses(self) -> int:
        """Maximize calls that stopped more than SHORTFALL_TOL short."""
        return sum(s > SHORTFALL_TOL for s in self.shortfalls)


def splitmix64(master: int, index: int) -> int:
    """SplitMix64 output for state ``master + (index + 1) * golden``."""
    z = (int(master) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def haar_amplitudes(dim: int, seed: int) -> np.ndarray:
    """Normalized complex Gaussian amplitudes of a (d, d, d, d) state."""
    x = np.random.default_rng(int(seed) & _MASK64).standard_normal((2, dim**4))
    psi = x[0] + 1j * x[1]
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2))


def canonical_amplitudes(dim: int) -> np.ndarray:
    """Amplitude 1/d on every label (i, k, i, k)."""
    grid = np.zeros((dim,) * 4, dtype=np.complex128)
    for i in range(dim):
        for k in range(dim):
            grid[i, k, i, k] = 1.0 / dim
    return grid.reshape(-1)


def shannon(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def pair_entropy(vector: np.ndarray, dim: int) -> float:
    """Entanglement entropy of a vector on C^d (x) C^d."""
    return shannon(np.linalg.svd(vector.reshape(dim, dim), compute_uv=False) ** 2)


def lhs(psi: np.ndarray, dim: int) -> float:
    """S(rho_13): entanglement entropy across {1,3} | {2,4}."""
    m = psi.reshape((dim,) * 4).transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    return shannon(np.linalg.svd(m, compute_uv=False) ** 2)


def rhs(lam: np.ndarray, left: np.ndarray, right: np.ndarray, dim: int) -> float:
    """Right-hand side for Schmidt weights and vector columns."""
    return float(
        sum(
            lam[a] * (pair_entropy(left[:, a], dim) + pair_entropy(right[:, a], dim))
            for a in range(lam.size)
        )
    )


def svd_rhs(psi: np.ndarray, dim: int) -> float:
    """Right-hand side for the SVD decomposition across {1,2} | {3,4}."""
    u, s, vh = np.linalg.svd(psi.reshape(dim * dim, dim * dim))
    return rhs(s**2, u, vh.conj().T, dim)


def reference_batch(dim: int, n_states: int) -> float:
    """The benchmark's yardstick: lhs minus rhs of ``n_states`` fixed Haar
    states, by the oracle.  The same plain-numpy work on every run, so
    its time tracks only the speed of the machine at that moment."""
    return sum(
        lhs(psi, dim) - svd_rhs(psi, dim)
        for psi in (haar_amplitudes(dim, splitmix64(0, j)) for j in range(n_states))
    )


def check_scan(doc: dict, dim: int, n_samples: int, master_seed: int) -> Check:
    """Check one ``bnineq scan`` JSON document row by row and in aggregate."""
    out = Check(ops=n_samples)
    rows = doc.get("samples", [])
    errors = doc.get("errors", [])
    header = (doc.get("n_samples"), doc.get("shape"), doc.get("master_seed"))
    if header != (n_samples, [dim] * 4, master_seed):
        out.mismatches.append(f"scan header {header} for {n_samples} samples, seed {master_seed}")
    indices = sorted(r["sample_index"] for r in rows + errors)
    if indices != list(range(n_samples)):
        out.mismatches.append("scan rows do not cover every sample index exactly once")
        out.failed = n_samples
        return out
    out.failed += len(errors)
    gaps = []
    for row in rows:
        i = row["sample_index"]
        if row["derived_seed"] != splitmix64(master_seed, i):
            out.mismatches.append(f"sample {i}: derived_seed {row['derived_seed']} is wrong")
            out.failed += 1
            continue
        psi = haar_amplitudes(dim, row["derived_seed"])
        want_lhs, want_rhs = lhs(psi, dim), svd_rhs(psi, dim)
        worst = max(
            abs(row["lhs"] - want_lhs),
            abs(row["rhs"] - want_rhs),
            abs(row["gap"] - (want_lhs - want_rhs)),
        )
        if not worst <= VALUE_TOL:
            out.mismatches.append(f"sample {i}: off the oracle by {worst:.3e}")
            out.failed += 1
        gaps.append(row["gap"])
    if gaps:
        want = (min(gaps), max(gaps), float(np.mean(gaps)))
        got = (doc["min_gap"], doc["max_gap"], doc["mean_gap"])
        violations = sum(g < VIOLATION_THRESHOLD for g in gaps)
        if not max(abs(a - b) for a, b in zip(got, want)) <= RERUN_TOL:
            out.mismatches.append(f"aggregates {got} do not match the rows {want}")
        if doc["violation_count"] != violations:
            out.mismatches.append(
                f"violation_count {doc['violation_count']} but the rows give {violations}"
            )
    return out


def scan_rows(doc: dict) -> np.ndarray:
    """The (sample_index, lhs, rhs, gap) rows of a scan, in index order:
    all that a same-seed rerun must reproduce, in compact form."""
    rows = sorted(doc.get("samples", []), key=lambda r: r["sample_index"])
    return np.array([[r["sample_index"], r["lhs"], r["rhs"], r["gap"]] for r in rows])


def rerun_mismatches(first: np.ndarray, second: np.ndarray) -> list[str]:
    """Mismatches between the outputs of two runs of one seed."""
    if first.shape != second.shape:
        return ["same-seed rerun produced a different set of outputs"]
    worst = float(np.max(np.abs(first - second), initial=0.0))
    if not worst <= RERUN_TOL:
        return [f"same-seed rerun differs by {worst:.3e}"]
    return []


def check_maximize(
    dim: int,
    lam: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    reported_lhs: float,
    reported_rhs: float,
) -> Check:
    """Check one maximize call on the canonical state of dimension ``dim``."""
    out = Check(ops=1)
    optimum = 2.0 * math.log(dim)
    lam = np.asarray(lam, dtype=np.float64)
    psi = canonical_amplitudes(dim)
    rebuilt = sum(np.sqrt(lam[a]) * np.kron(left[:, a], right[:, a]) for a in range(lam.size))
    eye = np.eye(lam.size)
    defects = {
        "reconstruction": float(np.linalg.norm(rebuilt - psi)),
        "left orthonormality": float(np.max(np.abs(left.conj().T @ left - eye))),
        "right orthonormality": float(np.max(np.abs(right.conj().T @ right - eye))),
        "coefficient sum": abs(float(lam.sum()) - 1.0),
    }
    for what, defect in defects.items():
        if not defect <= DECOMPOSITION_TOL:
            out.mismatches.append(f"maximize {what} defect {defect:.3e}")
    for what, got, want in (
        ("lhs", reported_lhs, lhs(psi, dim)),
        ("rhs", reported_rhs, rhs(lam, left, right, dim)),
    ):
        if not abs(got - want) <= VALUE_TOL:
            out.mismatches.append(f"maximize {what} {got!r} but the oracle gives {want!r}")
    if not reported_rhs <= optimum + SHORTFALL_FLOOR:
        out.mismatches.append(f"maximize rhs {reported_rhs!r} exceeds 2 ln {dim}")
    shortfall = max(optimum - reported_rhs, SHORTFALL_FLOOR)
    out.shortfalls.append(shortfall)
    if out.mismatches:
        out.failed = 1
    return out
