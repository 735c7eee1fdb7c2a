"""Seeded Haar-random states and unitaries, and deterministic scans that
evaluate the inequality over many random four-factor states.

Reproducibility contract: every random draw goes through
``numpy.random.default_rng`` seeded either directly (``haar_state``,
``haar_unitary``) or with a seed derived from ``(master_seed, index)`` by
the SplitMix64 mixer in :func:`derive_seed`.  The same inputs produce the
same outputs on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InputError, NumericalError
from .inequality import ADDITIVITY_SPLIT, FourFactorState, bn_lhs, bn_rhs
from .schmidt import schmidt_decompose, verify_decomposition
from .tensor import FactorShape, PureState
from .tolerances import SCAN_RESIDUAL_TOL, VIOLATION_THRESHOLD

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def derive_seed(master_seed: int, index: int) -> int:
    """Mix ``(master_seed, index)`` into an independent 64-bit seed.

    SplitMix64: the state ``master_seed + (index + 1) * 0x9E3779B97F4A7C15``
    (mod 2^64) is passed through the SplitMix64 output permutation
    (xor-shift-multiply with the published constants).  Pure integer
    arithmetic, so the stream layout is fixed for all time.
    """
    z = (int(master_seed) + (int(index) + 1) * _GOLDEN64) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def haar_state(shape: FactorShape, seed: int) -> PureState:
    """Haar-random pure state: normalized i.i.d. complex Gaussian amplitudes."""
    rng = np.random.default_rng(int(seed) & _MASK64)
    x = rng.standard_normal((2, shape.total_dimension))
    return PureState.normalized(shape, x[0] + 1j * x[1])


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix.

    The R factor's diagonal phases are divided out, which corrects the QR
    factorization's phase convention and makes the distribution exactly
    Haar.  ``n = 1`` gives a single uniformly random phase.
    """
    n = int(n)
    if n < 1:
        raise InputError(f"unitary dimension must be >= 1, got {n}")
    rng = np.random.default_rng(int(seed) & _MASK64)
    x = rng.standard_normal((2, n, n))
    z = (x[0] + 1j * x[1]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


@dataclass(frozen=True, eq=False)
class SampleRecord:
    """One scanned state: its derived seed and inequality evaluation.

    ``error`` is None for a successful sample; failed samples carry the
    failure message and NaN numbers, and are excluded from aggregates.
    """

    sample_index: int
    derived_seed: int
    lhs: float
    rhs: float
    gap: float
    error: str | None = None


@dataclass(frozen=True, eq=False)
class ScanReport:
    """Aggregate results of a scan, with the per-sample rows that back them."""

    n_samples: int
    shape: FactorShape
    master_seed: int
    min_gap: float
    max_gap: float
    mean_gap: float
    violation_count: int
    per_sample: tuple[SampleRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_sample", tuple(self.per_sample))
        if len(self.per_sample) != self.n_samples:
            raise InputError(
                f"{len(self.per_sample)} rows recorded for n_samples={self.n_samples}"
            )
        gaps = [r.gap for r in self.per_sample if r.error is None]
        if gaps:
            if not (min(gaps) == self.min_gap and max(gaps) == self.max_gap):
                raise InputError("aggregate min/max do not match the recorded rows")
            if self.violation_count != sum(g < VIOLATION_THRESHOLD for g in gaps):
                raise InputError("violation_count does not match the recorded rows")


def scan(n_samples: int, shape: FactorShape, master_seed: int) -> ScanReport:
    """Evaluate the inequality on Haar-random states with SVD decompositions.

    Sample i uses the state ``haar_state(shape, derive_seed(master_seed,
    i))`` and its Schmidt decomposition across the {1,2} | {3,4} split.
    A sample whose decomposition fails to verify (score above
    ``SCAN_RESIDUAL_TOL``) or whose evaluation raises a numerical error is
    recorded with an error tag instead of aborting the scan.  Aggregates
    (min, max, mean gap and the count of gaps below
    ``VIOLATION_THRESHOLD``) cover the successful samples only.

    Note what the aggregate shows: generic Haar states satisfy the
    inequality for the SVD decomposition, so a scan like this alone would
    wrongly suggest the inequality holds.  The structured counterexample
    family is what refutes it.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise InputError(f"n_samples must be >= 1, got {n_samples}")
    if shape.n_factors != 4:
        raise InputError(f"scan needs a 4-factor shape, got {shape.dims}")
    rows: list[SampleRecord] = []
    for i in range(n_samples):
        sub_seed = derive_seed(master_seed, i)
        try:
            psi = haar_state(shape, sub_seed)
            dec = schmidt_decompose(psi, ADDITIVITY_SPLIT)
            score = verify_decomposition(psi, dec)
            if not (score <= SCAN_RESIDUAL_TOL):
                raise NumericalError(
                    f"decomposition verification score {score:.3e} > {SCAN_RESIDUAL_TOL}"
                )
            lhs = bn_lhs(FourFactorState(psi))
            rhs = bn_rhs(dec)
            rows.append(SampleRecord(i, sub_seed, lhs, rhs, lhs - rhs))
        except NumericalError as exc:
            rows.append(
                SampleRecord(i, sub_seed, float("nan"), float("nan"), float("nan"), str(exc))
            )
    gaps = [r.gap for r in rows if r.error is None]
    if gaps:
        min_gap = min(gaps)
        max_gap = max(gaps)
        mean_gap = float(np.mean(gaps))
        violations = sum(g < VIOLATION_THRESHOLD for g in gaps)
    else:
        min_gap = max_gap = mean_gap = float("nan")
        violations = 0
    return ScanReport(
        n_samples=n_samples,
        shape=shape,
        master_seed=int(master_seed),
        min_gap=min_gap,
        max_gap=max_gap,
        mean_gap=mean_gap,
        violation_count=violations,
        per_sample=tuple(rows),
    )
