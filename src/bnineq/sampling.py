"""Seeded Haar-random states and unitaries, and deterministic scans that
evaluate the inequality over many random four-factor states.

``scan`` only draws the states and records the error rows.  The stacked
evaluation of the SVD route and the residual gate both live in
:mod:`bnineq.inequality`, beside ``bn_gap``: ``_svd_gaps`` returns each
row's refusal, and the scan records it.

Reproducibility contract: every random draw comes from a generator of
``schmidt._rng(seed, *words)``, which states the seed rule once.
``haar_state`` and ``haar_unitary`` pass their ``seed`` and no word; scan
sample i passes ``derive_seed(master_seed, i)``, the SplitMix64 mixer
below.  In ``maximize_rhs``, wide block b draws its restarts in order from
one generator, ``_rng(seed, b)``: restart r takes that stream's r-th
Ginibre pair, however the starts are cut into stacks.  Unitaries of both
kinds come from one draw, ``schmidt._haar_unitaries``.  The same inputs
produce the same outputs on every run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .inequality import ADDITIVITY_SPLIT, FourFactorState, _svd_gaps, bn_gap
from .schmidt import _haar_unitaries, _rng, schmidt_decompose
from .tensor import FactorShape, InputError, NumericalError, PureState, _as_int, _stacks
from .tolerances import MAX_SCAN_AMPLITUDES, VIOLATION_THRESHOLD

__all__ = ["derive_seed", "haar_state", "haar_unitary", "SampleRecord", "ScanReport", "scan"]


def _splitmix64(master_seed: int, index: np.ndarray) -> np.ndarray:
    """SplitMix64 of ``(master_seed, i)`` for each i of the 1-d uint64
    array ``index``, as a uint64 array: the layout of :func:`derive_seed`.

    Every operand is an array or an explicit ``np.uint64``, so the
    arithmetic wraps mod 2^64 without an overflow warning and promotes
    alike under every numpy the package supports.
    """
    z = (index + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(master_seed % 2**64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def derive_seed(master_seed: int, index: int) -> int:
    """Mix ``(master_seed, index)`` into an independent 64-bit seed.

    SplitMix64: the state ``master_seed + (index + 1) * 0x9E3779B97F4A7C15``
    (mod 2^64) is passed through the SplitMix64 output permutation
    (xor-shift-multiply with the published constants).  Pure integer
    arithmetic, so the stream layout is fixed for all time.  ``scan``
    derives all of its seeds in one uint64 pass with the same layout.
    """
    master_seed, index = _as_int(master_seed, "master_seed"), _as_int(index, "index")
    return _splitmix64(master_seed, np.array([index % 2**64], dtype=np.uint64)).tolist()[0]


def haar_state(shape: FactorShape, seed: int) -> PureState:
    """Haar-random pure state: normalized i.i.d. complex Gaussian amplitudes.

    One draw of shape (2, D) gives the real parts (row 0) and the imaginary
    parts (row 1); interleaving the rows by a copy and viewing the pairs as
    complex gives the values of ``x[0] + 1j * x[1]`` without the arithmetic.
    :meth:`PureState.normalized` divides that vector by its norm and keeps
    the quotient, which it gates once: a draw takes two norms, the divisor
    and the check, and no copy after the interleave.
    """
    x = _rng(_as_int(seed, "seed")).standard_normal((2, shape.total_dimension))
    return PureState.normalized(shape, x.T.copy().view(np.complex128))


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix.

    The R factor's diagonal phases are divided out, which corrects the QR
    factorization's phase convention and makes the distribution exactly
    Haar.  ``n = 1`` gives a single uniformly random phase.
    """
    return _haar_unitaries(n, _rng(_as_int(seed, "seed")), 1)[0]


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
    """Results of a scan as arrays over the samples, in nats: NaN on a
    failed sample, whose index ``errors`` maps to its message.  ``seeds``
    holds each sample's derived seed (read-only uint64).  Aggregates
    cover the successful samples; ``per_sample`` builds the rows."""

    shape: FactorShape
    master_seed: int
    seeds: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    gap: np.ndarray
    errors: dict[int, str]

    n_samples = property(lambda self: self.gap.size)

    @functools.cached_property
    def _ok(self) -> np.ndarray:
        """The mask of the successful samples (read-only), built on its
        first read: the four aggregates and the CLI's rows all index with it."""
        ok = np.ones(self.n_samples, dtype=bool)
        ok[list(self.errors)] = False
        ok.setflags(write=False)
        return ok

    def _stat(self, stat) -> float:
        gaps = self.gap[self._ok]
        return float(stat(gaps)) if gaps.size else float("nan")

    min_gap = property(lambda self: self._stat(np.ndarray.min))
    max_gap = property(lambda self: self._stat(np.ndarray.max))
    mean_gap = property(lambda self: self._stat(np.ndarray.mean))
    violation_count = property(lambda self: int((self.gap[self._ok] < VIOLATION_THRESHOLD).sum()))

    @property
    def per_sample(self) -> tuple[SampleRecord, ...]:
        rows = zip(self.seeds.tolist(), self.lhs.tolist(), self.rhs.tolist(), self.gap.tolist())
        return tuple(SampleRecord(i, *row, self.errors.get(i)) for i, row in enumerate(rows))


def scan(n_samples: int, shape: FactorShape, master_seed: int) -> ScanReport:
    """Evaluate the inequality on Haar-random states with SVD decompositions.

    Sample i uses the state ``haar_state(shape, derive_seed(master_seed,
    i))`` and its Schmidt decomposition across the {1,2} | {3,4} split.
    A sample whose decomposition fails to verify (score above
    ``RESIDUAL_TOL``) or whose evaluation raises a numerical error is
    recorded with an error tag instead of aborting the scan.  Aggregates
    (min, max, mean gap and the count of gaps below
    ``VIOLATION_THRESHOLD``) cover the successful samples only.  A scan
    of more than ``MAX_SCAN_AMPLITUDES`` amplitudes in all is refused
    before anything is drawn.

    The scan only draws the states and records the error rows; it applies
    no gate of its own.  Each stack of samples that ``tensor._stacks``
    cuts is evaluated by ``inequality._svd_gaps``, beside
    :func:`bn_gap`: the kernels of :func:`schmidt_decompose`,
    :func:`verify_decomposition`, ``bn_lhs`` and ``bn_rhs`` and the
    residual gate of ``bn_gap``, so each row equals the single-state
    evaluation, refusal included.  A stack that raises a numerical error
    is redone one sample at a time as :func:`bn_gap` over
    :func:`schmidt_decompose`, the route of ``bnineq check``: a sample
    that fails there keeps the error's text, or the gate's refusal, as
    its message.

    Note what the aggregate shows: with the SVD decomposition one Haar
    state in about 15 violates the inequality at d = 2 (68 of 1000, seed
    7) and none of 300 at d = 3 or of 200 at d = 4.  The structured
    counterexample family is what refutes it at every d.
    """
    n_samples, master_seed = _as_int(n_samples, "n_samples", 1), _as_int(master_seed, "master_seed")
    if shape.n_factors != 4:
        raise InputError(f"scan needs a 4-factor shape, got {shape.dims}")
    if n_samples * shape.total_dimension > MAX_SCAN_AMPLITUDES:
        raise InputError(
            f"{n_samples} samples of dimension {shape.total_dimension} exceed the supported "
            f"maximum of {MAX_SCAN_AMPLITUDES} amplitudes per scan"
        )
    seeds = _splitmix64(master_seed, np.arange(n_samples, dtype=np.uint64))
    seeds.setflags(write=False)
    lhs, rhs = np.empty((2, n_samples))
    lhs[:] = rhs[:] = np.nan  # a failed sample keeps NaN
    errors: dict[int, str] = {}
    for stack in _stacks(n_samples, shape.total_dimension):
        amps = np.array([haar_state(shape, seed).amplitudes for seed in seeds[stack].tolist()])
        try:
            lhs[stack], rhs[stack], refused = _svd_gaps(amps, shape)
            errors.update((stack.start + i, text) for i, text in refused.items())
        except NumericalError:
            for i, row in enumerate(amps, stack.start):
                psi = PureState(shape, row)
                try:
                    report = bn_gap(FourFactorState(psi), schmidt_decompose(psi, ADDITIVITY_SPLIT))
                    lhs[i], rhs[i] = report.lhs, report.rhs
                except (NumericalError, InputError) as exc:
                    errors[i] = str(exc)
    return ScanReport(shape, master_seed, seeds, lhs, rhs, lhs - rhs, errors)
