"""Multi-factor state vectors, factor permutations and partial traces.

Conventions used throughout the package:

* Tensor factors are numbered 1..n, matching the physics habit of
  labelling Hilbert spaces H_1, H_2, ...  Every function that accepts
  factor positions (``permute_factors``, ``partial_trace``, bipartite
  splits) uses this 1-based numbering.
* Amplitudes are stored row-major with factor 1 most significant: the
  linear index of the multi-index (i_1, ..., i_n) on dimensions
  (d_1, ..., d_n) is i_1*d_2*...*d_n + i_2*d_3*...*d_n + ... + i_n, the
  order of ``numpy.ravel_multi_index``.
* Basis labels inside a single factor are 0-based (0 .. d-1).

The package's two error types are defined here, beside the rules that
raise them.  Input rules, each written once here, raise :class:`InputError`:
``_as_int`` refuses NaN, inf, fractions, bools, non-numbers and integers
below ``least``; ``_descending``, non-finite or ascending real vectors;
``_hermitian``, non-square, non-finite or non-Hermitian matrices;
``_positions``, empty, repeated or out-of-range factor positions.
``_lapack``, the package's only caller of ``numpy.linalg``, raises
:class:`NumericalError` when a LAPACK routine fails.  ``_stacks``, the only
reader of ``STACK_ELEMENTS``, cuts every stacked evaluation into slices.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tolerances import (
    MATRIX_ATOL, MAX_TOTAL_DIMENSION, NORM_ATOL, STACK_ELEMENTS, STATE_FILE_NORM_ATOL,
)

__all__ = [
    "InputError", "NumericalError", "FactorShape", "PureState", "DensityMatrix",
    "partial_trace", "partial_trace_naive", "state_to_document", "save_state", "load_state",
]


class InputError(ValueError):
    """Invalid argument, malformed file, or violated precondition; the CLI
    exits with code 2."""


class NumericalError(RuntimeError):
    """Numerical failure: solver non-convergence, or a spectrum so far out
    of range that it signals a bug upstream rather than roundoff; the CLI
    exits with code 3."""


def _as_int(value, what: str, least: int | None = None) -> int:
    """``value`` as an int, at least ``least`` if given (2, ``np.int64(2)``
    and 2.0 all give 2).  An array of ndim > 0 is refused before ``int()``,
    which numpy 1.24 allows on ``np.array([2])`` and numpy >= 1.25 deprecates."""
    try:
        bad = isinstance(value, (bool, np.bool_)) or getattr(value, "ndim", 0) != 0
        n = None if bad else int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise InputError(f"{what} must be an integer, got {value!r}")
    if least is not None and n < least:
        raise InputError(f"{what} must be >= {least}, got {n}")
    return n


def _descending(values, what: str) -> np.ndarray:
    """``values`` as a flat, read-only float64 copy: finite and descending."""
    v = np.array(values, dtype=np.float64).reshape(-1)
    if not np.isfinite(v).all():
        raise InputError(f"{what} must be finite")
    if (v[1:] > v[:-1]).any():
        raise InputError(f"{what} must be sorted in descending order")
    v.setflags(write=False)
    return v


def _hermitian(m, what: str) -> np.ndarray:
    """``m`` as a complex128 copy: square, finite and within ``MATRIX_ATOL``
    of Hermitian."""
    a = np.array(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"{what} must be square, got array of shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputError(f"{what} has non-finite entries")
    with np.errstate(over="ignore"):  # a huge finite entry deviates by inf
        herm_dev = float(np.abs(a - a.conj().T).max()) if a.size else 0.0
    if not herm_dev <= MATRIX_ATOL:
        raise InputError(f"{what} deviates from Hermitian by {herm_dev:.3e} (tol {MATRIX_ATOL})")
    return a


def _positions(positions, n: int, what: str) -> tuple[int, ...]:
    """``positions`` as a tuple of ints: nonempty, distinct and within 1..n."""
    pos = tuple(_as_int(p, f"{what} position") for p in positions)
    if not pos or not all(1 <= p <= n for p in pos):
        raise InputError(f"{what} positions {pos} must be nonempty and within 1..{n}")
    if len(set(pos)) != len(pos):
        raise InputError(f"{what} positions contain duplicates: {pos}")
    return pos


@dataclass(frozen=True)
class FactorShape:
    """Ordered local dimensions (d_1, ..., d_n) of a tensor-product space."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            dims = tuple(_as_int(d, "factor dimension", 1) for d in self.dims)
        except TypeError as exc:
            raise InputError(f"factor dimensions must be integers, got {self.dims!r}") from exc
        object.__setattr__(self, "dims", dims)
        if len(dims) == 0:
            raise InputError("a shape needs at least one factor")
        total = math.prod(dims)
        if total > MAX_TOTAL_DIMENSION:
            raise InputError(
                f"total dimension {total} exceeds the supported maximum {MAX_TOTAL_DIMENSION}"
            )

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    @property
    def total_dimension(self) -> int:
        return math.prod(self.dims)


def _norm(amps: np.ndarray) -> float:
    """The 2-norm of a flat complex vector: the arithmetic of
    ``np.linalg.norm`` (``sqrt(re.re + im.im)``) without its per-call cost,
    so the two agree bit for bit.  ``vdot`` overflows to inf without a
    warning, so huge finite amplitudes give norm inf for the gates."""
    re, im = amps.real, amps.imag
    return math.sqrt(np.vdot(re, re) + np.vdot(im, im))


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized state vector on a tensor-product space.

    The amplitude array is stored flat (length = total dimension) in the
    row-major order described in the module docstring, and is frozen
    read-only after construction.
    """

    shape: FactorShape
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != self.shape.total_dimension:
            raise InputError(
                f"amplitude vector has length {amps.size}, expected "
                f"{self.shape.total_dimension} for dims {self.shape.dims}"
            )
        norm = _norm(amps)
        if not math.isfinite(norm):
            raise InputError(f"state vector norm {norm!r} is not finite")
        if abs(norm - 1.0) > NORM_ATOL:
            raise InputError(f"state vector norm {norm!r} deviates from 1 by more than {NORM_ATOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, shape: FactorShape, amplitudes) -> "PureState":
        """Build a state from an unnormalized amplitude vector."""
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        norm = _norm(amps)
        if not 0.0 < norm < math.inf:
            raise InputError(f"cannot normalize a vector of norm {norm!r}")
        return cls(shape, amps / norm)

    def grid(self) -> np.ndarray:
        """The amplitudes reshaped to one axis per factor (read-only view)."""
        return self.amplitudes.reshape(self.shape.dims)


def permute_factors(psi: PureState, perm) -> PureState:
    """Reorder tensor factors.

    ``perm`` lists source positions: the factor at result position p is the
    source factor ``perm[p]`` (1-based).  Pure reindexing, so amplitudes are
    moved bit-exactly and applying the inverse permutation restores the
    input exactly.  No package code calls it; it stays only because the
    benchmark tracer (``bench/tracer.py``, ``LAYERS``) names it.
    """
    p = _positions(perm, psi.shape.n_factors, "factor")
    if len(p) != psi.shape.n_factors:
        raise InputError(f"{p} is not a permutation of 1..{psi.shape.n_factors}")
    axes = [x - 1 for x in p]
    grid = psi.grid().transpose(axes)
    new_shape = FactorShape(tuple(psi.shape.dims[a] for a in axes))
    return PureState(new_shape, grid.reshape(-1))


def _stacks(n: int, size: int) -> list[slice]:
    """The consecutive slices of ``range(n)`` in which a stacked evaluation
    takes n items of ``size`` complex entries each: at most
    ``STACK_ELEMENTS // size`` items per slice, and at least one.  The
    package's only reader of ``STACK_ELEMENTS``, looked up when it runs, so
    a test that patches ``bnineq.tensor.STACK_ELEMENTS`` sets the budget of
    both ``scan`` and ``maximize_rhs``, whose outputs must not depend on it."""
    step = max(1, STACK_ELEMENTS // size)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _lapack(name: str, *args, **kwargs):
    """``numpy.linalg.<name>(*args, **kwargs)``, with a ``LinAlgError``
    raised as :class:`NumericalError`.  It is the only code in the package
    that calls ``numpy.linalg`` (``tests/test_source.py`` checks this), so
    every LAPACK failure, of the eigensolvers, the SVD, the QR of
    :func:`bnineq.schmidt._haar_unitaries` or the Cayley ``solve`` of
    :func:`bnineq.inequality.maximize_rhs`, exits 3 in the CLI.  The
    function is looked up at call time, so a tracer or test that patches
    ``numpy.linalg`` intercepts it."""
    try:
        return getattr(np.linalg, name)(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        what = {"svd": "SVD", "qr": "QR", "solve": "linear solve"}.get(name, "eigensolver")
        raise NumericalError(f"{what} failed to converge: {exc}") from exc


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix together with
    the factor shape of the space it lives on."""

    entries: np.ndarray
    origin_shape: FactorShape

    def __post_init__(self) -> None:
        m = _hermitian(self.entries, "density matrix")
        if m.shape[0] != self.origin_shape.total_dimension:
            raise InputError(
                f"matrix dimension {m.shape[0]} does not match shape {self.origin_shape.dims}"
            )
        trace_dev = abs(complex(m.trace()) - 1.0)
        if not trace_dev <= MATRIX_ATOL:
            raise InputError(f"trace deviates from 1 by {trace_dev:.3e}")
        lowest = float(_lapack("eigvalsh", m).min())
        if not lowest >= -MATRIX_ATOL:
            raise InputError(f"eigenvalue {lowest:.3e} below the allowed floor -{MATRIX_ATOL}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


def partial_trace(psi: PureState, keep) -> DensityMatrix:
    """Trace out all factors not listed in ``keep``.

    Parameters
    ----------
    psi : PureState
    keep : iterable of int
        1-based factor positions to retain.  The reduced matrix is indexed
        by the kept factors in their original relative order regardless of
        the order given here.  Must be nonempty; keeping every factor
        yields the projector onto ``psi``.

    Returns
    -------
    DensityMatrix on the kept factors.  The raw product is symmetrized by
    averaging with its conjugate transpose, so the result is Hermitian to
    machine precision.
    """
    pos = _positions(keep, psi.shape.n_factors, "keep")
    kept = sorted(p - 1 for p in pos)
    traced = [a for a in range(psi.shape.n_factors) if a not in kept]
    kept_dims = tuple(psi.shape.dims[a] for a in kept)
    m = psi.grid().transpose(kept + traced).reshape(math.prod(kept_dims), -1)
    rho = m @ m.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho, FactorShape(kept_dims))


def partial_trace_naive(psi: PureState, keep) -> DensityMatrix:
    """Reference partial trace by explicit summation over basis labels.

    Independent of :func:`partial_trace`: no reshaping or matrix products,
    just the definition.  Kept as a cross-check oracle; use the fast
    version for real work.
    """
    pos = _positions(keep, psi.shape.n_factors, "keep")
    kept = sorted(p - 1 for p in pos)
    traced = [a for a in range(psi.shape.n_factors) if a not in kept]
    kept_dims = [psi.shape.dims[a] for a in kept]
    traced_dims = [psi.shape.dims[a] for a in traced]
    amps = psi.amplitudes
    n_keep = math.prod(kept_dims)

    def full_index(kept_part, traced_part):
        full = [0] * psi.shape.n_factors
        for a, i in zip(kept, kept_part):
            full[a] = i
        for a, i in zip(traced, traced_part):
            full[a] = i
        return int(np.ravel_multi_index(full, psi.shape.dims))

    rho = np.zeros((n_keep, n_keep), dtype=np.complex128)
    kept_range = list(itertools.product(*[range(d) for d in kept_dims]))
    traced_range = list(itertools.product(*[range(d) for d in traced_dims])) or [()]
    for row, a_part in enumerate(kept_range):
        for col, b_part in enumerate(kept_range):
            acc = 0.0 + 0.0j
            for r_part in traced_range:
                acc += amps[full_index(a_part, r_part)] * np.conj(amps[full_index(b_part, r_part)])
            rho[row, col] = acc
    return DensityMatrix(rho, FactorShape(tuple(kept_dims)))


def state_to_document(psi: PureState) -> dict:
    """JSON-ready document with the on-disk state layout."""
    return {
        "dims": list(psi.shape.dims),
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }


def save_state(psi: PureState, path) -> None:
    Path(path).write_text(json.dumps(state_to_document(psi)) + "\n", encoding="utf-8")


def load_state(path) -> PureState:
    """Read a state vector from a JSON file.

    The document must look like ``{"dims": [2, 2, 2, 2], "amplitudes":
    [[re, im], ...]}`` with ``amplitudes`` in the row-major order described
    in the module docstring and of length ``prod(dims)``.  The stored
    vector must have norm 1 within ``STATE_FILE_NORM_ATOL``; it is
    renormalized exactly after that gate so downstream code sees a unit
    vector.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        # ValueError covers undecodable bytes and a path with a NUL byte.
        raise InputError(f"cannot read state file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integers too long to parse;
        # RecursionError, nesting too deep for the decoder.
        raise InputError(f"state file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "dims" not in doc or "amplitudes" not in doc:
        raise InputError(f"state file {path} must be an object with 'dims' and 'amplitudes'")
    dims = doc["dims"]
    if not isinstance(dims, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in dims
    ):
        raise InputError(f"state file {path}: 'dims' must be a list of integers")
    shape = FactorShape(tuple(dims))
    raw = doc["amplitudes"]
    if not isinstance(raw, list) or len(raw) != shape.total_dimension:
        raise InputError(
            f"state file {path}: expected {shape.total_dimension} amplitude pairs, "
            f"got {len(raw) if isinstance(raw, list) else type(raw).__name__}"
        )
    amps = np.empty(shape.total_dimension, dtype=np.complex128)
    for k, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise InputError(
                f"state file {path}: amplitude {k} must be a [re, im] pair of numbers"
            )
        try:
            amps[k] = complex(pair[0], pair[1])
        except OverflowError as exc:
            raise InputError(f"state file {path}: amplitude {k} is out of range") from exc
    norm = _norm(amps)
    if not (abs(norm - 1.0) <= STATE_FILE_NORM_ATOL):
        raise InputError(
            f"state file {path}: amplitude norm {norm!r} is not 1 within {STATE_FILE_NORM_ATOL}"
        )
    return PureState(shape, amps / norm)
