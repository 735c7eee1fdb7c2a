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
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import InputError, NumericalError
from .tolerances import MATRIX_ATOL, MAX_TOTAL_DIMENSION, NORM_ATOL, STATE_FILE_NORM_ATOL


@dataclass(frozen=True)
class FactorShape:
    """Ordered local dimensions (d_1, ..., d_n) of a tensor-product space."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            dims = tuple(int(d) for d in self.dims)
        except (TypeError, ValueError) as exc:
            raise InputError(f"factor dimensions must be integers, got {self.dims!r}") from exc
        object.__setattr__(self, "dims", dims)
        if len(dims) == 0:
            raise InputError("a shape needs at least one factor")
        if any(d < 1 for d in dims):
            raise InputError(f"factor dimensions must be >= 1, got {dims}")
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


def _check_positions(shape: FactorShape, positions, what: str) -> tuple[int, ...]:
    """Validate 1-based factor positions against a shape."""
    pos = tuple(int(p) for p in positions)
    for p in pos:
        if not 1 <= p <= shape.n_factors:
            raise InputError(
                f"{what} position {p} out of range for a {shape.n_factors}-factor state"
            )
    if len(set(pos)) != len(pos):
        raise InputError(f"{what} positions contain duplicates: {pos}")
    return pos


def _norm(amps: np.ndarray) -> float:
    """The 2-norm of a flat complex vector: the arithmetic of
    ``np.linalg.norm`` (``sqrt(re.re + im.im)``) without its per-call cost,
    so the two agree bit for bit."""
    re, im = amps.real, amps.imag
    return math.sqrt(re.dot(re) + im.dot(im))


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
            raise InputError("state vector has non-finite amplitudes")
        if abs(norm - 1.0) > NORM_ATOL:
            raise InputError(f"state vector norm {norm!r} deviates from 1 by more than {NORM_ATOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, shape: FactorShape, amplitudes) -> "PureState":
        """Build a state from an unnormalized amplitude vector."""
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        norm = _norm(amps)
        if norm == 0.0:
            raise InputError("cannot normalize the zero vector")
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
    p = tuple(int(x) for x in perm)
    if sorted(p) != list(range(1, psi.shape.n_factors + 1)):
        raise InputError(
            f"{p} is not a permutation of 1..{psi.shape.n_factors}"
        )
    axes = [x - 1 for x in p]
    grid = psi.grid().transpose(axes)
    new_shape = FactorShape(tuple(psi.shape.dims[a] for a in axes))
    return PureState(new_shape, grid.reshape(-1))


def _lapack(name: str, *args, **kwargs):
    """``numpy.linalg.<name>(*args, **kwargs)``, with a convergence failure
    raised as :class:`NumericalError`.  The function is looked up at call
    time, so a tracer or test that patches ``numpy.linalg`` intercepts it.
    It lives here so that :class:`DensityMatrix` and :mod:`bnineq.spectra`
    share it."""
    try:
        return getattr(np.linalg, name)(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        what = "SVD" if name == "svd" else "eigensolver"
        raise NumericalError(f"{what} failed to converge: {exc}") from exc


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix together with
    the factor shape of the space it lives on."""

    entries: np.ndarray
    origin_shape: FactorShape

    def __post_init__(self) -> None:
        m = np.array(self.entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"density matrix must be square, got array of shape {m.shape}")
        n = self.origin_shape.total_dimension
        if m.shape[0] != n:
            raise InputError(
                f"matrix dimension {m.shape[0]} does not match shape {self.origin_shape.dims}"
            )
        herm_dev = float(np.max(np.abs(m - m.conj().T))) if n else 0.0
        if not herm_dev <= MATRIX_ATOL:
            raise InputError(f"matrix deviates from Hermitian by {herm_dev:.3e}")
        trace_dev = abs(complex(np.trace(m)) - 1.0)
        if not trace_dev <= MATRIX_ATOL:
            raise InputError(f"trace deviates from 1 by {trace_dev:.3e}")
        lowest = float(np.min(_lapack("eigvalsh", m)))
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
    pos = _check_positions(psi.shape, keep, "keep")
    if len(pos) == 0:
        raise InputError("keep set must not be empty")
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
    pos = _check_positions(psi.shape, keep, "keep")
    if len(pos) == 0:
        raise InputError("keep set must not be empty")
    kept = sorted(p - 1 for p in pos)
    traced = [a for a in range(psi.shape.n_factors) if a not in kept]
    kept_dims = [psi.shape.dims[a] for a in kept]
    traced_dims = [psi.shape.dims[a] for a in traced]
    amps = psi.amplitudes
    n_keep = 1
    for d in kept_dims:
        n_keep *= d

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
    except (OSError, UnicodeDecodeError) as exc:
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
    norm = float(np.linalg.norm(amps))
    if not (abs(norm - 1.0) <= STATE_FILE_NORM_ATOL):
        raise InputError(
            f"state file {path}: amplitude norm {norm!r} is not 1 within {STATE_FILE_NORM_ATOL}"
        )
    return PureState(shape, amps / norm)
