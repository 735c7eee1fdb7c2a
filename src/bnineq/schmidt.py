"""Schmidt decompositions across a bipartition of tensor factors, and the
unitary freedom they carry on degenerate coefficient blocks.

A decomposition of ``psi`` across a split (L | R) is a set of coefficients
lambda_a >= 0 summing to 1 together with orthonormal families of vectors on
the two sides such that ``psi = sum_a sqrt(lambda_a) l_a (x) r_a`` (after
restoring the original factor order).  When several coefficients coincide
the decomposition is not unique: the vectors of a degenerate block may be
mixed by any unitary, with the conjugate unitary applied on the other side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectra
from .exceptions import InputError
from .tensor import FactorShape, PureState
from .tolerances import BLOCK_TOL, MATRIX_ATOL


@dataclass(frozen=True)
class BipartiteSplit:
    """Ordered, disjoint factor groups covering all factors of a state.

    Positions are 1-based.  ``left + right`` must be a permutation of
    ``1..n``; the stated order inside each group fixes how the grouped
    subspace is indexed.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        left = tuple(int(p) for p in self.left)
        right = tuple(int(p) for p in self.right)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if not left or not right:
            raise InputError("both sides of a split must be nonempty")
        n = len(left) + len(right)
        if sorted(left + right) != list(range(1, n + 1)):
            raise InputError(
                f"split sides {left} | {right} must partition factor positions 1..{n}"
            )

    @property
    def n_factors(self) -> int:
        return len(self.left) + len(self.right)


def _side_dims(shape: FactorShape, positions: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(shape.dims[p - 1] for p in positions)


def _check_split(shape: FactorShape, split: BipartiteSplit) -> None:
    if split.n_factors != shape.n_factors:
        raise InputError(
            f"split over {split.n_factors} factors does not match a "
            f"{shape.n_factors}-factor state"
        )


def _arranged(amps: np.ndarray, shape: FactorShape, split: BipartiteSplit) -> np.ndarray:
    """A stack (n, D) of amplitude vectors of ``shape`` as (n, D_L, D_R)
    matrices, the factors of each side taken in split order."""
    grids = amps.reshape(-1, *shape.dims).transpose([0, *split.left, *split.right])
    return grids.reshape(len(amps), math.prod(_side_dims(shape, split.left)), -1)


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Coefficients and Schmidt vectors of a state of ``shape``, as arrays.

    Column a of ``left`` (D_L x rank) is l_a on the factors ``split.left``
    and column a of ``right`` (D_R x rank) is r_a on ``split.right``, each
    in the row-major order of its side's factors taken in split order.

    The constructor checks structure only (finite entries, matching array
    shapes, coefficients nonnegative, descending, summing to 1).
    Orthonormality of the columns and agreement with a source state are
    the business of :func:`verify_decomposition`, which deliberately
    accepts defective hand-built instances so it can report how bad they
    are.
    """

    split: BipartiteSplit
    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray
    shape: FactorShape

    def __post_init__(self) -> None:
        lam = np.array(self.coefficients, dtype=np.float64).reshape(-1)
        _check_split(self.shape, self.split)
        k = lam.size
        if k == 0:
            raise InputError("a decomposition needs at least one term")
        for side in ("left", "right"):
            cols = np.array(getattr(self, side), dtype=np.complex128)
            rows = math.prod(_side_dims(self.shape, getattr(self.split, side)))
            if cols.shape != (rows, k):
                raise InputError(
                    f"{side} vectors have array shape {cols.shape}, expected {(rows, k)} "
                    f"for {k} coefficients"
                )
            if not np.all(np.isfinite(cols)):
                raise InputError(f"{side} vectors have non-finite entries")
            cols.setflags(write=False)
            object.__setattr__(self, side, cols)
        if not np.all(np.isfinite(lam)):
            raise InputError("Schmidt coefficients must be finite")
        if np.any(lam < 0.0):
            raise InputError(f"negative Schmidt coefficient: {float(lam.min())!r}")
        if np.any(np.diff(lam) > 0.0):
            raise InputError("Schmidt coefficients must be sorted in descending order")
        total = float(lam.sum())
        if abs(total - 1.0) > MATRIX_ATOL:
            raise InputError(f"Schmidt coefficients sum to {total!r}, expected 1")
        lam.setflags(write=False)
        object.__setattr__(self, "coefficients", lam)

    @property
    def rank(self) -> int:
        return int(self.coefficients.size)


def _schmidt_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt forms of a stack (n, D_L, D_R) of state matrices: coefficients
    (n, k), left (n, D_L, k) and right (n, D_R, k) vectors, k = min(D_L, D_R).
    Coefficients past the numerical rank (see :func:`schmidt_decompose`)
    are 0; the kept ones exceed eps**2, so a count of nonzeros is the rank."""
    u, s, v = spectra.svd(m)
    keep = s > s[..., :1] * max(m.shape[-2:]) * np.finfo(np.float64).eps
    return np.where(keep, s**2, 0.0), u, np.conj(v)


def schmidt_decompose(psi: PureState, split: BipartiteSplit) -> SchmidtDecomposition:
    """Schmidt decomposition of ``psi`` across ``split`` via SVD.

    The squared singular values of the reshaped (D_L x D_R) state become
    the coefficients (descending).  The cut is at the numerical rank, as in
    ``numpy.linalg.matrix_rank``: a term is kept only if its singular value
    exceeds ``s_max * max(D_L, D_R) * eps``, so the dropped tail is
    roundoff, below every residual gate (see :mod:`bnineq.tolerances`).
    Right vectors absorb the conjugation needed for the reconstruction
    identity, i.e. they are the conjugated right-singular vectors.
    """
    _check_split(psi.shape, split)
    lam, left, right = _schmidt_stack(_arranged(psi.amplitudes[None], psi.shape, split))
    k = int(np.count_nonzero(lam[0]))
    return SchmidtDecomposition(split, lam[0, :k], left[0, :, :k], right[0, :, :k], psi.shape)


def _family_violation(vectors: np.ndarray) -> np.ndarray:
    """Worst orthonormality defect of each family in a stack (n, D, k) of
    column vectors: the largest of |norm - 1| per column and |<v_i, v_j>|
    for i != j."""
    gram = vectors.conj().swapaxes(-1, -2) @ vectors
    norms = np.sqrt(np.abs(np.diagonal(gram, axis1=-2, axis2=-1).real))
    off = np.where(np.eye(gram.shape[-1], dtype=bool), 0.0, np.abs(gram))
    return np.maximum(np.abs(norms - 1.0).max(axis=-1), off.max(axis=(-2, -1)))


def _verify_stack(target, lam, left, right) -> np.ndarray:
    """:func:`verify_decomposition` scores of a stack of decompositions:
    state matrices (n, D_L, D_R), coefficients (n, k), vectors (n, D_L, k)
    and (n, D_R, k)."""
    rec = (left * np.sqrt(lam)[:, None, :]) @ right.swapaxes(-1, -2)
    diff = (target - rec).reshape(len(target), 1, -1)
    # Row-wise dot products through matmul sum as numpy.linalg.norm does.
    re, im = diff.real, diff.imag
    residual = np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0, 0])
    defects = (_family_violation(left), _family_violation(right), np.abs(lam.sum(axis=-1) - 1.0))
    return np.max([residual, *defects], axis=0)


def verify_decomposition(psi: PureState, dec: SchmidtDecomposition) -> float:
    """Worst violation of the Schmidt-form contract for ``psi``.

    Computes the Euclidean norm of (psi - reconstruction), the
    orthonormality defects of both vector families, and the deviation of
    the coefficient sum from 1, and returns the largest of these.  A sound
    decomposition scores around machine epsilon; use this as the validity
    gate for hand-built decompositions.
    """
    if dec.shape.dims != psi.shape.dims:
        raise InputError(
            f"decomposition of a state with dims {dec.shape.dims} does not match "
            f"a state with dims {psi.shape.dims}"
        )
    target = _arranged(psi.amplitudes[None], psi.shape, dec.split)
    return float(_verify_stack(target, dec.coefficients[None], dec.left[None], dec.right[None])[0])


def degenerate_blocks(coefficients) -> tuple[tuple[int, ...], ...]:
    """Group indices of descending coefficients into degenerate blocks.

    Consecutive coefficients whose gap is at most
    ``BLOCK_TOL * max(1, lambda_max)`` land in the same block.  Example:
    (0.5, 0.5, 0.3, 0.2) gives blocks (0, 1), (2,), (3,).
    """
    lam = np.asarray(coefficients, dtype=np.float64).reshape(-1)
    if lam.size == 0:
        raise InputError("empty coefficient list")
    if not np.all(np.isfinite(lam)):
        raise InputError("coefficients must be finite")
    if np.any(np.diff(lam) > 0.0):
        raise InputError("coefficients must be sorted in descending order")
    threshold = BLOCK_TOL * max(1.0, float(lam[0]))
    blocks: list[tuple[int, ...]] = []
    current = [0]
    for a in range(1, lam.size):
        if lam[a - 1] - lam[a] <= threshold:
            current.append(a)
        else:
            blocks.append(tuple(current))
            current = [a]
    blocks.append(tuple(current))
    return tuple(blocks)

