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
from dataclasses import dataclass, replace

import numpy as np

from . import spectra
from .exceptions import InputError
from .tensor import FactorShape, PureState, permute_factors
from .tolerances import BLOCK_TOL, MATRIX_ATOL, MAXIMALLY_MIXED_ATOL


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


def _arranged_matrix(psi: PureState, split: BipartiteSplit) -> np.ndarray:
    """The state as a (left-dim x right-dim) matrix in split order."""
    arranged = permute_factors(psi, split.left + split.right)
    return arranged.amplitudes.reshape(math.prod(_side_dims(psi.shape, split.left)), -1)


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
    m = _arranged_matrix(psi, split)
    u, s, v = spectra.svd(m)
    rank = int(np.count_nonzero(s > s[0] * max(m.shape) * np.finfo(np.float64).eps))
    lam = s[:rank] ** 2
    return SchmidtDecomposition(split, lam, u[:, :rank], np.conj(v[:, :rank]), psi.shape)


def _family_violation(vectors_matrix: np.ndarray) -> float:
    """Worst orthonormality defect of a family of column vectors: the
    largest of |norm - 1| per column and |<v_i, v_j>| for i != j."""
    gram = vectors_matrix.conj().T @ vectors_matrix
    norms = np.sqrt(np.abs(np.diag(gram).real))
    worst = float(np.max(np.abs(norms - 1.0)))
    off = gram - np.diag(np.diag(gram))
    if off.size:
        worst = max(worst, float(np.max(np.abs(off))))
    return worst


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
    rec = (dec.left * np.sqrt(dec.coefficients)) @ dec.right.T
    target = _arranged_matrix(psi, dec.split)
    residual = float(np.linalg.norm(target - rec))
    worst = max(residual, _family_violation(dec.left), _family_violation(dec.right))
    worst = max(worst, abs(float(dec.coefficients.sum()) - 1.0))
    return worst


def degenerate_blocks(coefficients) -> tuple[tuple[int, ...], ...]:
    """Group indices of descending coefficients into degenerate blocks.

    Consecutive coefficients whose gap is at most
    ``BLOCK_TOL * max(1, lambda_max)`` land in the same block.  Example:
    (0.5, 0.5, 0.3, 0.2) gives blocks (0, 1), (2,), (3,).
    """
    lam = np.asarray(coefficients, dtype=np.float64).reshape(-1)
    if lam.size == 0:
        raise InputError("empty coefficient list")
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


def rotate_block(dec: SchmidtDecomposition, block, u) -> SchmidtDecomposition:
    """Apply the unitary freedom of one degenerate block.

    ``block`` must be exactly one of ``degenerate_blocks(dec.coefficients)``
    and ``u`` a unitary of matching size.  Left vectors transform as
    ``l_a -> sum_b u[b, a] l_b`` and right vectors with the conjugate
    matrix, which leaves the reconstructed state unchanged.
    """
    idx = tuple(int(a) for a in block)
    blocks = degenerate_blocks(dec.coefficients)
    if idx not in blocks:
        raise InputError(f"{idx} is not a degenerate block of the coefficients (blocks: {blocks})")
    mat = np.asarray(u, dtype=np.complex128)
    k = len(idx)
    if mat.shape != (k, k):
        raise InputError(f"rotation must be {k}x{k} for block {idx}, got {mat.shape}")
    unit_dev = float(np.max(np.abs(mat.conj().T @ mat - np.eye(k))))
    if unit_dev > MATRIX_ATOL:
        raise InputError(f"rotation deviates from unitary by {unit_dev:.3e}")
    cols = list(idx)
    new_l = dec.left.copy()
    new_r = dec.right.copy()
    new_l[:, cols] = dec.left[:, cols] @ mat
    new_r[:, cols] = dec.right[:, cols] @ np.conj(mat)
    return replace(dec, left=new_l, right=new_r)


def decomposition_from_basis(
    psi: PureState, split: BipartiteSplit, basis
) -> SchmidtDecomposition:
    """Schmidt form with a chosen orthonormal basis as the left vectors.

    Only applies when the left marginal of ``psi`` is maximally mixed
    (entrywise within ``MAXIMALLY_MIXED_ATOL`` of I/D): then every
    orthonormal basis of the left space serves as a family of Schmidt
    vectors, all coefficients are 1/D, and each right vector is the
    contraction of ``psi`` against the corresponding basis vector,
    rescaled by sqrt(D).

    Parameters
    ----------
    psi : PureState
    split : BipartiteSplit
    basis : sequence of PureState
        Complete orthonormal basis of the left subspace (D vectors).
    """
    _check_split(psi.shape, split)
    left_dims = _side_dims(psi.shape, split.left)
    d_left = math.prod(left_dims)
    vectors = tuple(basis)
    if len(vectors) != d_left:
        raise InputError(f"basis has {len(vectors)} vectors, expected {d_left}")
    if any(v.shape.dims != left_dims for v in vectors):
        raise InputError("basis vectors do not live on the left factors of the split")
    bmat = np.column_stack([v.amplitudes for v in vectors])
    ortho_dev = float(np.max(np.abs(bmat.conj().T @ bmat - np.eye(d_left))))
    if ortho_dev > MATRIX_ATOL:
        raise InputError(f"basis deviates from orthonormal by {ortho_dev:.3e}")
    m = _arranged_matrix(psi, split)
    mixed_dev = float(np.max(np.abs(m @ m.conj().T - np.eye(d_left) / d_left)))
    if mixed_dev > MAXIMALLY_MIXED_ATOL:
        raise InputError(
            f"left marginal deviates from maximally mixed by {mixed_dev:.3e}; "
            "an arbitrary basis is not a Schmidt family for this state"
        )
    contractions = (bmat.conj().T @ m).T
    rights = contractions / np.linalg.norm(contractions, axis=0)
    lam = np.full(d_left, 1.0 / d_left)
    return SchmidtDecomposition(split, lam, bmat, rights, psi.shape)
