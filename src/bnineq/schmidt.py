"""Schmidt decompositions across a bipartition of tensor factors, and the
unitary freedom they carry on degenerate coefficient blocks.

A decomposition of ``psi`` across a split (L | R) is a set of coefficients
lambda_a >= 0 summing to 1 together with orthonormal families of vectors on
the two sides such that ``psi = sum_a sqrt(lambda_a) l_a (x) r_a`` (after
restoring the original factor order).  When several coefficients coincide
the decomposition is not unique: the vectors of a degenerate block may be
mixed by any unitary, with the conjugate unitary applied on the other side.
``_haar_unitaries`` draws such unitaries, for ``maximize_rhs``'s restarts
and for :func:`bnineq.sampling.haar_unitary`, from generators that
``_rng``, the package's only caller of ``numpy.random.default_rng``, seeds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import spectra
from .tensor import FactorShape, InputError, PureState, _as_int, _descending, _lapack, _positions
from .tolerances import MATRIX_ATOL, RESIDUAL_TOL

__all__ = [
    "BipartiteSplit", "SchmidtDecomposition", "schmidt_decompose", "verify_decomposition",
    "degenerate_blocks",
]


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
        left, right = tuple(self.left), tuple(self.right)
        n = len(left) + len(right)
        left, right = _positions(left, n, "left"), _positions(right, n, "right")
        if set(left) & set(right):
            raise InputError(f"split sides {left} | {right} share a factor position")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

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
        lam = _descending(self.coefficients, "Schmidt coefficients")
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
            if not np.isfinite(cols).all():
                raise InputError(f"{side} vectors have non-finite entries")
            cols.setflags(write=False)
            object.__setattr__(self, side, cols)
        if (lam < 0.0).any():
            raise InputError(f"negative Schmidt coefficient: {float(lam.min())!r}")
        total = float(lam.sum())
        if abs(total - 1.0) > MATRIX_ATOL:
            raise InputError(f"Schmidt coefficients sum to {total!r}, expected 1")
        object.__setattr__(self, "coefficients", lam)

    @property
    def rank(self) -> int:
        return int(self.coefficients.size)


def _schmidt_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt forms of a stack (n, D_L, D_R) of state matrices: coefficients
    (n, k), left (n, D_L, k) and right (n, D_R, k) vectors, k = min(D_L, D_R).
    The left vectors are the columns of the SVD's ``u``; the right ones are
    the rows of its ``vh``, transposed, i.e. the conjugated right-singular
    vectors, so that ``m = left @ diag(sqrt(lambda)) @ right.T``.
    Coefficients past the numerical rank (see :func:`schmidt_decompose`)
    are 0; the kept ones exceed eps**2, so a count of nonzeros is the rank."""
    u, s, vh = spectra.svd(m)
    keep = s > s[..., :1] * max(m.shape[-2:]) * sys.float_info.epsilon
    return np.where(keep, s**2, 0.0), u, vh.swapaxes(-1, -2)


def _schmidt_arrays(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays of :func:`schmidt_decompose` of one state matrix, given as
    a stack (1, D_L, D_R): coefficients (k,), left (D_L, k) and right
    (D_R, k) vectors, cut at the numerical rank k."""
    lam, left, right = _schmidt_stack(m)
    k = int((lam[0] > 0.0).sum())
    return lam[0, :k], left[0, :, :k], right[0, :, :k]


def schmidt_decompose(psi: PureState, split: BipartiteSplit) -> SchmidtDecomposition:
    """Schmidt decomposition of ``psi`` across ``split`` via SVD.

    The squared singular values of the reshaped (D_L x D_R) state become
    the coefficients (descending).  The cut is at the numerical rank, as in
    ``numpy.linalg.matrix_rank``: a term is kept only if its singular value
    exceeds ``s_max * max(D_L, D_R) * eps``, so the dropped tail is
    roundoff, below every residual gate (see :mod:`bnineq.tolerances`).
    The left vectors are the columns of numpy's ``u``, and the right
    vectors are the rows of numpy's ``vh``, transposed: the conjugated
    right-singular vectors, which the reconstruction identity needs.
    """
    _check_split(psi.shape, split)
    m = _arranged(psi.amplitudes[None], psi.shape, split)
    return SchmidtDecomposition(split, *_schmidt_arrays(m), psi.shape)


def _family_violation(vectors: np.ndarray) -> np.ndarray:
    """Worst orthonormality defect of each family in a stack (n, D, k) of
    column vectors: the largest of |norm - 1| per column and |<v_i, v_j>|
    for i != j."""
    gram = vectors.conj().swapaxes(-1, -2) @ vectors
    norms = np.sqrt(np.abs(gram.diagonal(0, -2, -1).real))
    off = np.abs(gram)
    off.reshape(len(off), -1)[:, :: off.shape[-1] + 1] = 0.0  # each matrix's diagonal
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
    defect = np.maximum(_family_violation(left), _family_violation(right))
    return np.maximum(np.maximum(residual, defect), np.abs(lam.sum(axis=-1) - 1.0))


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
    """Group indices of descending, nonnegative coefficients into degenerate
    blocks.

    Consecutive coefficients of a list of k whose square roots differ by at
    most ``g = RESIDUAL_TOL / (2 sqrt(k) max(k - 1, 1))`` land in the same
    block, so a block may chain values further apart than g.  Any unitary
    that mixes vectors only inside the blocks then moves a decomposition by
    at most ``RESIDUAL_TOL / 2`` (proof in :mod:`bnineq.tolerances`): a
    decomposition built by that freedom passes :func:`bn_gap`'s gate.
    Example: (0.5, 0.5, 0.3, 0.2) gives blocks (0, 1), (2,), (3,).
    """
    lam = _descending(coefficients, "coefficients")
    if lam.size == 0 or lam[-1] < 0.0:
        raise InputError(f"negative coefficient {lam[-1]}" if lam.size else "empty coefficient list")
    gap = RESIDUAL_TOL / (2.0 * math.sqrt(lam.size) * max(lam.size - 1, 1))
    root = np.sqrt(lam)
    cuts = ((root[1:] - root[:-1]) < -gap).nonzero()[0] + 1
    edges = [0, *cuts.tolist(), lam.size]
    return tuple(tuple(range(a, b)) for a, b in zip(edges, edges[1:]))


def _rng(seed: int, *words: int) -> np.random.Generator:
    """The generator of the integer ``seed`` and the stream words ``words``:
    ``numpy.random.default_rng([seed mod 2^64, *words])``.  With no words it
    is ``default_rng(seed mod 2^64)``: the stream of ``[seed mod 2^64]``,
    built without the list."""
    return np.random.default_rng([seed % 2**64, *words] if words else seed % 2**64)


def _haar_unitaries(n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """The next ``count`` Haar unitaries (count, n, n) of the generator ``rng``,
    by one Ginibre draw (count, 2, n, n), one QR and one phase fix on the
    stack.  Consecutive calls continue one stream: a call for 5 equals a call
    for 2 followed by a call for 3."""
    n = _as_int(n, "unitary dimension", 1)
    x = rng.standard_normal((count, 2, n, n))
    z = (x[:, 0] + 1j * x[:, 1]) / np.sqrt(2.0)
    q, r = _lapack("qr", z)
    diag = r.diagonal(0, -2, -1).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))[:, None, :]
