"""Hermitian spectra, singular values, and entropies.

The decompositions delegate to LAPACK (via numpy.linalg), which easily
meets the backward-error contracts at the matrix sizes this package deals
with; the wrappers pin down ordering, validation, and error mapping.

Every entropy of a pure vector goes through one kernel,
:func:`entanglement_entropy`: the squared singular values of the vector
reshaped to a matrix, then the clipped Shannon sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InputError, NumericalError
from .tensor import DensityMatrix
from .tolerances import CLIP_TOL, MATRIX_ATOL

LOG_BASES = ("e", "2")

_LN2 = float(np.log(2.0))


def _log_scale(log_base: str) -> float:
    if log_base == "e":
        return 1.0
    if log_base == "2":
        return 1.0 / _LN2
    raise InputError(f"log_base must be one of {LOG_BASES}, got {log_base!r}")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real eigenvalues sorted in descending order."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64).reshape(-1)
        if vals.size and np.any(np.diff(vals) > 0):
            raise InputError("spectrum values must be sorted in descending order")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got array of shape {a.shape}")
    return a


def hermitian_eigen(m) -> tuple[Spectrum, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(spectrum, vectors)`` with eigenvalues descending and the
    matching orthonormal eigenvectors as columns, so that
    ``m = vectors @ diag(spectrum.values) @ vectors.conj().T``.  Inputs
    whose anti-Hermitian part exceeds ``MATRIX_ATOL`` are rejected.
    """
    a = _as_square(m)
    herm_dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if herm_dev > MATRIX_ATOL:
        raise InputError(f"matrix deviates from Hermitian by {herm_dev:.3e} (tol {MATRIX_ATOL})")
    try:
        w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    return Spectrum(w[order]), v[:, order]


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``m = u @ diag(s) @ v.conj().T``.

    ``s`` is descending; ``u`` and ``v`` have orthonormal columns.  Works
    for any (rectangular) complex matrix.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise InputError(f"expected a matrix, got array of shape {a.shape}")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc
    return u, s, vh.conj().T


def _shannon(p: np.ndarray, log_base: str) -> np.ndarray:
    """Clipped Shannon sum over the last axis of ``p`` (see
    :func:`entropy_from_eigenvalues` for the clipping policy)."""
    scale = _log_scale(log_base)
    lowest = float(p.min()) if p.size else 0.0
    if lowest < -CLIP_TOL:
        raise NumericalError(
            f"eigenvalue {lowest:.3e} below -{CLIP_TOL}; refusing to clip it silently"
        )
    p = np.where(p > 0.0, p, 0.0)
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1) * scale + 0.0


def entropy_from_eigenvalues(values, log_base: str = "e") -> float:
    """Shannon entropy of a probability vector given as raw eigenvalues.

    Applies the package clipping policy: values in ``[-CLIP_TOL, 0)``
    become 0, values below ``-CLIP_TOL`` raise :class:`NumericalError`
    because they signal an invalid matrix upstream.  The ``p = 0`` terms
    contribute zero.
    """
    p = np.asarray(values, dtype=np.float64).reshape(-1)
    return float(_shannon(p, log_base))


def entanglement_entropy(matrices, log_base: str = "e") -> np.ndarray:
    """Entropy of pure vectors across a row | column cut.

    ``matrices`` is a stack (..., m, n) of unit vectors, each reshaped so
    that its rows index one side of the cut.  The squared singular values
    are the spectrum of either marginal, so no density matrix is formed.
    Returns an array of shape ``matrices.shape[:-2]``.
    """
    try:
        s = np.linalg.svd(matrices, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc
    return _shannon(s**2, log_base)


def entanglement_entropy_grad(matrices) -> tuple[np.ndarray, np.ndarray]:
    """:func:`entanglement_entropy` in nats together with its gradient.

    For each ``M = U diag(s) V^H`` in the stack the gradient is
    ``G = -2 U diag(s ln s^2) V^H``, so that ``dS = Re tr(G^H dM)`` for
    every variation that keeps M a unit vector: the ``-2 M`` part of the
    full derivative is orthogonal to such dM and is left out.  Returns the
    entropies (shape ``matrices.shape[:-2]``) and the stack of gradients.
    """
    try:
        u, s, vh = np.linalg.svd(matrices, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc
    p = s**2
    weights = -2.0 * s * np.log(np.where(p > 0.0, p, 1.0))
    return _shannon(p, "e"), (u * weights[..., None, :]) @ vh


def von_neumann_entropy(rho: DensityMatrix, log_base: str = "e") -> float:
    """Von Neumann entropy -tr(rho log rho) of a density matrix.

    ``log_base`` is "e" for nats (the package default) or "2" for bits.
    """
    try:
        w = np.linalg.eigvalsh(rho.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    return entropy_from_eigenvalues(w, log_base)
