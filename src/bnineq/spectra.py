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

#: Eigenvalues of a density matrix in [-CLIP_TOL, 0) are treated as
#: roundoff and clipped to zero; anything more negative is an error.
CLIP_TOL = 1e-12

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
    """Real eigenvalues sorted in descending order, plus the clip tolerance
    that applies when they are interpreted as a density-matrix spectrum."""

    values: np.ndarray
    tolerance: float = CLIP_TOL

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


def hermitian_eigen(m, tol: float = 1e-10) -> tuple[Spectrum, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(spectrum, vectors)`` with eigenvalues descending and the
    matching orthonormal eigenvectors as columns, so that
    ``m = vectors @ diag(spectrum.values) @ vectors.conj().T``.  Inputs
    whose anti-Hermitian part exceeds ``tol`` are rejected.
    """
    a = _as_square(m)
    herm_dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if herm_dev > tol:
        raise InputError(f"matrix deviates from Hermitian by {herm_dev:.3e} (tol {tol})")
    try:
        w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    return Spectrum(w[order], tol), v[:, order]


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


def _shannon(p: np.ndarray, log_base: str, clip_tol: float) -> np.ndarray:
    """Clipped Shannon sum over the last axis of ``p`` (see
    :func:`entropy_from_eigenvalues` for the clipping policy)."""
    scale = _log_scale(log_base)
    lowest = float(p.min()) if p.size else 0.0
    if lowest < -clip_tol:
        raise NumericalError(
            f"eigenvalue {lowest:.3e} below -{clip_tol}; refusing to clip it silently"
        )
    p = np.where(p > 0.0, p, 0.0)
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1) * scale + 0.0


def entropy_from_eigenvalues(values, log_base: str = "e", clip_tol: float = CLIP_TOL) -> float:
    """Shannon entropy of a probability vector given as raw eigenvalues.

    Applies the package clipping policy: values in ``[-clip_tol, 0)``
    become 0, values below ``-clip_tol`` raise :class:`NumericalError`
    because they signal an invalid matrix upstream.  The ``p = 0`` terms
    contribute zero.
    """
    p = np.asarray(values, dtype=np.float64).reshape(-1)
    return float(_shannon(p, log_base, clip_tol))


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
    return _shannon(s**2, log_base, CLIP_TOL)


def von_neumann_entropy(
    rho: DensityMatrix, log_base: str = "e", clip_tol: float = CLIP_TOL
) -> float:
    """Von Neumann entropy -tr(rho log rho) of a density matrix.

    ``log_base`` is "e" for nats (the package default) or "2" for bits.
    """
    try:
        w = np.linalg.eigvalsh(rho.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    return entropy_from_eigenvalues(w, log_base, clip_tol)
