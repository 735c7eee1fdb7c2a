"""Hermitian spectra, singular values, and entropies.

The decompositions delegate to LAPACK (via numpy.linalg), which easily
meets the backward-error contracts at the matrix sizes this package deals
with; the wrappers pin down ordering, validation, and error mapping.

Every entropy of a pure vector goes through one kernel,
:func:`entanglement_entropy`: the vector is reshaped to a matrix M, the
spectrum of the smaller reduced density matrix M M^H is taken by
``eigvalsh``, then the clipped Shannon sum.  Every entropy is in nats;
only the command line converts to bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InputError, NumericalError
from .tensor import DensityMatrix, _lapack
from .tolerances import MATRIX_ATOL


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real eigenvalues sorted in descending order."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(vals)):
            raise InputError("spectrum values must be finite")
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
    if not herm_dev <= MATRIX_ATOL:
        raise InputError(f"matrix deviates from Hermitian by {herm_dev:.3e} (tol {MATRIX_ATOL})")
    w, v = _lapack("eigh", 0.5 * (a + a.conj().T))
    order = np.argsort(-w, kind="stable")
    return Spectrum(w[order]), v[:, order]


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``m = u @ diag(s) @ v.conj().T``.

    ``s`` is descending; ``u`` and ``v`` have orthonormal columns.  Works
    for any (rectangular) complex matrix, and for a stack (..., m, n) of
    them, one decomposition per matrix.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise InputError(f"expected a matrix, got array of shape {a.shape}")
    u, s, vh = _lapack("svd", a, full_matrices=False)
    return u, s, vh.conj().swapaxes(-1, -2)


def _shannon(p: np.ndarray) -> np.ndarray:
    """Clipped Shannon sum in nats over the last axis of ``p`` (see
    :func:`entropy_from_eigenvalues` for the clipping policy), clamped at
    0 so that roundoff on a pure spectrum never gives a negative entropy."""
    lowest = float(p.min()) if p.size else 0.0
    if not lowest >= -MATRIX_ATOL:
        raise NumericalError(
            f"eigenvalue {lowest:.3e} below -{MATRIX_ATOL}; refusing to clip it silently"
        )
    p = np.where(p > 0.0, p, 0.0)
    return np.maximum(-(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1), 0.0)


def entropy_from_eigenvalues(values) -> float:
    """Shannon entropy in nats of a probability vector given as raw eigenvalues.

    Applies the package clipping policy: values in ``[-MATRIX_ATOL, 0)``
    become 0, values below ``-MATRIX_ATOL`` raise :class:`NumericalError`
    because they signal an invalid matrix upstream.  The ``p = 0`` terms
    contribute zero, and the sum is clamped at 0.  NaN or inf raises
    :class:`InputError`.
    """
    p = np.asarray(values, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(p)):
        raise InputError("eigenvalues must be finite")
    return float(_shannon(p))


def entanglement_entropy(matrices) -> np.ndarray:
    """Entropy in nats of pure vectors across a row | column cut.

    ``matrices`` is a stack (..., m, n) of unit vectors, each reshaped so
    that its rows index one side of the cut.  Both marginals have the same
    nonzero spectrum, so the smaller one, ``M M^H`` over the shorter side,
    is formed as a plain array and its eigenvalues taken by ``eigvalsh``;
    they carry an absolute error of about machine epsilon.  Returns an
    array of shape ``matrices.shape[:-2]``.
    """
    m = np.asarray(matrices)
    if m.shape[-2] > m.shape[-1]:
        m = m.swapaxes(-1, -2)
    return _shannon(_lapack("eigvalsh", m @ m.conj().swapaxes(-1, -2)))


def entanglement_entropy_grad(matrices) -> tuple[np.ndarray, np.ndarray]:
    """:func:`entanglement_entropy` together with its gradient.

    For each ``M = U diag(s) V^H`` in the stack the gradient is
    ``G = -2 U diag(s ln s^2) V^H``, so that ``dS = Re tr(G^H dM)`` for
    every variation that keeps M a unit vector: the ``-2 M`` part of the
    full derivative is orthogonal to such dM and is left out.  Returns the
    entropies (shape ``matrices.shape[:-2]``) and the stack of gradients.
    """
    u, s, vh = _lapack("svd", matrices, full_matrices=False)
    p = s**2
    weights = -2.0 * s * np.log(np.where(p > 0.0, p, 1.0))
    return _shannon(p), (u * weights[..., None, :]) @ vh


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy -tr(rho ln rho) of a density matrix, in nats."""
    return entropy_from_eigenvalues(_lapack("eigvalsh", rho.entries))
