"""Hermitian spectra, singular values, and entropies.

The decompositions delegate to LAPACK (via numpy.linalg), which easily
meets the backward-error contracts at the matrix sizes this package deals
with; the wrappers pin down ordering and validation, and
:func:`bnineq.tensor._lapack` maps a LAPACK failure to
:class:`NumericalError`.

Every entropy of a pure vector that the package reports goes through one
kernel, :func:`entanglement_entropy`: the vector is reshaped to a matrix
M, the spectrum of the smaller reduced density matrix M M^H is taken,
then the clipped Shannon sum.  When the shorter side has 2 rows (a qubit
cut) the spectrum is the closed form p± = (a + c)/2 ± hypot(a − c, 2|b|)/2
of the 2×2 matrix [[a, b*], [b, c]]; every other shape goes to batched
``eigvalsh``.  :func:`entanglement_entropy_grad` takes the ``eigh`` of
the same M M^H and reads both the gradient and the ascent's value,
-sum q ln q, off the weights q = |W^H M|^2 of its rows, so no entropy
needs the SVD.  Every entropy is in nats; only the command line converts
to bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import DensityMatrix, InputError, NumericalError, _descending, _hermitian, _lapack
from .tolerances import MATRIX_ATOL

__all__ = ["Spectrum", "hermitian_eigen", "von_neumann_entropy"]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real eigenvalues sorted in descending order."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _descending(self.values, "spectrum values"))


def hermitian_eigen(m) -> tuple[Spectrum, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(spectrum, vectors)`` with eigenvalues descending and the
    matching orthonormal eigenvectors as columns, so that
    ``m = vectors @ diag(spectrum.values) @ vectors.conj().T``.  Inputs
    whose anti-Hermitian part exceeds ``MATRIX_ATOL`` are rejected.
    """
    a = _hermitian(m, "matrix")
    w, v = _lapack("eigh", 0.5 * (a + a.conj().T))
    order = np.argsort(-w, kind="stable")
    return Spectrum(w[order]), v[:, order]


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition ``m = u @ diag(s) @ vh``, as
    ``numpy.linalg.svd(m, full_matrices=False)`` returns it.

    ``s`` is descending; ``u`` has orthonormal columns and ``vh``
    orthonormal rows.  Works for any (rectangular) complex matrix, and for
    a stack (..., m, n) of them, one decomposition per matrix.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise InputError(f"expected a matrix, got array of shape {a.shape}")
    return _lapack("svd", a, full_matrices=False)


def _shannon(p: np.ndarray) -> np.ndarray:
    """Clipped Shannon sum in nats over the last axis of ``p`` (see
    :func:`entropy_from_eigenvalues` for the clipping policy), clamped at
    0 so that roundoff on a pure spectrum never gives a negative entropy."""
    lowest = float(p.min()) if p.size else 0.0
    if not lowest >= -MATRIX_ATOL:
        raise NumericalError(
            f"eigenvalue {lowest:.3e} below -{MATRIX_ATOL}; refusing to clip it silently"
        )
    q = np.where(p > 0.0, p, 1.0)  # a clipped term enters as 1 ln 1 = 0
    return np.maximum(-(q * np.log(q)).sum(axis=-1), 0.0)


def entropy_from_eigenvalues(values) -> float:
    """Shannon entropy in nats of a probability vector given as raw eigenvalues.

    Applies the package clipping policy: values in ``[-MATRIX_ATOL, 0)``
    become 0, values below ``-MATRIX_ATOL`` raise :class:`NumericalError`
    because they signal an invalid matrix upstream.  The ``p = 0`` terms
    contribute zero, and the sum is clamped at 0.  NaN or inf raises
    :class:`InputError`.
    """
    p = np.asarray(values, dtype=np.float64).reshape(-1)
    if not np.isfinite(p).all():
        raise InputError("eigenvalues must be finite")
    return float(_shannon(p))


def entanglement_entropy(matrices) -> np.ndarray:
    """Entropy in nats of pure vectors across a row | column cut.

    ``matrices`` is a stack (..., m, n) of unit vectors, each reshaped so
    that its rows index one side of the cut.  Both marginals have the same
    nonzero spectrum, so the smaller one, ``M M^H`` over the shorter side,
    is the one taken.  When that side has 2 rows r0 and r1, its eigenvalues
    are p± = (a + c)/2 ± hypot(a − c, 2|b|)/2 with a = |r0|^2, c = |r1|^2
    and b = <r1, r0>, and no eigensolver runs; otherwise ``M M^H`` is
    formed as a plain array and its eigenvalues taken by ``eigvalsh``.
    Either way each p carries an absolute error of a few eps (a + c).
    Returns an array of shape ``matrices.shape[:-2]``.
    """
    m = np.asarray(matrices)
    if m.shape[-2] > m.shape[-1]:
        m = m.swapaxes(-1, -2)
    if m.shape[-2] == 2:
        norms = (m.real**2 + m.imag**2).sum(axis=-1)
        a, c = norms[..., 0], norms[..., 1]
        b = np.abs((m[..., 1, :] * m[..., 0, :].conj()).sum(axis=-1))
        mid, half = 0.5 * (a + c), 0.5 * np.hypot(a - c, 2.0 * b)
        p = np.empty((*mid.shape, 2))
        p[..., 0], p[..., 1] = mid + half, mid - half
        return _shannon(p)
    return _shannon(_lapack("eigvalsh", m @ m.conj().swapaxes(-1, -2)))


def entanglement_entropy_grad(matrices) -> tuple[np.ndarray, np.ndarray]:
    """:func:`entanglement_entropy` and its gradient ``G = -2 ln(M M^H) M``
    (= ``-2 U diag(s ln s^2) V^H``): ``dS = Re tr(G^H dM)`` for every dM
    that keeps M a unit vector.  Both come from the eigenvectors W of one
    ``eigh`` of ``M M^H``: the weights are the squared norms q of the rows
    r of ``W^H M``, so each row enters G as ``r ln |r|^2`` (0 at r = 0),
    while ln p of an eigenvalue p is wrong where p is tiny (eigh gives p to
    about eps).  The entropy is ``max(-sum q ln q, 0)`` over the same logs,
    with no second pass over the eigenvalues; q >= 0, so nothing needs
    clipping.  It agrees with :func:`entanglement_entropy` to about 1e-14.
    G matches the SVD formula to about 1e-13, or to about 3e-8 where a tiny
    weight sits beside a zero one, whose eigenvectors M M^H resolves only
    to eps / weight.  Returns the entropies and the stack of gradients."""
    m = np.asarray(matrices)
    tall = m.shape[-2] > m.shape[-1]
    m = m.swapaxes(-1, -2) if tall else m
    _, w = _lapack("eigh", m @ m.conj().swapaxes(-1, -2))
    rows = w.conj().swapaxes(-1, -2) @ m
    q = (rows * rows.conj()).real.sum(-1)
    log_q = np.log(np.where(q > 0.0, q, 1.0))
    g = w @ (-2.0 * log_q[..., None] * rows)
    return np.maximum(-(q * log_q).sum(-1), 0.0), g.swapaxes(-1, -2) if tall else g


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy -tr(rho ln rho) of a density matrix, in nats."""
    return entropy_from_eigenvalues(_lapack("eigvalsh", rho.entries))
