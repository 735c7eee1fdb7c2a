"""State and decomposition builders that only the tests use."""

from dataclasses import replace

import numpy as np

from bnineq import FactorShape, PureState, SchmidtDecomposition


def basis_state(shape: FactorShape, multi_index) -> PureState:
    """The computational basis vector |i_1, ..., i_n>."""
    amps = np.zeros(shape.total_dimension, dtype=np.complex128)
    amps[np.ravel_multi_index(multi_index, shape.dims)] = 1.0
    return PureState(shape, amps)


def kron_state(a: PureState, b: PureState) -> PureState:
    """Tensor product; the factors of ``a`` precede (are more significant
    than) the factors of ``b``."""
    shape = FactorShape(a.shape.dims + b.shape.dims)
    return PureState(shape, np.kron(a.amplitudes, b.amplitudes))


def apply_freedom(dec: SchmidtDecomposition, w) -> SchmidtDecomposition:
    """The Schmidt freedom L -> L W, R -> R conj(W) applied to ``dec``.

    It leaves the state unchanged when W is unitary and mixes only equal
    coefficients, as ``maximize_rhs`` applies it."""
    return replace(dec, left=dec.left @ w, right=dec.right @ np.conj(w))
