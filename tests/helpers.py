"""State and decomposition builders that only the tests use."""

import math
from dataclasses import replace

import numpy as np

from bnineq import FactorShape, PureState, SchmidtDecomposition, deformed_counterexample
from bnineq.tolerances import RESIDUAL_TOL


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


def block_gap(k: int) -> float:
    """The step g in sqrt(lambda) up to which ``degenerate_blocks`` chains
    k coefficients, computed as the package computes it."""
    return RESIDUAL_TOL / (2.0 * math.sqrt(k) * max(k - 1, 1))


def tilted_product_state(d: int, eps: float) -> PureState:
    """Amplitude matrix diag(sqrt(lambda)) across {1,2} | {3,4}, with lambda
    the tilted spectrum of ``deformed_counterexample(d, eps)``: a product
    basis whose coefficients are near-ties for small eps."""
    lam = deformed_counterexample(d, eps)[1].coefficients
    return PureState(FactorShape((d,) * 4), np.diag(np.sqrt(lam)))


def page_entropy(m: int, n: int) -> float:
    """Mean entanglement entropy of a Haar-random state on C^m (x) C^n, in
    either order (Page, PRL 71, 1291, 1993)."""
    m, n = sorted((m, n))
    return sum(1.0 / k for k in range(n + 1, m * n + 1)) - (m - 1) / (2 * n)


def page_variance(m: int, n: int) -> float:
    """Variance of that entropy, in either order (Vivo, Pato & Oshanin, PRE
    93, 052106, 2016; Wei, PRE 96, 022106, 2017), with the trigamma
    function psi_1(k) = pi^2/6 - sum_{j<k} 1/j^2 at integers k."""
    m, n = sorted((m, n))

    def trigamma(k):
        return math.pi**2 / 6 - sum(1.0 / j**2 for j in range(1, k))

    return (
        (m + n) / (m * n + 1) * trigamma(n)
        - trigamma(m * n + 1)
        - (m + 1) * (m + 2 * n + 1) / (4 * n * n * (m * n + 1))
    )


def shape_id(dims) -> str:
    """A test id for a shape: (2, 3, 2, 3) as "2x3x2x3"."""
    return "x".join(str(d) for d in dims)
