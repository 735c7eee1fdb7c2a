import numpy as np
import pytest

from bnineq import (
    DensityMatrix,
    FactorShape,
    InputError,
    NumericalError,
    PureState,
    Spectrum,
    entropy_from_eigenvalues,
    hermitian_eigen,
    partial_trace,
    svd,
    von_neumann_entropy,
)

# Frozen by direct evaluation of -sum(p ln p) for p = (3/4, 1/4).
ENTROPY_3Q = 0.5623351446188083


def random_hermitian(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z + z.conj().T


def random_density(n, rng):
    """Reduced state of a random bipartite pure vector: generic full rank."""
    psi = PureState.normalized(
        FactorShape((n, n)), rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
    )
    return partial_trace(psi, (1,))


# ------------------------------------------------------------ hermitian_eigen


def test_hermitian_eigen_diagonal_example():
    spectrum, vectors = hermitian_eigen(np.diag([1.0, 3.0, 2.0]))
    assert np.allclose(spectrum.values, [3.0, 2.0, 1.0])
    # eigenvector for value 3 is e_1 up to phase
    assert abs(abs(vectors[1, 0]) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
def test_hermitian_eigen_reconstructs(n):
    rng = np.random.default_rng(100 + n)
    m = random_hermitian(n, rng)
    spectrum, v = hermitian_eigen(m)
    scale = np.linalg.norm(m)
    assert np.linalg.norm(m - v @ np.diag(spectrum.values) @ v.conj().T) <= 1e-10 * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-10
    assert np.all(np.diff(spectrum.values) <= 0)


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(InputError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectrum_requires_descending_values():
    with pytest.raises(InputError):
        Spectrum(np.array([0.1, 0.9]))


# ----------------------------------------------------------------------- svd


def test_svd_identity():
    u, s, v = svd(np.eye(2))
    assert np.allclose(s, [1.0, 1.0])


def test_svd_rank_one():
    a = np.array([[1.0], [2.0]]) @ np.array([[2.0, 0.0]])
    u, s, v = svd(a)
    assert np.allclose(s, [2.0 * np.sqrt(5.0), 0.0], atol=1e-14)


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3, 5), (6, 2)])
def test_svd_reconstructs(shape):
    rng = np.random.default_rng(sum(shape))
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    u, s, v = svd(m)
    scale = np.linalg.norm(m)
    assert np.linalg.norm(m - u @ np.diag(s) @ v.conj().T) <= 1e-10 * scale
    assert np.all(np.diff(s) <= 0)
    k = min(shape)
    assert np.max(np.abs(u.conj().T @ u - np.eye(k))) < 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(k))) < 1e-10


def test_svd_rejects_non_matrix():
    with pytest.raises(InputError):
        svd(np.zeros(4))


# ------------------------------------------------------------------- entropy


def one_factor_density(diag):
    return DensityMatrix(np.diag(diag).astype(complex), FactorShape((len(diag),)))


def test_entropy_of_pure_state_is_zero():
    rho = one_factor_density([1.0, 0.0])
    assert von_neumann_entropy(rho) == 0.0


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_entropy_of_maximally_mixed(d):
    rho = one_factor_density([1.0 / d] * d)
    assert abs(von_neumann_entropy(rho) - np.log(d)) < 1e-12


def test_entropy_frozen_value():
    rho = one_factor_density([0.75, 0.25])
    assert abs(von_neumann_entropy(rho) - ENTROPY_3Q) < 1e-12
    # and computed the slow way, as a cross-check of the frozen constant
    direct = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
    assert abs(direct - ENTROPY_3Q) < 1e-15


def test_entropy_clipping_policy():
    # a slightly negative eigenvalue inside the clip window contributes zero
    # (the eigenvalue just above 1 still contributes its own tiny term)
    rho = one_factor_density([1.0 + 5e-13, -5e-13])
    assert abs(von_neumann_entropy(rho)) < 1e-12
    # below the window the spectrum is treated as corrupt, and no density
    # matrix with such an eigenvalue can be built in the first place
    with pytest.raises(NumericalError):
        entropy_from_eigenvalues([1.0 + 1e-9, -1e-9])
    with pytest.raises(InputError):
        one_factor_density([1.0 + 1e-9, -1e-9])


def test_every_density_matrix_has_an_entropy():
    # DensityMatrix and the entropy code share one roundoff window, so a
    # matrix that constructs cleanly never fails in von_neumann_entropy
    rho = one_factor_density([0.5 + 5e-11, 0.5, -5e-11])
    assert von_neumann_entropy(rho) == pytest.approx(np.log(2.0), abs=1e-9)


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(55)
    for _ in range(20):
        rho = random_density(3, rng)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        rotated = DensityMatrix(q @ rho.entries @ q.conj().T, rho.origin_shape)
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-10


def test_entropy_range():
    rng = np.random.default_rng(56)
    for _ in range(20):
        rho = random_density(4, rng)
        s = von_neumann_entropy(rho)
        assert -1e-12 <= s <= np.log(4) + 1e-10


def test_entropy_additivity_on_products():
    rng = np.random.default_rng(57)
    for _ in range(10):
        rho = random_density(2, rng)
        sigma = random_density(3, rng)
        product = DensityMatrix(np.kron(rho.entries, sigma.entries), FactorShape((2, 3)))
        lhs = von_neumann_entropy(product)
        rhs = von_neumann_entropy(rho) + von_neumann_entropy(sigma)
        assert abs(lhs - rhs) < 1e-9


def test_schmidt_symmetry_of_marginal_entropies():
    # For a bipartite pure state both marginals have the same spectrum.
    rng = np.random.default_rng(58)
    for dims in [(2, 2), (2, 5), (3, 4)]:
        shape = FactorShape(dims)
        n = shape.total_dimension
        psi = PureState.normalized(shape, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        s1 = von_neumann_entropy(partial_trace(psi, (1,)))
        s2 = von_neumann_entropy(partial_trace(psi, (2,)))
        assert abs(s1 - s2) < 1e-10


def test_singular_values_squared_match_marginal_eigenvalues():
    rng = np.random.default_rng(59)
    for dims in [(2, 2), (3, 2), (4, 5)]:
        shape = FactorShape(dims)
        n = shape.total_dimension
        psi = PureState.normalized(shape, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        _, s, _ = svd(psi.amplitudes.reshape(dims))
        spectrum, _ = hermitian_eigen(partial_trace(psi, (1,)).entries)
        padded = np.zeros(dims[0])
        padded[: s.size] = s**2
        assert np.max(np.abs(padded - spectrum.values)) < 1e-10


# ------------------------------------------------------------ density checks


def test_density_matrix_validation():
    shape = FactorShape((2,))
    with pytest.raises(InputError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]), shape)  # not Hermitian
    with pytest.raises(InputError):
        DensityMatrix(np.eye(2), shape)  # trace 2
    with pytest.raises(InputError):
        DensityMatrix(np.diag([1.5, -0.5]), shape)  # negative eigenvalue
    with pytest.raises(InputError):
        DensityMatrix(np.eye(3) / 3, shape)  # dimension mismatch
