import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnineq import (
    DensityMatrix,
    FactorShape,
    InputError,
    NumericalError,
    PureState,
    Spectrum,
    canonical_counterexample,
    degenerate_blocks,
    haar_unitary,
    hermitian_eigen,
    partial_trace,
    von_neumann_entropy,
)
from bnineq.spectra import (
    entanglement_entropy,
    entanglement_entropy_grad,
    entropy_from_eigenvalues,
    svd,
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
    # an eigenvalue one ulp above 1 would give a negative sum; it is clamped
    assert entropy_from_eigenvalues([1.0 + 2**-52]) == 0.0
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
        assert 0.0 <= s <= np.log(4) + 1e-10


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


# ---------------------------------------------------- entanglement entropy


def spectrum_of(second, r):
    """A probability vector of length ``r``: flat when ``second`` is None,
    else one leading weight and one ``second`` weight (0 for a product)."""
    if second is None:
        return np.full(r, 1.0 / r)
    p = np.zeros(r)
    p[0] = 1.0
    if r > 1:
        p[:2] = 1.0 - second, second
    return p


def matrix_with_spectrum(shape, p, seed):
    """M = U diag(sqrt p) V^T with U and V Haar, so that M M^H has
    spectrum ``p`` padded with zeros."""
    m, n = shape
    u = haar_unitary(m, seed)[:, : p.size]
    v = haar_unitary(n, seed + 1)[:, : p.size]
    return (u * np.sqrt(p)) @ v.T


def svd_entropy(m):
    """Test-local reference: -sum s^2 ln s^2 over the singular values."""
    p = np.linalg.svd(m, compute_uv=False) ** 2
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


kernel_shapes = st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 4), (2, 8), (1, 4)])
kernel_spectra = st.sampled_from([0.0, 1e-13, 1e-20, None])  # product, tiny second, flat


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32), kernel_shapes, kernel_spectra)
def test_entanglement_entropy_matches_exact_and_svd_spectra(seed, shape, second):
    p = spectrum_of(second, min(shape))
    m = matrix_with_spectrum(shape, p, seed)
    exact = float(-(p[p > 0] * np.log(p[p > 0])).sum())
    value = float(entanglement_entropy(m))
    assert abs(value - exact) <= 5e-14
    assert abs(value - svd_entropy(m)) <= 5e-14
    # the other side of the cut has the same spectrum
    assert abs(float(entanglement_entropy(m.T)) - value) <= 5e-14
    # a stack gives each matrix's own value
    stacked = entanglement_entropy(np.stack([m, m.conj(), 1j * m]))
    assert stacked.shape == (3,)
    assert np.max(np.abs(stacked - value)) <= 5e-14


def test_entanglement_entropy_reports_a_failed_eigensolver(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericalError, match="did not converge"):
        entanglement_entropy(np.eye(2) / np.sqrt(2.0))


@pytest.mark.parametrize(
    "function, argument, patched, message",
    [
        (svd, np.eye(2), "svd", "SVD failed to converge"),
        (hermitian_eigen, np.eye(2), "eigh", "eigensolver failed to converge"),
        (entanglement_entropy_grad, np.eye(2) / np.sqrt(2.0), "svd", "SVD failed to converge"),
        (
            von_neumann_entropy,
            DensityMatrix(np.eye(2) / 2, FactorShape((2,))),
            "eigvalsh",
            "eigensolver failed to converge",
        ),
        (
            lambda m: DensityMatrix(m, FactorShape((2,))),
            np.eye(2) / 2,
            "eigvalsh",
            "eigensolver failed to converge",
        ),
        (
            lambda psi: partial_trace(psi, (1, 3)),
            canonical_counterexample(2).state,
            "eigvalsh",
            "eigensolver failed to converge",
        ),
    ],
    ids=[
        "svd", "hermitian_eigen", "entanglement_entropy_grad", "von_neumann_entropy",
        "DensityMatrix", "partial_trace",
    ],
)
def test_lapack_failures_raise_numerical_error(monkeypatch, function, argument, patched, message):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, patched, fail)
    with pytest.raises(NumericalError, match=message):
        function(argument)


# ------------------------------------------------------------ density checks


@pytest.mark.parametrize(
    "call",
    [
        lambda: DensityMatrix(np.full((2, 2), np.nan), FactorShape((2,))),
        lambda: hermitian_eigen(np.full((2, 2), np.nan)),
        lambda: Spectrum([np.nan, 1.0]),
        lambda: entropy_from_eigenvalues([np.nan, 0.5]),
        lambda: entropy_from_eigenvalues([np.inf]),
        lambda: entanglement_entropy(np.full((2, 2), np.nan)),
        lambda: degenerate_blocks([0.5, np.nan, 0.2]),
    ],
    ids=["DensityMatrix", "hermitian_eigen", "Spectrum", "entropy_nan", "entropy_inf", "kernel_nan", "blocks"],
)
def test_non_finite_inputs_are_rejected(call):
    with pytest.raises((InputError, NumericalError)):
        call()


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
