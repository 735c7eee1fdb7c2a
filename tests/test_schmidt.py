import numpy as np
import pytest

from bnineq import (
    ADDITIVITY_SPLIT,
    BipartiteSplit,
    FactorShape,
    InputError,
    PureState,
    SchmidtDecomposition,
    bell_basis,
    canonical_counterexample,
    deformed_counterexample,
    degenerate_blocks,
    entangled_decomposition,
    haar_state,
    haar_unitary,
    hermitian_eigen,
    partial_trace,
    product_decomposition,
    schmidt_decompose,
    verify_decomposition,
)
from helpers import apply_freedom, basis_state, kron_state


def random_state(dims, seed):
    return haar_state(FactorShape(dims), seed)


# ------------------------------------------------------------------- splits


def test_split_validation():
    BipartiteSplit((1, 2), (3, 4))
    BipartiteSplit((2,), (1,))
    with pytest.raises(InputError):
        BipartiteSplit((1, 2), (2, 3))  # overlap
    with pytest.raises(InputError):
        BipartiteSplit((1,), (3,))  # hole at 2
    with pytest.raises(InputError):
        BipartiteSplit((), (1,))


# --------------------------------------------------------------- decompose


def test_schmidt_of_product_state_is_rank_one():
    psi = kron_state(basis_state(FactorShape((2,)), (1,)), basis_state(FactorShape((3,)), (0,)))
    dec = schmidt_decompose(psi, BipartiteSplit((1,), (2,)))
    assert dec.rank == 1
    assert abs(dec.coefficients[0] - 1.0) < 1e-12


def test_schmidt_of_bell_state():
    phi = PureState(FactorShape((2, 2)), np.array([1, 0, 0, 1]) / np.sqrt(2))
    dec = schmidt_decompose(phi, BipartiteSplit((1,), (2,)))
    assert np.allclose(dec.coefficients, [0.5, 0.5], atol=1e-12)


def test_schmidt_of_canonical_state_is_flat():
    psi = canonical_counterexample(2).state
    dec = schmidt_decompose(psi, ADDITIVITY_SPLIT)
    assert np.allclose(dec.coefficients, [0.25] * 4, atol=1e-12)


@pytest.mark.parametrize(
    "dims,split",
    [
        ((2, 2, 2, 2), BipartiteSplit((1, 2), (3, 4))),
        ((2, 2, 2, 2), BipartiteSplit((1, 3), (2, 4))),
        ((3, 2, 3, 2), BipartiteSplit((1, 2), (3, 4))),
        ((2, 3, 4), BipartiteSplit((2,), (1, 3))),
    ],
)
def test_schmidt_coefficients_match_marginal_spectrum(dims, split):
    for seed in range(5):
        psi = random_state(dims, 1000 + seed)
        dec = schmidt_decompose(psi, split)
        rho = partial_trace(psi, split.left)
        spectrum, _ = hermitian_eigen(rho.entries)
        padded = np.zeros(spectrum.values.size)
        padded[: dec.rank] = dec.coefficients
        assert np.max(np.abs(padded - spectrum.values)) < 1e-10
        assert verify_decomposition(psi, dec) < 1e-9


def test_schmidt_rank_tol_drops_null_directions():
    # A product state embedded in a 4-factor space has Schmidt rank 1
    # across any split even though the ambient space is 4-dimensional.
    a = basis_state(FactorShape((2, 2)), (0, 1))
    psi = kron_state(a, a)
    dec = schmidt_decompose(psi, ADDITIVITY_SPLIT)
    assert dec.rank == 1


def tiny_tail_state(lam):
    """sqrt(1 - lam)|0000> + sqrt(lam)|1111>: Schmidt coefficients 1 - lam, lam."""
    amps = np.zeros(16)
    amps[0], amps[15] = np.sqrt(1.0 - lam), np.sqrt(lam)
    return PureState(FactorShape((2, 2, 2, 2)), amps)


@pytest.mark.parametrize("lam", [1e-13, 1e-15, 1e-20])
def test_schmidt_keeps_small_coefficients_above_roundoff(lam):
    # Dropping the small term would leave a residual of sqrt(lam), which
    # for lam = 1e-13 is above the residual gate of bn_gap.
    psi = tiny_tail_state(lam)
    dec = schmidt_decompose(psi, ADDITIVITY_SPLIT)
    assert dec.rank == 2
    assert verify_decomposition(psi, dec) <= 1e-15


# ------------------------------------------------------------------- verify


def test_verify_scores_sound_decompositions_near_zero():
    psi = random_state((3, 2, 3, 2), 77)
    dec = schmidt_decompose(psi, ADDITIVITY_SPLIT)
    assert verify_decomposition(psi, dec) < 1e-12


def test_verify_reports_scaled_vector_defect():
    psi = canonical_counterexample(2).state
    dec = schmidt_decompose(psi, ADDITIVITY_SPLIT)
    left = dec.left.copy()
    left[:, 0] *= 2.0
    broken = SchmidtDecomposition(dec.split, dec.coefficients, left, dec.right, dec.shape)
    score = verify_decomposition(psi, broken)
    assert 0.9 < score < 1.5


def test_verify_rejects_shape_mismatch():
    psi = random_state((2, 2, 2, 2), 5)
    other = schmidt_decompose(random_state((3, 2, 3, 2), 5), ADDITIVITY_SPLIT)
    with pytest.raises(InputError):
        verify_decomposition(psi, other)


# ------------------------------------------------------------------- blocks


def test_degenerate_blocks_examples():
    assert degenerate_blocks(np.array([0.25, 0.25, 0.25, 0.25])) == ((0, 1, 2, 3),)
    assert degenerate_blocks(np.array([0.5, 0.3, 0.2])) == ((0,), (1,), (2,))
    assert degenerate_blocks(np.array([0.5, 0.5, 0.3, 0.2])) == ((0, 1), (2,), (3,))


def test_degenerate_blocks_chains_near_ties():
    lam = np.array([0.5, 0.5 - 5e-9, 0.5 - 1e-8 + 1e-12])
    # renormalize is irrelevant here; the function only looks at gaps
    assert degenerate_blocks(lam) == ((0, 1, 2),)


def test_degenerate_blocks_rejects_unsorted():
    with pytest.raises(InputError):
        degenerate_blocks(np.array([0.2, 0.8]))


# ------------------------------------------------------------------- rotate


def test_rotate_block_preserves_the_state():
    psi = canonical_counterexample(3).state
    dec = schmidt_decompose(psi, ADDITIVITY_SPLIT)
    block = degenerate_blocks(dec.coefficients)[0]
    w = np.eye(dec.rank, dtype=np.complex128)
    w[np.ix_(block, block)] = haar_unitary(len(block), 99)
    rotated = apply_freedom(dec, w)
    assert verify_decomposition(psi, rotated) < 1e-12
    # rotations compose: applying w then its inverse restores the vectors
    back = apply_freedom(rotated, w.conj().T)
    assert np.max(np.abs(back.left - dec.left)) < 1e-12


def test_rotate_block_phase_freedom_on_singletons():
    state, dec = deformed_counterexample(2, 0.1)
    for index in range(dec.rank):
        w = np.eye(dec.rank, dtype=np.complex128)
        w[index, index] = np.exp(1j * (0.3 + index))
        rotated = apply_freedom(dec, w)
        assert verify_decomposition(state.state, rotated) < 1e-12


# -------------------------------------------------------------- from basis
# The canonical state is (1/d) sum_a B_a (x) conj(B_a) for every unitary B,
# so each B gives a Schmidt form (1/d^2, B, conj B).


def test_from_basis_product_vectors():
    dec = product_decomposition(2)
    assert np.allclose(dec.coefficients, [0.25] * 4, atol=1e-15)
    # right vectors mirror the product basis exactly for this state
    for a, vec in enumerate(dec.right.T):
        expected = np.zeros(4)
        expected[a] = 1.0
        assert np.max(np.abs(vec - expected)) < 1e-12
    assert verify_decomposition(canonical_counterexample(2).state, dec) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_from_basis_bell_vectors_conjugate(d):
    dec = entangled_decomposition(d)
    assert np.max(np.abs(dec.right - np.conj(bell_basis(d)))) < 1e-10
    assert verify_decomposition(canonical_counterexample(d).state, dec) < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_from_basis_accepts_any_rotated_basis(d):
    psi = canonical_counterexample(d).state
    lam = np.full(d * d, 1.0 / (d * d))
    for seed in range(10):
        u = haar_unitary(d * d, 2000 + seed)
        dec = SchmidtDecomposition(ADDITIVITY_SPLIT, lam, u, np.conj(u), psi.shape)
        assert verify_decomposition(psi, dec) < 1e-9


# ---------------------------------------------------------------- structure


def test_decomposition_structural_validation():
    dec = schmidt_decompose(canonical_counterexample(2).state, ADDITIVITY_SPLIT)
    with pytest.raises(InputError):
        SchmidtDecomposition(
            dec.split, np.array([0.5, 0.5]), dec.left, dec.right, dec.shape
        )  # count mismatch
    with pytest.raises(InputError):
        SchmidtDecomposition(
            dec.split, np.array([0.1, 0.3, 0.3, 0.3]), dec.left, dec.right, dec.shape
        )  # ascending order
    with pytest.raises(InputError):
        SchmidtDecomposition(
            dec.split, np.array([0.3, 0.3, 0.3, 0.3]), dec.left, dec.right, dec.shape
        )  # sum 1.2


def test_decomposition_rejects_non_finite_entries():
    dec = schmidt_decompose(canonical_counterexample(2).state, ADDITIVITY_SPLIT)
    with pytest.raises(InputError):
        SchmidtDecomposition(dec.split, np.full(4, np.nan), dec.left, dec.right, dec.shape)
    left = dec.left.copy()
    left[0, 0] = np.inf
    with pytest.raises(InputError):
        SchmidtDecomposition(dec.split, dec.coefficients, left, dec.right, dec.shape)
