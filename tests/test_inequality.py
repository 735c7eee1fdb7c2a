import numpy as np
import pytest

from bnineq import (
    ADDITIVITY_SPLIT,
    FactorShape,
    FourFactorState,
    InputError,
    PureState,
    bell_basis,
    bn_gap,
    bn_lhs,
    bn_rhs,
    canonical_counterexample,
    deformed_counterexample,
    degenerate_blocks,
    entangled_decomposition,
    flatten_index,
    haar_state,
    haar_unitary,
    kron_state,
    basis_state,
    maximize_rhs,
    partial_trace_naive,
    product_decomposition,
    rotate_block,
    schmidt_decompose,
    verify_decomposition,
    von_neumann_entropy,
)

TWO_LN_TWO = 1.3862943611198906
TWO_LN_THREE = 2.1972245773362196

# Deformation coefficients at d = 2, eps = 0.1: (1 + 0.1 * t) / 4 with
# tilt t in {3/4, 1/4, -1/4, -3/4}; exact decimals.
DEFORMED_COEFFS_01 = (0.26875, 0.25625, 0.24375, 0.23125)


def apply_single_factor_unitary(psi, position, u):
    """Act with ``u`` on one factor (test-local helper, 1-based position)."""
    grid = psi.grid()
    axis = position - 1
    rotated = np.moveaxis(np.tensordot(u, grid, axes=([1], [axis])), 0, axis)
    return PureState(psi.shape, rotated.reshape(-1))


# ---------------------------------------------------------------- canonical


def test_canonical_amplitude_layout_d2():
    s = canonical_counterexample(2)
    amps = s.state.amplitudes
    nonzero = np.nonzero(amps)[0]
    assert list(nonzero) == [0, 5, 10, 15]
    assert np.allclose(amps[nonzero], 0.5)
    assert np.linalg.norm(amps) == 1.0


@pytest.mark.parametrize("d", [2, 3])
def test_canonical_alice_marginal_is_pure(d):
    s = canonical_counterexample(d)
    # independent route: naive partial trace, then the spectrum directly
    rho = partial_trace_naive(s.state, (1, 3))
    values = np.sort(np.linalg.eigvalsh(rho.entries))[::-1]
    assert abs(values[0] - 1.0) < 1e-12
    assert np.max(np.abs(values[1:])) < 1e-12


def test_canonical_rejects_dim_below_two():
    with pytest.raises(InputError):
        canonical_counterexample(1)


def test_four_factor_state_requires_four_factors():
    with pytest.raises(InputError):
        FourFactorState(haar_state(FactorShape((2, 2, 2)), 3))


# --------------------------------------------------------------- bell basis


def test_bell_basis_d2_members():
    basis = bell_basis(2)
    phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
    phi_minus = np.array([1, 0, 0, -1]) / np.sqrt(2)
    assert np.max(np.abs(basis[0].amplitudes - phi_plus)) < 1e-15  # (m, n) = (0, 0)
    assert np.max(np.abs(basis[2].amplitudes - phi_minus)) < 1e-15  # (m, n) = (1, 0)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_bell_basis_is_orthonormal(d):
    basis = bell_basis(d)
    mat = np.column_stack([b.amplitudes for b in basis])
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(d * d))) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bell_basis_members_are_maximally_entangled(d):
    from bnineq import partial_trace

    for b in bell_basis(d):
        s = von_neumann_entropy(partial_trace(b, (1,)))
        assert abs(s - np.log(d)) < 1e-10


def test_bell_basis_closed_under_conjugation():
    d = 3
    basis = bell_basis(d)
    for m in range(d):
        for n in range(d):
            conj = np.conj(basis[m * d + n].amplitudes)
            partner = basis[((d - m) % d) * d + n].amplitudes
            assert np.max(np.abs(conj - partner)) < 1e-12


# ------------------------------------------------------------ lhs, rhs, gap


def test_lhs_of_canonical_vanishes():
    for d in (2, 3):
        assert bn_lhs(canonical_counterexample(d)) < 1e-10


def test_lhs_of_product_state_vanishes():
    e = basis_state(FactorShape((2,)), (0,))
    psi = kron_state(kron_state(e, e), kron_state(e, e))
    assert bn_lhs(FourFactorState(psi)) < 1e-12


# Non-square shapes expose a transposed reshape in the entropy kernel.
ORACLE_SHAPES = [(2, 2, 2, 2), (3, 2, 3, 2), (2, 3, 2, 3), (2, 3, 4, 2)]


def shape_id(dims):
    return "x".join(str(d) for d in dims)


@pytest.mark.parametrize("dims", ORACLE_SHAPES, ids=shape_id)
def test_lhs_cross_checked_against_naive_oracle(dims):
    for seed in range(5):
        psi = haar_state(FactorShape(dims), 400 + seed)
        fast = bn_lhs(FourFactorState(psi))
        slow = von_neumann_entropy(partial_trace_naive(psi, (1, 3)))
        assert abs(fast - slow) < 1e-10


@pytest.mark.parametrize("dims", ORACLE_SHAPES, ids=shape_id)
def test_rhs_cross_checked_against_naive_oracle(dims):
    left_shape, right_shape = FactorShape(dims[:2]), FactorShape(dims[2:])
    for seed in range(5):
        dec = schmidt_decompose(haar_state(FactorShape(dims), 700 + seed), ADDITIVITY_SPLIT)
        slow = 0.0
        for lam, left, right in zip(dec.coefficients, dec.left.T, dec.right.T):
            s_left = von_neumann_entropy(partial_trace_naive(PureState(left_shape, left), (1,)))
            s_right = von_neumann_entropy(partial_trace_naive(PureState(right_shape, right), (1,)))
            slow += lam * (s_left + s_right)
        assert abs(bn_rhs(dec) - slow) < 1e-10


def test_lhs_invariant_under_bob_local_unitaries():
    # Alice's marginal ignores what happens on factors 2 and 4.
    psi = haar_state(FactorShape((2, 2, 2, 2)), 41)
    base = bn_lhs(FourFactorState(psi))
    for seed in range(5):
        u2 = haar_unitary(2, 500 + seed)
        u4 = haar_unitary(2, 600 + seed)
        moved = apply_single_factor_unitary(
            apply_single_factor_unitary(psi, 2, u2), 4, u4
        )
        assert abs(bn_lhs(FourFactorState(moved)) - base) < 1e-9


def test_rhs_of_product_decomposition_is_zero():
    for d in (2, 3):
        assert bn_rhs(product_decomposition(d)) < 1e-10


def test_rhs_of_entangled_decomposition():
    assert abs(bn_rhs(entangled_decomposition(2)) - TWO_LN_TWO) < 1e-9
    assert abs(bn_rhs(entangled_decomposition(3)) - TWO_LN_THREE) < 1e-9


def test_rhs_base_two():
    assert abs(bn_rhs(entangled_decomposition(2), log_base="2") - 2.0) < 1e-9


def test_rhs_rejects_other_splits():
    from bnineq import BipartiteSplit

    psi = haar_state(FactorShape((2, 2, 2, 2)), 8)
    dec = schmidt_decompose(psi, BipartiteSplit((1, 3), (2, 4)))
    with pytest.raises(InputError):
        bn_rhs(dec)


def test_rhs_invariant_under_singleton_phases():
    _, dec = deformed_counterexample(2, 0.1)
    base = bn_rhs(dec)
    rotated = dec
    for index in range(dec.rank):
        rotated = rotate_block(rotated, (index,), np.array([[np.exp(1j * (index + 0.7))]]))
    assert abs(bn_rhs(rotated) - base) < 1e-10


def test_gap_certificate_for_the_canonical_family():
    s = canonical_counterexample(2)
    report = bn_gap(s, entangled_decomposition(2), source="entangled")
    assert report.lhs < 1e-10
    assert abs(report.rhs - TWO_LN_TWO) < 1e-9
    assert abs(report.gap + TWO_LN_TWO) < 1e-9
    assert report.gap == report.lhs - report.rhs
    assert report.decomposition_source == "entangled"


def test_gap_with_product_decomposition_is_zero():
    s = canonical_counterexample(2)
    report = bn_gap(s, product_decomposition(2), source="product")
    assert abs(report.gap) < 1e-9


def test_gap_requires_matching_decomposition():
    s = canonical_counterexample(2)
    _, other = deformed_counterexample(2, 0.2)
    with pytest.raises(InputError):
        bn_gap(s, other)


def test_gap_rejects_non_finite_residual_tol():
    # A NaN tolerance must not switch the verification gate off.
    s = canonical_counterexample(2)
    _, other = deformed_counterexample(2, 0.2)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(InputError):
            bn_gap(s, other, residual_tol=tol)
        with pytest.raises(InputError):
            bn_gap(s, entangled_decomposition(2), residual_tol=tol)


def test_gap_on_random_state_with_svd_decomposition():
    psi = haar_state(FactorShape((2, 2, 2, 2)), 77)
    s = FourFactorState(psi)
    dec = schmidt_decompose(psi, ADDITIVITY_SPLIT)
    report = bn_gap(s, dec, source="svd")
    assert np.isfinite(report.gap)
    assert report.lhs >= -1e-10 and report.rhs >= -1e-10


# --------------------------------------------------------------- deformation


def test_deformed_coefficients_are_the_designated_decimals():
    _, dec = deformed_counterexample(2, 0.1)
    assert np.max(np.abs(dec.coefficients - np.array(DEFORMED_COEFFS_01))) < 1e-15


def test_deformed_state_recovers_its_spectrum_under_svd():
    state, dec = deformed_counterexample(2, 0.1)
    recovered = schmidt_decompose(state.state, ADDITIVITY_SPLIT)
    assert np.max(np.abs(recovered.coefficients - dec.coefficients)) < 1e-9
    # unique spectrum: every degenerate block is a singleton
    assert all(len(b) == 1 for b in degenerate_blocks(recovered.coefficients))


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_deformed_gap_stays_negative(eps):
    state, dec = deformed_counterexample(2, eps)
    report = bn_gap(state, dec, source="deformed")
    assert report.gap < -1.0  # far below zero, not marginal
    assert abs(report.rhs - TWO_LN_TWO) < 1e-9


def test_deformed_lhs_grows_with_eps():
    values = []
    for eps in (0.05, 0.1, 0.2):
        state, _ = deformed_counterexample(2, eps)
        values.append(bn_lhs(state))
    assert values[0] < values[1] < values[2]
    assert values[0] > 0.0


def test_deformed_rejects_bad_eps():
    for eps in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(InputError):
            deformed_counterexample(2, eps)


def test_deformed_coefficients_sum_to_one_exactly():
    for d, eps in [(2, 0.05), (3, 0.1)]:
        _, dec = deformed_counterexample(d, eps)
        assert abs(float(dec.coefficients.sum()) - 1.0) < 1e-12


# ----------------------------------------------------------------- maximize


def test_maximize_recovers_the_entangled_value():
    s = canonical_counterexample(2)
    dec, report = maximize_rhs(s)
    assert report.rhs >= TWO_LN_TWO - 0.01
    assert report.rhs <= TWO_LN_TWO + 1e-9
    assert verify_decomposition(s.state, dec) < 1e-9
    assert report.decomposition_source == "rotated"


def test_maximize_is_monotone_even_with_tiny_budgets():
    s = canonical_counterexample(2)
    initial = bn_rhs(schmidt_decompose(s.state, ADDITIVITY_SPLIT))
    _, report = maximize_rhs(s, restarts=2, sweeps=1, seed=5)
    assert report.rhs >= initial - 1e-10


def test_maximize_zero_budget_returns_the_svd_value():
    s = canonical_counterexample(2)
    initial = bn_rhs(schmidt_decompose(s.state, ADDITIVITY_SPLIT))
    _, report = maximize_rhs(s, restarts=0, sweeps=0)
    assert abs(report.rhs - initial) < 1e-12


def test_maximize_is_a_noop_without_degeneracy():
    state, _ = deformed_counterexample(2, 0.1)
    initial = bn_rhs(schmidt_decompose(state.state, ADDITIVITY_SPLIT))
    dec, report = maximize_rhs(state)
    assert abs(report.rhs - initial) < 1e-10
    assert report.decomposition_source == "svd"
    # the returned vectors match the designated ones up to phase
    _, designated = deformed_counterexample(2, 0.1)
    overlaps = np.abs(
        np.diag(designated.left.conj().T @ dec.left)
    )
    assert np.max(np.abs(overlaps - 1.0)) < 1e-8


def test_maximize_rejects_negative_budgets():
    with pytest.raises(InputError):
        maximize_rhs(canonical_counterexample(2), restarts=-1)
    with pytest.raises(InputError):
        maximize_rhs(canonical_counterexample(2), sweeps=-2)


def test_maximize_seed_determinism():
    s = canonical_counterexample(2)
    _, a = maximize_rhs(s, restarts=3, sweeps=2, seed=11)
    _, b = maximize_rhs(s, restarts=3, sweeps=2, seed=11)
    assert a.rhs == b.rhs
