"""Physics invariants checked as properties over hypothesis-chosen seeds."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bnineq import (
    ADDITIVITY_SPLIT,
    FactorShape,
    FourFactorState,
    PureState,
    bn_lhs,
    bn_rhs,
    canonical_counterexample,
    degenerate_blocks,
    derive_seed,
    haar_state,
    haar_unitary,
    maximize_rhs,
    schmidt_decompose,
)
from bnineq.inequality import _rhs_ascent, _rotated, _sides
from helpers import apply_freedom

TWO_LN_TWO = 1.3862943611198906

seeds = st.integers(min_value=0, max_value=2**63 - 1)


def locally_rotated(psi, seed):
    """U1 (x) U2 (x) U3 (x) U4 applied to ``psi``, each U_i Haar-random
    from its own derived seed."""
    dims = psi.shape.dims
    u1, u2, u3, u4 = (haar_unitary(d, derive_seed(seed, i)) for i, d in enumerate(dims))
    rotated = np.einsum("ai,bj,ck,dl,ijkl->abcd", u1, u2, u3, u4, psi.grid())
    return FourFactorState(PureState(psi.shape, rotated.reshape(-1)))


def svd_rhs(s):
    return bn_rhs(schmidt_decompose(s.state, ADDITIVITY_SPLIT))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seeds)
def test_local_unitaries_keep_the_violation(seed):
    s = locally_rotated(canonical_counterexample(2).state, seed)
    assert abs(bn_lhs(s)) <= 1e-12
    start = svd_rhs(s)
    _, report = maximize_rhs(s, seed=seed)
    assert report.rhs >= start - 1e-12
    # ln min(d1, d2) + ln min(d3, d4) bounds every rhs
    assert report.rhs <= TWO_LN_TWO + 1e-12
    assert abs(report.rhs - TWO_LN_TWO) <= 1e-9, report.state_descriptor


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seeds, st.sampled_from([(2, 2, 2, 2), (2, 3, 2, 3), (3, 2, 2, 3), (2, 3, 4, 2)]))
def test_both_sides_stay_within_their_bounds(seed, dims):
    d1, d2, d3, d4 = dims
    s = FourFactorState(haar_state(FactorShape(dims), seed))
    lhs = bn_lhs(s)
    rhs = svd_rhs(s)
    assert 0.0 <= lhs <= np.log(d1 * d3) + 1e-12
    assert 0.0 <= rhs <= np.log(min(d1, d2)) + np.log(min(d3, d4)) + 1e-12


haar_shapes = st.sampled_from([(2, 2, 2, 2), (2, 3, 2, 3)])


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seeds, haar_shapes)
def test_local_unitaries_leave_both_sides_unchanged(seed, dims):
    # Haar spectra are non-degenerate, so the SVD decomposition is unique
    # up to phases and its rhs is a function of the state alone.
    s = FourFactorState(haar_state(FactorShape(dims), seed))
    rotated = locally_rotated(s.state, derive_seed(seed, 99))
    assert abs(bn_lhs(rotated) - bn_lhs(s)) <= 1e-12
    assert abs(svd_rhs(rotated) - svd_rhs(s)) <= 1e-12


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seeds, haar_shapes)
def test_phases_on_single_coefficient_blocks_leave_the_rhs_unchanged(seed, dims):
    dec = schmidt_decompose(haar_state(FactorShape(dims), seed), ADDITIVITY_SPLIT)
    phases = np.exp(2j * np.pi * np.random.default_rng(seed).random(dec.rank))
    singles = [b[0] for b in degenerate_blocks(dec.coefficients) if len(b) == 1]
    w = np.eye(dec.rank, dtype=np.complex128)
    w[singles, singles] = phases[singles]
    rotated = apply_freedom(dec, w)
    assert abs(bn_rhs(rotated) - bn_rhs(dec)) <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seeds, st.sampled_from([2, 3, 4]))
def test_the_canonical_state_is_the_same_in_every_basis(seed, d):
    # (1/d) sum_a Phi_a (x) conj(Phi_a) over any orthonormal basis {Phi_a}
    # of C^d (x) C^d is the canonical state: it is the vectorised identity.
    u = haar_unitary(d * d, seed)
    rebuilt = sum(np.kron(u[:, a], np.conj(u[:, a])) for a in range(d * d)) / d
    target = canonical_counterexample(d).state.amplitudes
    assert np.linalg.norm(rebuilt - target) <= 1e-10


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seeds, st.sampled_from([(2, 3, 3, 2), (2, 3, 4, 2), (1, 2, 3, 2)]))
def test_rotating_the_side_stack_rotates_the_columns(seed, dims):
    # The ascent rotates the zero-padded stack of both sides instead of the
    # columns; on shapes whose sides differ, the padding must stay exactly 0.
    d1, d2, d3, d4 = dims
    dec = schmidt_decompose(haar_state(FactorShape(dims), seed), ADDITIVITY_SPLIT)
    q = haar_unitary(dec.rank, derive_seed(seed, 1))
    rotated = apply_freedom(dec, q)
    sides = _sides(dec.left, dec.right, dims)
    stack = _rotated(sides, q)
    assert np.max(np.abs(stack - _sides(rotated.left, rotated.right, dims))) <= 1e-14
    padding = np.ones(stack.shape, dtype=bool)
    padding[: dec.rank, :d1, :d2] = padding[dec.rank :, :d3, :d4] = False
    assert padding.any() and np.all(stack[padding] == 0.0)
    mask = np.ones((dec.rank, dec.rank), dtype=bool)
    assert abs(_rhs_ascent(dec.coefficients, stack, mask)[0] - bn_rhs(rotated)) <= 1e-12
    # A stack of unitaries rotates the one side stack into one stack per q.
    qs = np.stack([haar_unitary(dec.rank, derive_seed(seed, j)) for j in (2, 3, 4)])
    stacks = _rotated(sides, qs)
    assert stacks.shape == (3, *stack.shape)
    for j, q in enumerate(qs):
        assert np.array_equal(stacks[j], _rotated(sides, q))
    assert np.all(stacks[:, padding] == 0.0)
