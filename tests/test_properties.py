"""Physics invariants checked as properties over hypothesis-chosen seeds."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from bnineq import (
    ADDITIVITY_SPLIT,
    FactorShape,
    FourFactorState,
    PureState,
    SchmidtDecomposition,
    bn_gap,
    bn_lhs,
    bn_rhs,
    canonical_counterexample,
    degenerate_blocks,
    derive_seed,
    haar_state,
    haar_unitary,
    maximize_rhs,
    partial_trace,
    schmidt_decompose,
    verify_decomposition,
    von_neumann_entropy,
)
from bnineq.inequality import _rhs_ascent, _rotated, _sides
from bnineq.tolerances import RESIDUAL_TOL
from helpers import apply_freedom, block_gap, page_entropy, shape_id

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


#: Clusters of planted near-ties, each (log10 of its square-root level,
#: its size, log10 of its step in units of the derived step g of
#: ``degenerate_blocks``): steps from well inside a block to well past the
#: old fixed tolerance on lambda (1e-8), at levels over three decades.
clusters = st.lists(
    st.tuples(st.floats(-3.0, 0.0), st.integers(2, 4), st.floats(-1.0, 3.0)),
    min_size=1,
    max_size=5,
)


def clustered(seed, dims, clusters):
    """A state whose Schmidt coefficients across {1,2} | {3,4} are the
    planted ``clusters``, on Haar-random bases, and that decomposition."""
    d1, d2, d3, d4 = dims
    k = min(sum(size for _, size, _ in clusters), d1 * d2, d3 * d4)
    chains = [10.0**a - 10.0**x * block_gap(k) * np.arange(n) for a, n, x in clusters]
    s = np.sort(np.concatenate(chains))[::-1][:k]
    s /= np.linalg.norm(s)
    left = haar_unitary(d1 * d2, derive_seed(seed, 1))[:, :k]
    right = haar_unitary(d3 * d4, derive_seed(seed, 2))[:, :k]
    psi = PureState(FactorShape(dims), (left * s) @ right.T)
    return psi, SchmidtDecomposition(ADDITIVITY_SPLIT, s**2, left, right, psi.shape)


def mixed_in_blocks(dec, seed):
    """``dec`` with a Haar unitary applied inside each of its blocks."""
    w = np.eye(dec.rank, dtype=np.complex128)
    for j, b in enumerate(degenerate_blocks(dec.coefficients)):
        w[np.ix_(b, b)] = haar_unitary(len(b), derive_seed(seed, 3 + j))
    return apply_freedom(dec, w)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeds, st.sampled_from([(2, 2, 2, 2), (2, 3, 2, 3), (3, 3, 3, 3)]), clusters)
# Steps of 100 g at the level 1e-3 differ by less than g in lambda but not
# in sqrt(lambda): a rule on lambda would mix them and miss the gate.
@example(seed=0, dims=(3, 3, 3, 3), clusters=[(0.0, 2, 4.0), (-3.0, 4, 2.0)])
def test_mixing_inside_the_blocks_stays_within_half_the_gate(seed, dims, clusters):
    # The guarantee of degenerate_blocks (proof in bnineq.tolerances): a
    # Haar unitary on each block moves a decomposition by at most half of
    # RESIDUAL_TOL, whatever the spectrum, so bn_gap accepts the result.
    psi, dec = clustered(seed, dims, clusters)
    assert verify_decomposition(psi, mixed_in_blocks(dec, seed)) <= RESIDUAL_TOL / 2 + 1e-14


@pytest.mark.parametrize("d, n", [(2, 1000), (3, 300)])
def test_small_perturbations_of_the_canonical_state_violate_by_the_page_mean(d, n):
    # psi_t ~ psi_can + t phi with unique Schmidt form: as t -> 0 both of its
    # bases tend to the eigenbasis of Phi + Phi^H (Phi the amplitude matrix
    # of the Haar direction phi), which is Haar, while the lhs tends to 0.
    # So the mean gap tends to -2 S(d, d), and every direction violates.
    canonical = canonical_counterexample(d).state
    gaps = np.empty(n)
    for i in range(n):
        phi = haar_state(canonical.shape, derive_seed(13, i))
        amps = canonical.amplitudes + 1e-6 * phi.amplitudes
        s = FourFactorState(PureState.normalized(canonical.shape, amps))
        gaps[i] = bn_gap(s, schmidt_decompose(s.state, ADDITIVITY_SPLIT)).gap
    error = gaps.std(ddof=1) / math.sqrt(n)
    assert abs(gaps.mean() + 2.0 * page_entropy(d, d)) <= 4.0 * error
    assert gaps.max() < 0.0


# ------------------------------------------------------- theorem oracles
# Three facts that hold for every Schmidt decomposition, so the package
# must never report a violation, or an rhs, beyond them.


def flat_state(dims, seed):
    """A state of Schmidt rank k = min(d1 d2, d3 d4) across {1,2} | {3,4},
    coefficients all 1/k, on Haar-random bases of both sides: every
    decomposition is in one degenerate block, so maximize_rhs searches."""
    d1, d2, d3, d4 = dims
    k = min(d1 * d2, d3 * d4)
    left = haar_unitary(d1 * d2, derive_seed(seed, 1))[:, :k]
    right = haar_unitary(d3 * d4, derive_seed(seed, 2))[:, :k]
    return FourFactorState(PureState(FactorShape(dims), left @ right.T / math.sqrt(k)))


def marginal_bound(psi):
    """R* = min(S(rho_1), S(rho_2)) + min(S(rho_3), S(rho_4)), the marginals
    taken by partial_trace and von_neumann_entropy, not by the rhs kernel."""
    s1, s2, s3, s4 = (von_neumann_entropy(partial_trace(psi, (i,))) for i in (1, 2, 3, 4))
    return min(s1, s2) + min(s3, s4)


def searched(s, seed):
    """maximize_rhs's report on ``s`` at a small budget."""
    return maximize_rhs(s, restarts=3, sweeps=40, seed=seed)[1]


@pytest.mark.parametrize(
    "dims", [(1, 2, 2, 2), (2, 1, 2, 2), (2, 2, 1, 2), (2, 2, 2, 1)], ids=shape_id
)
def test_a_trivial_factor_forbids_a_violation(dims):
    # Take d1 = 1: each l_a is pure on factor 2, so rhs = sum_a lam_a
    # S(sigma_a), sigma_a the factor-3 marginal of r_a.  Tracing {1, 2}
    # kills the cross terms, so rho_3 = sum_a lam_a sigma_a and lhs =
    # S(rho_3) >= rhs by concavity.  The other positions follow alike.
    for seed in range(3):
        s = flat_state(dims, seed)
        assert bn_gap(s, schmidt_decompose(s.state, ADDITIVITY_SPLIT)).gap >= -1e-12
        assert searched(s, seed).gap >= -1e-12


@pytest.mark.parametrize(
    "dims", [(2, 2, 2, 2), (2, 3, 3, 2), (3, 2, 2, 4), (1, 3, 2, 2)], ids=shape_id
)
def test_schmidt_rank_one_has_gap_zero(dims):
    # psi = l (x) r gives rho_13 = rho_1 (x) rho_3, so lhs = S(rho_1) +
    # S(rho_3), which is the rhs of the one-term decomposition.
    d1, d2, d3, d4 = dims
    for seed in range(3):
        left = haar_state(FactorShape((d1, d2)), derive_seed(seed, 1)).amplitudes
        right = haar_state(FactorShape((d3, d4)), derive_seed(seed, 2)).amplitudes
        s = FourFactorState(PureState(FactorShape(dims), np.outer(left, right)))
        assert abs(bn_gap(s, schmidt_decompose(s.state, ADDITIVITY_SPLIT)).gap) <= 1e-12
        assert abs(searched(s, seed).gap) <= 1e-12


@pytest.mark.parametrize(
    "dims", [(2, 2, 2, 2), (2, 3, 3, 2), (3, 2, 2, 3), (2, 2, 3, 3), (1, 2, 2, 2)], ids=shape_id
)
def test_every_rhs_stays_below_the_marginal_bound(dims):
    # By concavity sum_a lam_a S(tr_2 l_a) <= S(rho_1), and as each l_a is
    # pure also <= S(rho_2); likewise on (3, 4).  So rhs <= R* for every
    # decomposition, the SVD one of a Haar state and every searched one.
    for seed in range(3):
        s = FourFactorState(haar_state(FactorShape(dims), derive_seed(seed, 3)))
        assert svd_rhs(s) <= marginal_bound(s.state) + 1e-12
        flat = flat_state(dims, seed)
        assert searched(flat, seed).rhs <= marginal_bound(flat.state) + 1e-12


# ------------------------------------------------------- targeted properties
# The errors that matter sit on thin sets of inputs, so each test below
# steers hypothesis toward a larger score with ``target`` and checks the
# score against the bound that the package documents.

SEARCH_SHAPES = [(2, 2, 2, 2), (2, 3, 3, 2), (3, 2, 2, 3), (2, 2, 3, 3), (1, 2, 2, 2)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeds, st.sampled_from(SEARCH_SHAPES), clusters)
# one flat block, the canonical family's spectrum: the search nears R*
@example(seed=0, dims=(2, 2, 2, 2), clusters=[(0.0, 4, -1.0)])
def test_targeted_search_stays_below_the_marginal_bound(seed, dims, clusters):
    # R* comes from partial_trace and von_neumann_entropy, not from the
    # kernels that the ascent and bn_rhs share.
    psi, _ = clustered(seed, dims, clusters)
    excess = searched(FourFactorState(psi), seed).rhs - marginal_bound(psi)
    target(excess)
    assert excess <= 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeds, st.sampled_from(SEARCH_SHAPES), clusters)
def test_targeted_search_stays_within_half_the_gate(seed, dims, clusters):
    # maximize_rhs mixes only inside the blocks of degenerate_blocks, so its
    # result keeps the other half of RESIDUAL_TOL for roundoff.
    psi, _ = clustered(seed, dims, clusters)
    residual = searched(FourFactorState(psi), seed).residual
    target(residual)
    assert residual <= RESIDUAL_TOL / 2


def traced_sides(psi, dec):
    """lhs and rhs of ``dec`` through partial_trace and von_neumann_entropy,
    one Schmidt vector at a time, instead of the stacked kernels."""
    d1, d2, d3, d4 = psi.shape.dims

    def entropy(vector, dims):
        return von_neumann_entropy(partial_trace(PureState(FactorShape(dims), vector), (1,)))

    rhs = sum(
        lam * (entropy(left, (d1, d2)) + entropy(right, (d3, d4)))
        for lam, left, right in zip(dec.coefficients, dec.left.T, dec.right.T)
    )
    return von_neumann_entropy(partial_trace(psi, (1, 3))), rhs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seeds, st.sampled_from([*SEARCH_SHAPES, (3, 3, 3, 3)]), clusters)
def test_targeted_kernels_agree_with_the_partial_trace_route(seed, dims, clusters):
    psi, dec = clustered(seed, dims, clusters)
    mixed = mixed_in_blocks(dec, seed)
    lhs, rhs = traced_sides(psi, mixed)
    error = max(abs(bn_lhs(FourFactorState(psi)) - lhs), abs(bn_rhs(mixed) - rhs))
    target(error)
    assert error <= 1e-12
