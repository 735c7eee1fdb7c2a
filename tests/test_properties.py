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
    derive_seed,
    haar_state,
    haar_unitary,
    maximize_rhs,
    schmidt_decompose,
)

TWO_LN_TWO = 1.3862943611198906

seeds = st.integers(min_value=0, max_value=2**63 - 1)


def locally_rotated_canonical(seed):
    """U1 (x) U2 (x) U3 (x) U4 applied to the canonical d = 2 state, each
    U_i Haar-random from its own derived seed."""
    u1, u2, u3, u4 = (haar_unitary(2, derive_seed(seed, i)) for i in range(4))
    grid = canonical_counterexample(2).state.grid()
    rotated = np.einsum("ai,bj,ck,dl,ijkl->abcd", u1, u2, u3, u4, grid)
    return FourFactorState(PureState(FactorShape((2, 2, 2, 2)), rotated.reshape(-1)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seeds)
def test_local_unitaries_keep_the_violation(seed):
    s = locally_rotated_canonical(seed)
    assert abs(bn_lhs(s)) <= 1e-12
    start = bn_rhs(schmidt_decompose(s.state, ADDITIVITY_SPLIT))
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
    rhs = bn_rhs(schmidt_decompose(s.state, ADDITIVITY_SPLIT))
    assert -1e-12 <= lhs <= np.log(d1 * d3) + 1e-12
    assert -1e-12 <= rhs <= np.log(min(d1, d2)) + np.log(min(d3, d4)) + 1e-12
