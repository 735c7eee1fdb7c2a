import itertools

import numpy as np
import pytest

from bnineq import (
    ADDITIVITY_SPLIT,
    FactorShape,
    PureState,
    haar_state,
    partial_trace,
    schmidt_decompose,
    verify_decomposition,
)
from bnineq import tolerances as tol


def test_the_relations_the_table_promises():
    # The numerical-rank cut of schmidt_decompose drops a tail of norm at
    # most D_L * D_R * eps, which must pass the one residual gate.
    eps = np.finfo(np.float64).eps
    assert tol.MAX_TOTAL_DIMENSION * eps < tol.RESIDUAL_TOL
    # The squared norm of an accepted state is the Schmidt coefficient sum
    # and the trace of every partial trace, both gated at MATRIX_ATOL.
    assert (1.0 + tol.NORM_ATOL) ** 2 - 1.0 < tol.MATRIX_ATOL / 10


@pytest.mark.parametrize(
    "dims", [(2, 2, 2, 2), (4, 4, 4, 4), (3, 5, 2, 4)], ids=lambda d: "x".join(map(str, d))
)
@pytest.mark.parametrize("sign", [1, -1])
def test_a_state_at_the_edge_of_the_norm_gate_decomposes_and_traces(dims, sign):
    shape = FactorShape(dims)
    scale = 1.0 + sign * 0.999 * tol.NORM_ATOL
    psi = PureState(shape, haar_state(shape, 11).amplitudes * scale)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) > 0.99 * tol.NORM_ATOL
    dec = schmidt_decompose(psi, ADDITIVITY_SPLIT)
    assert verify_decomposition(psi, dec) <= tol.RESIDUAL_TOL
    for n in range(1, 5):
        for keep in itertools.combinations(range(1, 5), n):
            partial_trace(psi, keep)


def test_the_scan_limit_admits_the_readme_scans_with_room():
    # 1000 samples at d = 2, 300 at d = 3 and 200 at d = 4 (README and CI).
    largest = max(1000 * 2**4, 300 * 3**4, 200 * 4**4)
    assert 100 * largest <= tol.MAX_SCAN_AMPLITUDES
    # the README's rare-violation count: 100,000 samples at d = 3
    assert 100_000 * 3**4 <= tol.MAX_SCAN_AMPLITUDES
