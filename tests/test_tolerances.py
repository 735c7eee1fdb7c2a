import numpy as np

from bnineq import tolerances as tol


def test_the_relations_the_table_promises():
    # The numerical-rank cut of schmidt_decompose drops a tail of norm at
    # most D_L * D_R * eps, which must pass both residual gates.
    eps = np.finfo(np.float64).eps
    assert tol.MAX_TOTAL_DIMENSION * eps < tol.SCAN_RESIDUAL_TOL <= tol.RESIDUAL_TOL
    # The eigenvalue floor is no stricter than the matrix roundoff gates.
    assert tol.MATRIX_ATOL <= tol.CLIP_TOL
