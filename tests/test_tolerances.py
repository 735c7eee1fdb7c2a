import numpy as np

from bnineq import tolerances as tol


def test_the_relations_the_table_promises():
    # The numerical-rank cut of schmidt_decompose drops a tail of norm at
    # most D_L * D_R * eps, which must pass the one residual gate.
    eps = np.finfo(np.float64).eps
    assert tol.MAX_TOTAL_DIMENSION * eps < tol.RESIDUAL_TOL


def test_the_scan_limit_admits_the_readme_scans_with_room():
    # 1000 samples at d = 2, 300 at d = 3 and 200 at d = 4 (README and CI).
    largest = max(1000 * 2**4, 300 * 3**4, 200 * 4**4)
    assert 100 * largest <= tol.MAX_SCAN_AMPLITUDES
    # the README's rare-violation count: 100,000 samples at d = 3
    assert 100_000 * 3**4 <= tol.MAX_SCAN_AMPLITUDES
