"""Every numerical tolerance and size limit that the package applies.

Whether two Schmidt coefficients count as degenerate, and whether a
decomposition counts as valid, decides whether the inequality is violated,
so these numbers are part of the physics claim.  They live here, one line
of reason each, and no function takes them as a keyword argument except
``bn_gap(residual_tol=)``, which the CLI's ``check --tol`` sets.

Two relations must hold between the entries:

* ``MAX_TOTAL_DIMENSION * eps < SCAN_RESIDUAL_TOL <= RESIDUAL_TOL`` (eps
  the float64 machine epsilon).  ``schmidt_decompose`` keeps a term only
  if its singular value exceeds ``s_max * max(D_L, D_R) * eps``, the
  numerical rank of ``numpy.linalg.matrix_rank``.  The dropped tail then
  has norm at most ``D_L * D_R * eps``, so an SVD decomposition of any
  accepted state passes both residual gates.
* ``MATRIX_ATOL <= CLIP_TOL``.  Roundoff that a density matrix may carry
  in its Hermiticity and trace shifts its eigenvalues by about that much,
  so the eigenvalue floor must not be stricter than the matrix gates.
"""

#: Hard cap on the total dimension of any state handled by the package.
MAX_TOTAL_DIMENSION = 10**6

#: Pure-state amplitude vectors must have unit norm to this tolerance.
NORM_ATOL = 1e-12

#: State files are accepted when the stored amplitudes have norm within
#: this of one; they are renormalized exactly on load, so text rounding
#: of the stored digits is forgiven.
STATE_FILE_NORM_ATOL = 1e-9

#: Roundoff allowed in a matrix built from unit vectors: deviation from
#: Hermitian, from unit trace or coefficient sum, and from unitary or
#: orthonormal.
MATRIX_ATOL = 1e-10

#: Density-matrix eigenvalues in [-CLIP_TOL, 0) are roundoff: DensityMatrix
#: accepts them and the entropy functions clip them to zero.  Anything more
#: negative is rejected by both.
CLIP_TOL = 1e-10

#: Relative gap under which neighbouring Schmidt coefficients are treated
#: as degenerate, and so free to be mixed by a unitary.
BLOCK_TOL = 1e-8

#: A left marginal must be this close (entrywise) to maximally mixed for
#: decomposition_from_basis to accept an arbitrary basis.
MAXIMALLY_MIXED_ATOL = 1e-8

#: bn_gap rejects decompositions whose verify_decomposition score exceeds
#: this unless the caller overrides it.
RESIDUAL_TOL = 1e-8

#: Scanned decompositions must verify at least this well to be recorded.
SCAN_RESIDUAL_TOL = 1e-9

#: A scanned sample counts as a violation when its gap is below this,
#: which keeps roundoff around a zero gap from counting.
VIOLATION_THRESHOLD = -1e-9

#: maximize_rhs ends its ascent as converged once the norm of the
#: Riemannian gradient (in nats) is at most this.
GRAD_TOL = 1e-9

#: maximize_rhs refuses a search whose estimated work, (restarts + sweeps)
#: times rank^2 * (d1*d2 + d3*d4) for the largest possible Schmidt rank,
#: exceeds this.  One unit costs a few ns on a laptop-class CPU, so an
#: accepted search ends within minutes.
MAX_SEARCH_WORK = 10**10
