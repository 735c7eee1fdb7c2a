"""Every numerical tolerance and size limit that the package applies.

Whether two Schmidt coefficients count as degenerate, and whether a
decomposition counts as valid, decides whether the inequality is violated,
so these numbers are part of the physics claim.  They live here, one line
of reason each, and no function takes a tolerance keyword.

One relation must hold between the entries:
``MAX_TOTAL_DIMENSION * eps < RESIDUAL_TOL`` (eps the float64 machine
epsilon).  ``schmidt_decompose`` keeps a term only if its singular value
exceeds ``s_max * max(D_L, D_R) * eps``, the numerical rank of
``numpy.linalg.matrix_rank``.  The dropped tail then has norm at most
``D_L * D_R * eps``, so an SVD decomposition of any accepted state passes
the one residual gate.
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
#: orthonormal.  It is also the eigenvalue floor: density-matrix eigenvalues
#: in [-MATRIX_ATOL, 0) are roundoff, which DensityMatrix accepts and the
#: entropy functions clip to zero; anything more negative is rejected by both.
MATRIX_ATOL = 1e-10

#: Relative gap under which neighbouring Schmidt coefficients are treated
#: as degenerate, and so free to be mixed by a unitary.
BLOCK_TOL = 1e-8

#: A decomposition reproduces its state when its verify_decomposition
#: score is at most this: bn_gap rejects one that scores more, and scan
#: records such a sample as an error row.
RESIDUAL_TOL = 1e-9

#: Stacked evaluations hold at most this many complex entries per stack
#: (1 MiB): scan's stacks of sample amplitudes and maximize_rhs's stacks of
#: restart unitaries and rotated Schmidt vectors, so neither the sample
#: count nor the restart count can grow working memory without bound.
STACK_ELEMENTS = 2**16

#: scan refuses more than this many amplitudes in all (samples times total
#: dimension): about 200 times the README's largest scan, and few enough
#: that an accepted scan ends within minutes (about one at d = 2).
MAX_SCAN_AMPLITUDES = 10**7

#: A scanned sample counts as a violation when its gap in nats is below
#: this, which keeps roundoff around a zero gap from counting.
VIOLATION_THRESHOLD = -1e-9

#: A later maximize_rhs start replaces the best one only if it scores more
#: than this higher: the margin sits above the entropy kernel's roundoff
#: (about 1e-14), so starts that tie really go to the lowest index.
START_TIE_TOL = 1e-12

#: maximize_rhs ends its ascent as converged once the norm of the
#: Riemannian gradient (in nats) is at most this.
GRAD_TOL = 1e-9

#: maximize_rhs refuses a search whose estimated work, (restarts + sweeps)
#: times rank^2 * (d1*d2 + d3*d4) for the largest possible Schmidt rank,
#: exceeds this.  One unit costs a few ns on a laptop-class CPU, so an
#: accepted search ends within minutes.
MAX_SEARCH_WORK = 10**10
