"""Every numerical tolerance and size limit that the package applies.

Whether two Schmidt coefficients count as degenerate, and whether a
decomposition counts as valid, decides whether the inequality is violated,
so these numbers are part of the physics claim.  They live here, one line
of reason each, and no function takes a tolerance keyword.

Three relations tie the entries to each other (eps is the float64 machine
epsilon).

1. ``MAX_TOTAL_DIMENSION * eps < RESIDUAL_TOL``.  ``schmidt_decompose``
   keeps a term only if its singular value exceeds
   ``s_max * max(D_L, D_R) * eps``, the numerical rank of
   ``numpy.linalg.matrix_rank``.  The dropped tail then has norm at most
   ``D_L * D_R * eps``, so an SVD decomposition of any accepted state
   passes the one residual gate.

2. Degeneracy has no entry of its own: it is derived from
   ``RESIDUAL_TOL``.  ``degenerate_blocks`` chains consecutive
   coefficients of a list of k whose square roots s_a = sqrt(lambda_a)
   differ by at most ``g = RESIDUAL_TOL / (2 sqrt(k) max(k - 1, 1))``.
   Mixing the vectors inside those blocks then moves a decomposition by at
   most ``RESIDUAL_TOL / 2``, so every decomposition that ``maximize_rhs``
   builds passes ``bn_gap``'s gate, with the other half left for roundoff.

   Proof.  The freedom maps the vectors (L, R) to (L W, R conj(W)) with W
   unitary and block-diagonal over the blocks, so the reconstruction
   L S R^T, S = diag(s), becomes L W S W^H R^T.  L and R have orthonormal
   columns, so it moves by ``||W S W^H - S||_F``.  On block b, of n_b
   coefficients, write S_b = c_b I + E_b with c_b the midpoint of the
   block's s values.  W_b commutes with c_b I, so
   ``W_b S_b W_b^H - S_b = W_b E_b W_b^H - E_b``, whose norm is at most
   ``2 ||E_b||_F``.  A chain of n_b values with steps of at most g spans
   at most (n_b - 1) g, so every entry of E_b is at most (n_b - 1) g / 2
   in size and ``||E_b||_F <= sqrt(n_b) (n_b - 1) g / 2``.  Summing the
   squares over the blocks, with n_b <= k and sum n_b = k,
   ``||W S W^H - S||_F^2 <= sum_b n_b (n_b - 1)^2 g^2 <= k (k - 1)^2 g^2``,
   that is ``||W S W^H - S||_F <= sqrt(k) (k - 1) g = RESIDUAL_TOL / 2``.

3. ``(1 + NORM_ATOL)**2 - 1 < MATRIX_ATOL / 10``.  ``PureState`` accepts
   a norm within ``NORM_ATOL`` of 1, and the squared norm is both the sum
   of the Schmidt coefficients, which ``SchmidtDecomposition`` refuses
   beyond ``MATRIX_ATOL`` of 1, and the trace of every partial trace,
   which ``DensityMatrix`` refuses alike.  So every accepted state can be
   decomposed and traced, with nine tenths of ``MATRIX_ATOL`` left for
   roundoff.
"""

#: Hard cap on the total dimension of any state handled by the package.
MAX_TOTAL_DIMENSION = 10**6

#: Pure-state amplitude vectors must have unit norm to this tolerance
#: (relation 3 above).
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

#: A decomposition reproduces its state when its verify_decomposition
#: score is at most this.  One helper, inequality._refusal, applies the
#: gate, both for bn_gap, which rejects a decomposition that scores more,
#: and for the scan's stacked rows, which scan only records as error rows.
#: It also sets which Schmidt coefficients count as degenerate (relation 2
#: above).
RESIDUAL_TOL = 1e-9

#: Stacked evaluations hold at most this many complex entries per stack
#: (1 MiB): scan's stacks of sample amplitudes and maximize_rhs's stacks of
#: restart unitaries and rotated side stacks, so neither the sample
#: count nor the restart count can grow working memory without bound.
#: Its one reader is tensor._stacks, which cuts both kinds of stack.
STACK_ELEMENTS = 2**16

#: scan refuses more than this many amplitudes in all (samples times total
#: dimension): 1.2 times the README's largest scan (100,000 samples at d = 3),
#: and few enough that an accepted scan ends in minutes (about one at d = 2).
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
