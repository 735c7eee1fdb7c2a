"""The Benatti-Narnhofer entanglement entropy inequality on four-factor
pure states, and the family of states that violates it.

For a pure state on H_1 (x) H_2 (x) H_3 (x) H_4, with Alice holding
factors 1 and 3 and Bob holding 2 and 4, the inequality claims

    S(rho_13)  <=  sum_a lambda_a [ S(tr_2 |l_a><l_a|) + S(tr_4 |r_a><r_a|) ]

for a Schmidt decomposition ``sum_a sqrt(lambda_a) l_a (x) r_a`` across the
split {1,2} | {3,4}.  The right-hand side depends on which Schmidt
decomposition is chosen when coefficients are degenerate, and that freedom
kills the inequality: the maximally entangled four-factor family built
here has left-hand side 0 while an entangled choice of Schmidt vectors
drives the right-hand side up to 2 log d.  A small deformation of the
coefficients makes the Schmidt decomposition unique while the gap stays
near -2 log d, so the violation survives without any freedom of choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import InputError
from .schmidt import (
    BipartiteSplit,
    SchmidtDecomposition,
    decomposition_from_basis,
    degenerate_blocks,
    schmidt_decompose,
    verify_decomposition,
)
from .spectra import entanglement_entropy
from .tensor import FactorShape, PureState, flatten_index

#: Factor positions held by the two parties (1-based).
ALICE_FACTORS = (1, 3)
BOB_FACTORS = (2, 4)

#: The bipartition across which Schmidt decompositions are taken.
ADDITIVITY_SPLIT = BipartiteSplit((1, 2), (3, 4))

#: bn_gap rejects decompositions whose verify_decomposition score exceeds
#: this unless the caller overrides it.
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FourFactorState:
    """A pure state on exactly four tensor factors, with the fixed party
    assignment Alice = {1, 3}, Bob = {2, 4}."""

    state: PureState

    def __post_init__(self) -> None:
        if self.state.shape.n_factors != 4:
            raise InputError(
                f"expected a 4-factor state, got {self.state.shape.n_factors} factors"
            )


@dataclass(frozen=True, eq=False)
class GapReport:
    """One evaluation of the inequality: lhs, rhs, and gap = lhs - rhs.

    ``gap < 0`` certifies a violation for the decomposition used.
    ``decomposition_source`` records where that decomposition came from
    (one of svd, product, entangled, deformed, rotated, custom) and
    ``state_descriptor`` is free text describing the state.
    """

    lhs: float
    rhs: float
    gap: float
    log_base: str
    decomposition_source: str
    state_descriptor: str


def bn_lhs(s: FourFactorState, log_base: str = "e") -> float:
    """Entropy of Alice's marginal: S(tr_24 |psi><psi|).

    For a pure state this is the entanglement entropy across
    {1,3} | {2,4}, read off the (d1*d3 x d2*d4) reshape of psi.
    """
    d1, d2, d3, d4 = s.state.shape.dims
    m = s.state.grid().transpose(0, 2, 1, 3).reshape(d1 * d3, d2 * d4)
    return float(entanglement_entropy(m, log_base))


def _rhs(
    lam: np.ndarray, left: np.ndarray, right: np.ndarray, dims: tuple[int, ...], log_base: str
) -> float:
    """Right-hand side on raw (D x rank) column arrays of a decomposition
    across {1,2} | {3,4} of a state with local dimensions ``dims``."""
    s_left = entanglement_entropy(left.T.reshape(-1, dims[0], dims[1]), log_base)
    s_right = entanglement_entropy(right.T.reshape(-1, dims[2], dims[3]), log_base)
    return float(lam @ (s_left + s_right))


def bn_rhs(dec: SchmidtDecomposition, log_base: str = "e") -> float:
    """Right-hand side of the inequality for one Schmidt decomposition.

    Each left vector lives on factors (1, 2) and contributes the entropy
    of its factor-1 marginal; each right vector lives on (3, 4) and
    contributes the entropy of its factor-3 marginal, weighted by the
    Schmidt coefficient.
    """
    if dec.split != ADDITIVITY_SPLIT:
        raise InputError(
            f"the inequality is stated for the split {ADDITIVITY_SPLIT.left} | "
            f"{ADDITIVITY_SPLIT.right}, got {dec.split.left} | {dec.split.right}"
        )
    return _rhs(dec.coefficients, dec.left, dec.right, dec.shape.dims, log_base)


def bn_gap(
    s: FourFactorState,
    dec: SchmidtDecomposition,
    log_base: str = "e",
    residual_tol: float = RESIDUAL_TOL,
    source: str = "custom",
    descriptor: str = "",
) -> GapReport:
    """Evaluate both sides of the inequality and their gap.

    The decomposition must actually decompose ``s`` (verification score at
    most ``residual_tol``, which must be finite), otherwise the comparison
    is meaningless and an :class:`InputError` is raised.
    """
    if not math.isfinite(residual_tol):
        raise InputError(f"residual_tol must be finite, got {residual_tol!r}")
    score = verify_decomposition(s.state, dec)
    if not (score <= residual_tol):
        raise InputError(
            f"decomposition does not reproduce the state (worst violation "
            f"{score:.3e} > {residual_tol})"
        )
    lhs = bn_lhs(s, log_base)
    rhs = bn_rhs(dec, log_base)
    return GapReport(
        lhs=lhs,
        rhs=rhs,
        gap=lhs - rhs,
        log_base=log_base,
        decomposition_source=source,
        state_descriptor=descriptor,
    )


def _check_dim(d: int) -> int:
    d = int(d)
    if d < 2:
        raise InputError(f"local dimension must be at least 2, got {d}")
    return d


def canonical_counterexample(d: int) -> FourFactorState:
    """The maximally entangled four-factor state that breaks the inequality.

    Amplitude 1/d on every basis label of the form (i, k, i, k), zero
    elsewhere: factor 1 is perfectly correlated with factor 3, and factor
    2 with factor 4, so Alice's marginal on {1, 3} is pure and the
    left-hand side vanishes.
    """
    d = _check_dim(d)
    shape = FactorShape((d, d, d, d))
    amps = np.zeros(shape.total_dimension, dtype=np.complex128)
    for i in range(d):
        for k in range(d):
            amps[flatten_index((i, k, i, k), shape)] = 1.0 / d
    return FourFactorState(PureState(shape, amps))


def bell_basis(d: int) -> tuple[PureState, ...]:
    """The d^2 generalized Bell vectors on C^d (x) C^d.

    Entry (m, n), stored at index m*d + n, is
    ``(1/sqrt(d)) sum_j omega^(j*m) e_j (x) e_(j+n mod d)`` with
    ``omega = exp(2 pi i / d)``.  Every member is maximally entangled, the
    family is orthonormal, and it is closed under complex conjugation in
    the computational basis.
    """
    d = _check_dim(d)
    shape = FactorShape((d, d))
    omega = np.exp(2j * np.pi / d)
    out = []
    for m in range(d):
        for n in range(d):
            amps = np.zeros(d * d, dtype=np.complex128)
            for j in range(d):
                amps[j * d + (j + n) % d] = omega ** (j * m) / math.sqrt(d)
            out.append(PureState(shape, amps))
    return tuple(out)


def product_basis(d: int) -> tuple[PureState, ...]:
    """Computational product basis e_i (x) e_k of C^d (x) C^d, index i*d + k."""
    d = _check_dim(d)
    shape = FactorShape((d, d))
    out = []
    for i in range(d * d):
        amps = np.zeros(d * d, dtype=np.complex128)
        amps[i] = 1.0
        out.append(PureState(shape, amps))
    return tuple(out)


def product_decomposition(d: int) -> SchmidtDecomposition:
    """Schmidt form of the canonical state built from product vectors.

    Every vector is unentangled, so the right-hand side of the inequality
    evaluates to zero for this choice.
    """
    state = canonical_counterexample(d).state
    return decomposition_from_basis(state, ADDITIVITY_SPLIT, product_basis(d))


def entangled_decomposition(d: int) -> SchmidtDecomposition:
    """Schmidt form of the canonical state built from Bell vectors.

    Same state, same coefficients as :func:`product_decomposition`, but
    every vector is maximally entangled, so the right-hand side evaluates
    to 2 log d instead of zero.
    """
    state = canonical_counterexample(d).state
    return decomposition_from_basis(state, ADDITIVITY_SPLIT, bell_basis(d))


def deformed_counterexample(
    d: int, eps: float
) -> tuple[FourFactorState, SchmidtDecomposition]:
    """Deform the canonical state so its Schmidt decomposition is unique.

    The flat coefficients 1/D (D = d^2) are tilted to
    ``lambda_a = (1 + eps * t_a) / D`` with ``t_a = (2a - D + 1) / D``:
    an exactly normalized, strictly decreasing spectrum once sorted.  The
    state ``sum_a sqrt(lambda_a) Phi_a (x) conj(Phi_a)`` over the Bell
    basis then has a unique Schmidt form whose vectors are all maximally
    entangled, pinning the right-hand side at 2 log d while the left-hand
    side stays near zero for small eps.

    Returns the state together with its (designated) Schmidt form.
    """
    d = _check_dim(d)
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise InputError(f"eps must lie strictly between 0 and 1, got {eps!r}")
    big_d = d * d
    tilt = (2.0 * np.arange(big_d) - big_d + 1.0) / big_d
    lam = (1.0 + eps * tilt) / big_d
    lam = lam[::-1].copy()  # descending
    left = np.column_stack([v.amplitudes for v in bell_basis(d)])
    right = np.conj(left)
    shape = FactorShape((d, d, d, d))
    amps = (left * np.sqrt(lam)) @ right.T
    state = FourFactorState(PureState.normalized(shape, amps))
    dec = SchmidtDecomposition(ADDITIVITY_SPLIT, lam, left, right, shape)
    return state, dec


def _givens(theta: float, phi: float) -> np.ndarray:
    """Two-index complex rotation: unitary mixing of one column pair."""
    c = math.cos(theta)
    s = math.sin(theta)
    e = np.exp(1j * phi)
    return np.array([[c, -s * np.conj(e)], [s * e, c]], dtype=np.complex128)


def _golden_section(f, lo: float, hi: float, iterations: int = 28) -> tuple[float, float]:
    """Maximize ``f`` on [lo, hi]; returns (argmax, value)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iterations):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
    if f1 >= f2:
        return x1, f1
    return x2, f2


def _line_search(f, lo: float, hi: float, coarse: int = 8) -> tuple[float, float]:
    """Coarse grid scan followed by golden-section refinement of the best
    bracket; tolerates the multimodal slices that block rotations produce."""
    xs = np.linspace(lo, hi, coarse + 1)
    vals = [f(float(x)) for x in xs]
    best = int(np.argmax(vals))
    a = float(xs[max(best - 1, 0)])
    b = float(xs[min(best + 1, coarse)])
    x, v = _golden_section(f, a, b)
    if vals[best] > v:
        return float(xs[best]), vals[best]
    return x, v


def maximize_rhs(
    s: FourFactorState,
    restarts: int = 20,
    sweeps: int = 50,
    seed: int = 0,
    log_base: str = "e",
) -> tuple[SchmidtDecomposition, GapReport]:
    """Search the Schmidt freedom of ``s`` for a large right-hand side.

    Starts from the SVD decomposition across the {1,2} | {3,4} split and
    explores the unitary freedom of each degenerate coefficient block:
    ``restarts`` Haar-random block unitaries seed the search (the best
    start wins, ties to the lowest index), then ``sweeps`` passes of
    greedy two-index rotations refine it, choosing rotation angle and
    phase by a coarse-grid-plus-golden-section line search on the
    objective.  A pass that improves the objective by less than 1e-12
    ends the refinement early.

    Never returns a worse decomposition than the SVD start.  States with
    no degenerate block have no freedom and come back unchanged.  The
    report's source tag is "rotated" when any freedom was explored and
    "svd" otherwise; its descriptor records the budget actually used.
    """
    from .sampling import derive_seed, haar_unitary

    restarts = int(restarts)
    sweeps = int(sweeps)
    if restarts < 0 or sweeps < 0:
        raise InputError("restarts and sweeps must be nonnegative")
    dec0 = schmidt_decompose(s.state, ADDITIVITY_SPLIT)
    blocks = degenerate_blocks(dec0.coefficients)
    lam = dec0.coefficients

    def evaluate(lmat: np.ndarray, rmat: np.ndarray) -> float:
        return _rhs(lam, lmat, rmat, dec0.shape.dims, log_base)

    l0 = dec0.left
    r0 = dec0.right
    initial = evaluate(l0, r0)
    wide_blocks = [b for b in blocks if len(b) > 1]
    if not wide_blocks:
        report = bn_gap(s, dec0, log_base, source="svd", descriptor="no degenerate freedom")
        return dec0, report

    def apply_blocks(unitaries) -> tuple[np.ndarray, np.ndarray]:
        lmat = l0.copy()
        rmat = r0.copy()
        for b, u in zip(wide_blocks, unitaries):
            cols = list(b)
            lmat[:, cols] = l0[:, cols] @ u
            rmat[:, cols] = r0[:, cols] @ np.conj(u)
        return lmat, rmat

    best_l, best_r = l0, r0
    best_val = initial
    for r in range(restarts):
        unitaries = [
            haar_unitary(len(b), derive_seed(seed, r * len(wide_blocks) + bi))
            for bi, b in enumerate(wide_blocks)
        ]
        lmat, rmat = apply_blocks(unitaries)
        val = evaluate(lmat, rmat)
        if val > best_val + 1e-15:
            best_l, best_r, best_val = lmat, rmat, val

    sweeps_used = 0
    cur_l = best_l.copy()
    cur_r = best_r.copy()
    cur_val = best_val
    for _ in range(sweeps):
        sweeps_used += 1
        pass_start = cur_val
        for b in wide_blocks:
            for ia in range(len(b)):
                for ib in range(ia + 1, len(b)):
                    i, j = b[ia], b[ib]

                    def rotated(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
                        g = _givens(theta, phi)
                        lmat = cur_l.copy()
                        rmat = cur_r.copy()
                        lmat[:, [i, j]] = cur_l[:, [i, j]] @ g
                        rmat[:, [i, j]] = cur_r[:, [i, j]] @ np.conj(g)
                        return lmat, rmat

                    theta, _ = _line_search(
                        lambda t: evaluate(*rotated(t, 0.0)), -math.pi / 2, math.pi / 2
                    )
                    phi, _ = _line_search(
                        lambda p: evaluate(*rotated(theta, p)), -math.pi, math.pi
                    )
                    lmat, rmat = rotated(theta, phi)
                    val = evaluate(lmat, rmat)
                    if val > cur_val:
                        cur_l, cur_r, cur_val = lmat, rmat, val
        if cur_val - pass_start < 1e-12:
            break

    if cur_val > best_val:
        best_l, best_r, best_val = cur_l, cur_r, cur_val

    best_dec = replace(dec0, left=best_l, right=best_r)
    descriptor = f"restarts={restarts} sweeps_used={sweeps_used}/{sweeps}"
    report = bn_gap(s, best_dec, log_base, source="rotated", descriptor=descriptor)
    return best_dec, report
