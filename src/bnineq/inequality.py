"""The Benatti-Narnhofer entanglement entropy inequality on four-factor
pure states, and the family of states that violates it.

For a pure state on H_1 (x) H_2 (x) H_3 (x) H_4, with Alice holding
factors 1 and 3 and Bob holding 2 and 4, the inequality claims

    S(rho_13)  >=  sum_a lambda_a [ S(tr_2 |l_a><l_a|) + S(tr_4 |r_a><r_a|) ]

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
from dataclasses import dataclass

import numpy as np

from .schmidt import (
    BipartiteSplit,
    _arranged,
    _haar_unitaries,
    _rng,
    _schmidt_arrays,
    _schmidt_stack,
    _verify_stack,
    SchmidtDecomposition,
    degenerate_blocks,
    verify_decomposition,
)
from .spectra import entanglement_entropy, entanglement_entropy_grad
from .tensor import FactorShape, InputError, PureState, _as_int, _lapack, _stacks
from .tolerances import (
    GRAD_TOL,
    MAX_SEARCH_WORK,
    RESIDUAL_TOL,
    START_TIE_TOL,
)

__all__ = [
    "ADDITIVITY_SPLIT", "FourFactorState", "GapReport", "bn_lhs", "bn_rhs", "bn_gap",
    "canonical_counterexample", "bell_basis", "product_decomposition", "entangled_decomposition",
    "deformed_counterexample", "maximize_rhs",
]

#: The bipartition across which Schmidt decompositions are taken.
ADDITIVITY_SPLIT = BipartiteSplit((1, 2), (3, 4))
#: The parties' split, Alice {1, 3} | Bob {2, 4}, across which ``bn_lhs`` is taken.
_PARTY_SPLIT = BipartiteSplit((1, 3), (2, 4))


@dataclass(frozen=True, eq=False)
class FourFactorState:
    """A pure state on exactly four tensor factors, with the fixed party
    assignment Alice = {1, 3}, Bob = {2, 4}."""

    state: PureState

    def __post_init__(self) -> None:
        if not isinstance(self.state, PureState):
            raise InputError(f"expected a PureState, got {type(self.state).__name__}")
        if self.state.shape.n_factors != 4:
            raise InputError(
                f"expected a 4-factor state, got {self.state.shape.n_factors} factors"
            )


@dataclass(frozen=True, eq=False)
class GapReport:
    """One evaluation of the inequality: lhs, rhs, and gap = lhs - rhs, in nats.

    ``gap < 0`` certifies a violation for the decomposition used, and
    ``residual`` is its verification score, which passed the residual gate.
    ``decomposition_source`` names its origin.  The package sets three tags:
    "svd" (``bnineq check``, and :func:`maximize_rhs` with no degenerate
    freedom), "rotated" (a search by :func:`maximize_rhs`) and "custom" (the
    default of :func:`bn_gap`); any other tag, such as the README's
    "entangled" or "deformed", is the caller's own label.  Only
    :func:`maximize_rhs` sets ``state_descriptor`` and ``initial_rhs``, to
    its search record and to the rhs of its SVD start.
    """

    lhs: float
    rhs: float
    gap: float
    residual: float
    decomposition_source: str
    state_descriptor: str = ""
    initial_rhs: float | None = None


def _lhs(amps: np.ndarray, shape: FactorShape) -> np.ndarray:
    """:func:`bn_lhs` of each state in a stack (n, D) of amplitude vectors."""
    return entanglement_entropy(_arranged(amps, shape, _PARTY_SPLIT))


def _sides(left: np.ndarray, right: np.ndarray, dims) -> np.ndarray:
    """Left vectors (..., d1*d2, k) as (d1 x d2) and right vectors (..., d3*d4, k)
    as (d3 x d4) matrices in one stack (..., 2k, max(d1, d3), max(d2, d4)),
    zero-padded, which is exact: zero rows and columns add zero singular values."""
    d1, d2, d3, d4 = dims
    *lead, _, k = left.shape
    out = np.zeros((*lead, 2 * k, max(d1, d3), max(d2, d4)), np.result_type(left, right))
    out[..., :k, :d1, :d2] = left.swapaxes(-1, -2).reshape(*lead, k, d1, d2)
    out[..., k:, :d3, :d4] = right.swapaxes(-1, -2).reshape(*lead, k, d3, d4)
    return out


def _rhs(lam: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """:func:`bn_rhs` of each decomposition in a stack: coefficients (n, k),
    or one (k,) vector for every row, and :func:`_sides` stacks
    (n, 2k, m, n'), both sides in one :func:`entanglement_entropy` call."""
    k = lam.shape[-1]
    s = entanglement_entropy(sides)
    # One dot product per row through matmul, which sums as ``lam @ s`` does.
    return (lam[..., None, :] @ (s[:, :k] + s[:, k:])[:, :, None])[:, 0, 0]


def bn_lhs(s: FourFactorState) -> float:
    """Entropy of Alice's marginal, S(tr_24 |psi><psi|), in nats.

    For a pure state this is the entanglement entropy across
    {1,3} | {2,4}, read off the (d1*d3 x d2*d4) reshape of psi.
    """
    return float(_lhs(s.state.amplitudes[None], s.state.shape)[0])


def bn_rhs(dec: SchmidtDecomposition) -> float:
    """Right-hand side of the inequality for one Schmidt decomposition, in nats.

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
    sides = _sides(dec.left[None], dec.right[None], dec.shape.dims)
    return float(_rhs(dec.coefficients, sides)[0])


def _refusal(score: float) -> str | None:
    """The residual gate: None for a verification score of at most
    ``RESIDUAL_TOL``, else the refusal text (a NaN score is refused).  The
    one place that applies the gate, for :func:`bn_gap`, :func:`_svd_gaps`
    and :func:`maximize_rhs`."""
    if not score <= RESIDUAL_TOL:
        gate = f"verification score {score:.3e} > {RESIDUAL_TOL}"
        return f"decomposition does not reproduce the state ({gate})"
    return None


def bn_gap(s: FourFactorState, dec: SchmidtDecomposition, source: str = "custom") -> GapReport:
    """Evaluate both sides of the inequality and their gap.

    The decomposition must actually decompose ``s`` (verification score at
    most ``RESIDUAL_TOL``), otherwise the comparison is meaningless and an
    :class:`InputError` is raised.
    """
    score = verify_decomposition(s.state, dec)
    if refusal := _refusal(score):
        raise InputError(refusal)
    lhs = bn_lhs(s)
    rhs = bn_rhs(dec)
    return GapReport(lhs, rhs, lhs - rhs, score, source)


def _svd_gaps(amps: np.ndarray, shape: FactorShape) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """lhs and rhs of each state in a stack (n, D) of amplitude vectors with
    its SVD decomposition across ``ADDITIVITY_SPLIT``, and the residual
    gate's refusal of each row that it refuses, by row: the kernels of
    :func:`bn_gap` over :func:`schmidt_decompose`, one call each for the
    whole stack, so each row equals that evaluation, refusal included.  A
    refused row's lhs and rhs are NaN."""
    m = _arranged(amps, shape, ADDITIVITY_SPLIT)
    lam, left, right = _schmidt_stack(m)
    lhs, rhs = _lhs(amps, shape), _rhs(lam, _sides(left, right, shape.dims))
    scores = _verify_stack(m, lam, left, right).tolist()
    refused = {i: text for i, score in enumerate(scores) if (text := _refusal(score))}
    lhs[list(refused)] = rhs[list(refused)] = np.nan
    return lhs, rhs, refused


def _check_dim(d: int) -> int:
    """A local dimension d >= 2 whose (d, d, d, d) shape the package
    accepts, checked before any array of that size is allocated."""
    d = _as_int(d, "local dimension", 2)
    FactorShape((d,) * 4)
    return d


def canonical_counterexample(d: int) -> FourFactorState:
    """The maximally entangled four-factor state that breaks the inequality.

    The identity across {1,2} | {3,4} over d: amplitude 1/d on every basis
    label (i, k, i, k), zero elsewhere.  Factor 1 is perfectly correlated
    with factor 3, and factor 2 with factor 4, so Alice's marginal on
    {1, 3} is pure and the left-hand side vanishes.
    """
    d = _check_dim(d)
    return FourFactorState(PureState(FactorShape((d, d, d, d)), np.eye(d * d) / d))


def bell_basis(d: int) -> np.ndarray:
    """The d^2 generalized Bell vectors on C^d (x) C^d, as the columns of a
    (d^2 x d^2) unitary matrix.

    Column m*d + n is
    ``Phi_mn = (1/sqrt(d)) sum_j omega^(j*m) e_j (x) e_(j+n mod d)`` with
    ``omega = exp(2 pi i / d)``.  Every member is maximally entangled, the
    family is orthonormal, and it is closed under complex conjugation in
    the computational basis.
    """
    d = _check_dim(d)
    omega = np.exp(2j * np.pi / d)
    j, m, n = np.ogrid[:d, :d, :d]
    basis = np.zeros((d, d, d, d), dtype=np.complex128)
    basis[j, (j + n) % d, m, n] = omega ** (j * m) / math.sqrt(d)
    return basis.reshape(d * d, d * d)


def _conjugate_form(basis: np.ndarray, lam: np.ndarray) -> SchmidtDecomposition:
    """The Schmidt form ``sum_a sqrt(lam_a) B_a (x) conj(B_a)`` across
    {1,2} | {3,4}, with B_a the columns of the (d^2 x d^2) unitary ``basis``."""
    d = math.isqrt(len(basis))
    return SchmidtDecomposition(
        ADDITIVITY_SPLIT, lam, basis, np.conj(basis), FactorShape((d, d, d, d))
    )


def product_decomposition(d: int) -> SchmidtDecomposition:
    """Schmidt form of the canonical state built from product vectors.

    The canonical state is ``(1/d) sum_a B_a (x) conj(B_a)`` for every
    unitary B; here B is the identity, so every vector is unentangled and
    the right-hand side of the inequality evaluates to zero.
    """
    d = _check_dim(d)
    return _conjugate_form(np.eye(d * d), np.full(d * d, 1.0 / (d * d)))


def entangled_decomposition(d: int) -> SchmidtDecomposition:
    """Schmidt form of the canonical state built from Bell vectors.

    Same state, same coefficients as :func:`product_decomposition`, with B
    the :func:`bell_basis`: every vector is maximally entangled, so the
    right-hand side evaluates to 2 log d instead of zero.
    """
    d = _check_dim(d)
    return _conjugate_form(bell_basis(d), np.full(d * d, 1.0 / (d * d)))


def deformed_counterexample(
    d: int, eps: float
) -> tuple[FourFactorState, SchmidtDecomposition]:
    """Deform the canonical state so its Schmidt decomposition is unique.

    The flat coefficients 1/D (D = d^2) are tilted to
    ``lambda_a = (1 + eps * t_a) / D`` with ``t_a = (D - 1 - 2a) / D``:
    an exactly normalized, non-increasing spectrum.  It is strictly
    decreasing only while the tilt survives rounding: eps = 1e-300 gives
    four equal floats at d = 2.  The state
    ``sum_a sqrt(lambda_a) Phi_a (x) conj(Phi_a)`` over the Bell basis
    has a Schmidt form whose vectors are all maximally entangled, pinning
    the right-hand side at 2 log d while the left-hand side stays near
    zero for small eps.  That form is unique in the sense of
    :func:`degenerate_blocks`, every block a single coefficient, once the
    square roots of neighbouring coefficients differ by more than its
    derived step: for eps above about 6.7e-10 at d = 2 and 5.6e-10 at
    d = 3.  Below that, the tilt is smaller than the residual gate can
    resolve, and the coefficients form one block.

    Returns the state together with its (designated) Schmidt form.
    """
    d = _check_dim(d)
    try:
        value = np.asarray(eps)
    except ValueError:  # a ragged sequence
        value = None
    # Refuses strings, bytes, bools, complex values, None and arrays.
    if value is None or value.ndim != 0 or value.dtype.kind not in "iuf":
        raise InputError(f"eps must be a real number, got {eps!r}")
    eps = float(value)
    if not 0.0 < eps < 1.0:
        raise InputError(f"eps must lie strictly between 0 and 1, got {eps!r}")
    big_d = d * d
    tilt = (big_d - 1.0 - 2.0 * np.arange(big_d)) / big_d
    lam = (1.0 + eps * tilt) / big_d
    dec = _conjugate_form(bell_basis(d), lam)
    amps = (dec.left * np.sqrt(lam)) @ dec.right.T
    state = FourFactorState(PureState.normalized(dec.shape, amps))
    return state, dec


def _rhs_ascent(lam: np.ndarray, sides: np.ndarray, mask: np.ndarray) -> tuple[float, np.ndarray]:
    """The rhs of a :func:`_sides` stack (2k, m, n) of L W and R conj(W), and
    its Riemannian gradient G for W -> W e^X: d rhs = Re tr(G^H X) for
    skew-Hermitian X that vanish outside ``mask``.  Both sides go through
    one :func:`entanglement_entropy_grad` call and one batched projection
    ``conj(S) @ G^T``; the padding is 0 in S, so it adds nothing."""
    k = lam.size
    s, g = entanglement_entropy_grad(sides)
    e = np.conj(sides.reshape(2, k, -1)) @ g.reshape(2, k, -1).swapaxes(-1, -2)
    e = (e[0] + np.conj(e[1])) * lam
    return float(lam @ (s[:k] + s[k:])), np.where(mask, 0.5 * (e - e.conj().T), 0.0)


def _rotated(sides: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The :func:`_sides` stack of L q, R conj(q) from the stack (2k, m, n) of
    L, R, for one q (k, k) or a stack of them (..., k, k); padding stays 0."""
    qt = q.swapaxes(-1, -2)[..., None, :, :]
    rotated = np.concatenate((qt, qt.conj()), axis=-3) @ sides.reshape(2, q.shape[-1], -1)
    return rotated.reshape(*q.shape[:-2], *sides.shape)


def _ascend(objective, sides: np.ndarray, sweeps: int) -> tuple[np.ndarray, int, str]:
    """The ascent of :func:`maximize_rhs` on ``objective(stack) -> (value,
    masked gradient)`` from the :func:`_sides` stack ``sides``: the final
    stack, the accepted steps and the stop reason, "converged" (gradient
    norm at most ``GRAD_TOL``), "stalled" (no step length ascends) or
    "budget" (all ``sweeps`` used)."""
    value, grad = objective(sides)
    eye = np.zeros(grad.shape)
    eye.flat[:: len(grad) + 1] = 1.0
    step, used = 1.0, 0
    while (norm2 := float(np.vdot(grad, grad).real)) > GRAD_TOL**2:
        if used == sweeps:
            return sides, used, "budget"
        # Cayley retraction with Armijo backtracking; a step that moves W
        # by less than roundoff means no ascent is possible from here.
        while step * math.sqrt(norm2) > 1e-15:
            half = 0.5 * step * grad
            trial = _rotated(sides, _lapack("solve", eye - half, eye + half))
            t_value, t_grad = objective(trial)
            if t_value >= value + 1e-4 * step * norm2:
                break
            step *= 0.5
        else:
            return sides, used, "stalled"
        used += 1
        # Barzilai-Borwein length for the next step, alternating the long and
        # the short formula; the curvature is -<s, y> as the rhs is maximised.
        s_vec, y_vec = step * grad, t_grad - grad
        curvature = -float(np.vdot(s_vec, y_vec).real)
        if curvature <= 0.0:
            step *= 2.0
        elif used % 2:
            step = float(np.vdot(s_vec, s_vec).real) / curvature
        else:
            step = curvature / float(np.vdot(y_vec, y_vec).real)
        step = min(step, 1e20)  # keeps the backtracking loop finite
        sides, value, grad = trial, t_value, t_grad
    return sides, used, "converged"


def maximize_rhs(
    s: FourFactorState,
    restarts: int = 20,
    sweeps: int = 2000,
    seed: int = 0,
) -> tuple[SchmidtDecomposition, GapReport]:
    """Search the Schmidt freedom of ``s`` for a large right-hand side.

    Starts from the SVD decomposition across the {1,2} | {3,4} split and
    explores the unitary freedom W of its degenerate coefficient blocks:
    left vectors become L W and right vectors R conj(W), with W
    block-diagonal over the blocks.  Every W rotates one zero-padded stack
    of both sides' vectors as matrices.  The SVD start and ``restarts``
    Haar-random block unitaries are scored together as rotations of that
    stack, by value only, in the stacks that ``tensor._stacks`` cuts.
    Wide block b draws its restarts in order from one generator,
    ``schmidt._rng(seed, b)``, so restart r is that stream's r-th draw
    however the starts are cut.  The best start wins, and a later start
    must beat it by more than ``START_TIE_TOL``, so ties go to the lowest
    index.  A Riemannian gradient ascent on W, ``_ascend``, then climbs
    the objective ``t -> _rhs_ascent(lam, t, mask)`` (a stack's rhs, its
    gradient masked to the wide blocks) from the winner's stack, the only
    start whose gradient is computed.  Each of at most ``sweeps`` steps is
    a Cayley retraction of Barzilai-Borwein length, halved until the step
    ascends by the Armijo rule.  It stops as "converged" at a gradient
    norm of at most ``GRAD_TOL``, as "stalled" when no step length ascends,
    and as "budget" after ``sweeps`` steps.  A "converged" or "stalled"
    stop certifies no maximum: on the canonical family the SVD start is a
    product basis where the gradient vanishes, so ``restarts=0`` stops
    there at rhs 0.

    No accepted step descends, so the result is never worse than the
    SVD start.  The blocks are those of :func:`degenerate_blocks`, so every
    W moves the decomposition by at most half of ``RESIDUAL_TOL`` and the
    result passes the residual gate.  The state is arranged once, for the
    SVD, and the report is built from the arrays the search holds: that
    matrix, the coefficients and the ascent's final stack go through the
    kernels and the gate of :func:`bn_gap`, so the report equals
    ``bn_gap(s, dec)`` of the returned ``dec``, with the two search fields
    set.  A state with no degenerate block takes the same path with the
    SVD start as its only start and no draw; its gradient is masked to
    exactly 0, so the ascent stops at once with no step, and the state
    comes back unchanged, tagged "svd" with the
    descriptor "no degenerate freedom".  Otherwise the tag is "rotated" and
    the descriptor records the restarts, the accepted steps and the stop
    reason.  ``initial_rhs`` is the SVD start's rhs in both cases.
    A search over ``MAX_SEARCH_WORK`` raises :class:`InputError` up front.
    """
    restarts, sweeps = _as_int(restarts, "restarts", 0), _as_int(sweeps, "sweeps", 0)
    seed = _as_int(seed, "seed")
    dims = s.state.shape.dims
    d1, d2, d3, d4 = dims
    work = (restarts + sweeps) * min(d1 * d2, d3 * d4) ** 2 * (d1 * d2 + d3 * d4)
    if work > MAX_SEARCH_WORK:
        raise InputError(
            f"maximize on dims {dims} with {restarts} restarts and {sweeps} sweeps exceeds the "
            f"work limit (restarts + sweeps) * rank^2 * (d1*d2 + d3*d4) <= {MAX_SEARCH_WORK:.0e}"
        )
    shape = s.state.shape
    m = _arranged(s.state.amplitudes[None], shape, ADDITIVITY_SPLIT)
    lam, left, right = _schmidt_arrays(m)
    k = lam.size
    wide_blocks = [b for b in degenerate_blocks(lam) if len(b) > 1]
    mask = np.zeros((k, k), dtype=bool)
    for b in wide_blocks:
        mask[b[0]:b[-1] + 1, b[0]:b[-1] + 1] = True

    # Stack index 0 is the SVD start (W = 1) and index r + 1 is restart r;
    # without a wide block the SVD start is the only one.  Every start is
    # scored by value only; a later start wins only by more than
    # START_TIE_TOL, so starts equal up to roundoff go to the lowest index.
    sides = _sides(left, right, dims)
    rngs = [_rng(seed, bi) for bi in range(len(wide_blocks))]
    starts = restarts + 1 if wide_blocks else 1
    for stack in _stacks(starts, k * k + sides.size):
        w = np.zeros((stack.stop - stack.start, k, k), np.complex128)
        w.reshape(len(w), -1)[:, :: k + 1] = 1.0  # the identity in every slot
        drawn = w[1:] if stack.start == 0 else w
        for rng, b in zip(rngs, wide_blocks):
            drawn[:, b[0]:b[-1] + 1, b[0]:b[-1] + 1] = _haar_unitaries(len(b), rng, len(drawn))
        rotated = _rotated(sides, w)
        for i, t_value in enumerate(_rhs(lam, rotated).tolist(), stack.start):
            if i == 0:
                initial = t_value
            if i == 0 or t_value > value + START_TIE_TOL:
                value, best = t_value, rotated[i - stack.start]
    sides, used, stop = _ascend(lambda t: _rhs_ascent(lam, t, mask), best, sweeps)
    left = sides[:k, :d1, :d2].reshape(k, -1).T
    right = sides[k:, :d3, :d4].reshape(k, -1).T
    best_dec = SchmidtDecomposition(ADDITIVITY_SPLIT, lam, left, right, shape)
    score = float(_verify_stack(m, lam[None], best_dec.left[None], best_dec.right[None])[0])
    if refusal := _refusal(score):
        raise InputError(refusal)
    lhs, rhs = float(_lhs(s.state.amplitudes[None], shape)[0]), float(_rhs(lam, sides[None])[0])
    search = f"restarts={restarts} sweeps_used={used}/{sweeps} stop={stop}"
    source, descriptor = ("rotated", search) if wide_blocks else ("svd", "no degenerate freedom")
    return best_dec, GapReport(lhs, rhs, lhs - rhs, score, source, descriptor, initial)
