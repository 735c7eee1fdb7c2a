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
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import InputError
from .schmidt import (
    BipartiteSplit,
    _arranged,
    SchmidtDecomposition,
    degenerate_blocks,
    schmidt_decompose,
    verify_decomposition,
)
from .spectra import entanglement_entropy, entanglement_entropy_grad
from .tensor import FactorShape, PureState
from .tolerances import (
    GRAD_TOL,
    MAX_SEARCH_WORK,
    RESIDUAL_TOL,
    STACK_ELEMENTS,
    START_TIE_TOL,
)

#: The bipartition across which Schmidt decompositions are taken.
ADDITIVITY_SPLIT = BipartiteSplit((1, 2), (3, 4))


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
    """One evaluation of the inequality: lhs, rhs, and gap = lhs - rhs, in nats.

    ``gap < 0`` certifies a violation for the decomposition used, and
    ``residual`` is its verification score, which :func:`bn_gap` gated on.
    ``decomposition_source`` names its origin (svd, product, entangled,
    deformed, rotated or custom); ``state_descriptor`` describes the state.
    """

    lhs: float
    rhs: float
    gap: float
    residual: float
    decomposition_source: str
    state_descriptor: str


def _lhs(amps: np.ndarray, shape: FactorShape) -> np.ndarray:
    """:func:`bn_lhs` of each state in a stack (n, D) of amplitude vectors."""
    return entanglement_entropy(_arranged(amps, shape, BipartiteSplit((1, 3), (2, 4))))


def _rhs(lam: np.ndarray, left: np.ndarray, right: np.ndarray, dims) -> np.ndarray:
    """:func:`bn_rhs` of each decomposition in a stack: coefficients
    (n, k), left vectors (n, d1*d2, k) and right vectors (n, d3*d4, k)."""
    n, k = lam.shape
    d1, d2, d3, d4 = dims
    s_left = entanglement_entropy(left.swapaxes(-1, -2).reshape(n, k, d1, d2))
    s_right = entanglement_entropy(right.swapaxes(-1, -2).reshape(n, k, d3, d4))
    # One dot product per row through matmul, which sums as ``lam @ s`` does.
    return (lam[:, None, :] @ (s_left + s_right)[:, :, None])[:, 0, 0]


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
    return float(_rhs(dec.coefficients[None], dec.left[None], dec.right[None], dec.shape.dims)[0])


def bn_gap(
    s: FourFactorState, dec: SchmidtDecomposition, source: str = "custom", descriptor: str = ""
) -> GapReport:
    """Evaluate both sides of the inequality and their gap.

    The decomposition must actually decompose ``s`` (verification score at
    most ``RESIDUAL_TOL``), otherwise the comparison is meaningless and an
    :class:`InputError` is raised.
    """
    score = verify_decomposition(s.state, dec)
    if not (score <= RESIDUAL_TOL):
        raise InputError(
            f"decomposition does not reproduce the state (worst violation "
            f"{score:.3e} > {RESIDUAL_TOL})"
        )
    lhs = bn_lhs(s)
    rhs = bn_rhs(dec)
    return GapReport(lhs, rhs, lhs - rhs, score, source, descriptor)


def _check_dim(d: int) -> int:
    """A local dimension d >= 2 whose (d, d, d, d) shape the package
    accepts, checked before any array of that size is allocated."""
    d = int(d)
    if d < 2:
        raise InputError(f"local dimension must be at least 2, got {d}")
    FactorShape((d,) * 4)
    return d


def canonical_counterexample(d: int) -> FourFactorState:
    """The maximally entangled four-factor state that breaks the inequality.

    Amplitude 1/d on every basis label of the form (i, k, i, k), zero
    elsewhere: factor 1 is perfectly correlated with factor 3, and factor
    2 with factor 4, so Alice's marginal on {1, 3} is pure and the
    left-hand side vanishes.
    """
    d = _check_dim(d)
    eye = np.eye(d)
    amps = np.einsum("ij,kl->ikjl", eye, eye) / d
    return FourFactorState(PureState(FactorShape((d, d, d, d)), amps))


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
    dec = _conjugate_form(bell_basis(d), lam)
    amps = (dec.left * np.sqrt(lam)) @ dec.right.T
    state = FourFactorState(PureState.normalized(dec.shape, amps))
    return state, dec


def _rhs_ascent(
    lam: np.ndarray, left: np.ndarray, right: np.ndarray, dims: tuple[int, ...], mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """The rhs of the (D x rank) columns ``left`` and ``right``, and
    its Riemannian gradient G for left -> left e^X, right -> right conj(e^X):
    d rhs = Re tr(G^H X) for skew-Hermitian X that vanish outside ``mask``."""
    d1, d2, d3, d4 = dims
    k = lam.size
    s_left, g_left = entanglement_entropy_grad(left.T.reshape(k, d1, d2))
    s_right, g_right = entanglement_entropy_grad(right.T.reshape(k, d3, d4))
    e = left.conj().T @ (g_left.reshape(k, -1).T * lam)
    e += np.conj(right.conj().T @ (g_right.reshape(k, -1).T * lam))
    return float(lam @ (s_left + s_right)), np.where(mask, 0.5 * (e - e.conj().T), 0.0)


def _ascend(
    lam: np.ndarray, lmat: np.ndarray, rmat: np.ndarray, dims: tuple[int, ...], mask: np.ndarray,
    sweeps: int,
) -> tuple[np.ndarray, np.ndarray, int, str]:
    """The Riemannian gradient ascent of :func:`maximize_rhs` from the
    columns ``lmat`` and ``rmat``: the final columns, the steps used and
    the stop reason ("converged" or "budget")."""
    value, grad = _rhs_ascent(lam, lmat, rmat, dims, mask)
    eye = np.eye(lam.size)
    step, used, stop = 1.0, 0, "converged"
    while (norm2 := float(np.vdot(grad, grad).real)) > GRAD_TOL**2:
        if used == sweeps:
            stop = "budget"
            break
        used += 1
        # Cayley retraction with Armijo backtracking; a step that moves W
        # by less than roundoff means no ascent is possible from here.
        while step * math.sqrt(norm2) > 1e-15:
            q = np.linalg.solve(eye - 0.5 * step * grad, eye + 0.5 * step * grad)
            trial = (lmat @ q, rmat @ np.conj(q))
            t_value, t_grad = _rhs_ascent(lam, *trial, dims, mask)
            if t_value >= value + 1e-4 * step * norm2:
                break
            step *= 0.5
        else:
            break
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
        (lmat, rmat), value, grad = trial, t_value, t_grad
    return lmat, rmat, used, stop


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
    block-diagonal over the blocks.  ``restarts`` Haar-random block
    unitaries seed the search.  The SVD start and the restarts are scored
    together, by value only, as stacks of at most ``STACK_ELEMENTS``
    entries; the best start wins, and a later start must beat it by more
    than ``START_TIE_TOL``, so ties go to the lowest index.  A Riemannian
    gradient ascent on W then refines the winner, the only start whose
    gradient is computed.  Each ascent step, at most ``sweeps`` of them,
    moves along the gradient by a Cayley retraction; the step length is
    Barzilai-Borwein, halved until the step ascends by the Armijo rule.
    The ascent stops as "converged" when the gradient norm is at most
    ``GRAD_TOL`` or when no step ascends, and as "budget" when all
    ``sweeps`` steps are used.  "converged" means a stationary point, not
    a certified maximum: on the canonical family the SVD start is a
    product basis where the gradient vanishes, so ``restarts=0`` stops
    there at rhs 0.

    Every accepted step ascends, so the result is never worse than the
    SVD start.  States with no degenerate block have no freedom and come
    back unchanged.  The report's source tag is "rotated" when any freedom
    was explored and "svd" otherwise; its descriptor records the steps
    used and the stop reason.  A search whose estimated work exceeds
    ``MAX_SEARCH_WORK`` raises :class:`InputError` before it starts.
    """
    from .sampling import _haar_unitaries, derive_seed

    restarts, sweeps = int(restarts), int(sweeps)
    if restarts < 0 or sweeps < 0:
        raise InputError("restarts and sweeps must be nonnegative")
    dims = s.state.shape.dims
    d1, d2, d3, d4 = dims
    work = (restarts + sweeps) * min(d1 * d2, d3 * d4) ** 2 * (d1 * d2 + d3 * d4)
    if work > MAX_SEARCH_WORK:
        raise InputError(
            f"maximize on dims {dims} with {restarts} restarts and {sweeps} sweeps exceeds the "
            f"work limit (restarts + sweeps) * rank^2 * (d1*d2 + d3*d4) <= {MAX_SEARCH_WORK:.0e}"
        )
    dec0 = schmidt_decompose(s.state, ADDITIVITY_SPLIT)
    wide_blocks = [b for b in degenerate_blocks(dec0.coefficients) if len(b) > 1]
    if not wide_blocks:
        report = bn_gap(s, dec0, source="svd", descriptor="no degenerate freedom")
        return dec0, report
    lam = dec0.coefficients
    k = lam.size
    mask = np.zeros((k, k), dtype=bool)
    for b in wide_blocks:
        mask[np.ix_(b, b)] = True

    # Stack index 0 is the SVD start (W = 1) and index r + 1 is restart r.
    # Every start is scored by value only; a later start wins only by more
    # than START_TIE_TOL, so starts equal up to roundoff go to the lowest
    # index.  A start holds W, L W and R conj(W), k * (k + d1*d2 + d3*d4)
    # entries.
    chunk = max(1, STACK_ELEMENTS // (k * (k + d1 * d2 + d3 * d4)))
    best, value = 0, 0.0
    for start in range(0, restarts + 1, chunk):
        end = min(start + chunk, restarts + 1)
        first = max(start, 1)
        w = np.zeros((end - start, k, k), dtype=np.complex128)
        w[:, range(k), range(k)] = 1.0
        for bi, b in enumerate(wide_blocks):
            seeds = [derive_seed(seed, (i - 1) * len(wide_blocks) + bi) for i in range(first, end)]
            w[first - start:, b[0]:b[-1] + 1, b[0]:b[-1] + 1] = _haar_unitaries(len(b), seeds)
        lams = np.broadcast_to(lam, (end - start, k))
        values = _rhs(lams, dec0.left @ w, dec0.right @ np.conj(w), dims)
        for i, t_value in enumerate(values.tolist(), start):
            if i == 0 or t_value > value + START_TIE_TOL:
                best, value, best_w = i, t_value, w[i - start]
    lmat, rmat = dec0.left, dec0.right
    if best:
        lmat, rmat = lmat @ best_w, rmat @ np.conj(best_w)
    lmat, rmat, used, stop = _ascend(lam, lmat, rmat, dims, mask, sweeps)
    best_dec = replace(dec0, left=lmat, right=rmat)
    descriptor = f"restarts={restarts} sweeps_used={used}/{sweeps} stop={stop}"
    report = bn_gap(s, best_dec, source="rotated", descriptor=descriptor)
    return best_dec, report
