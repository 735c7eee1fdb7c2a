import collections
import itertools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bnineq import (
    ADDITIVITY_SPLIT,
    FactorShape,
    FourFactorState,
    InputError,
    PureState,
    SchmidtDecomposition,
    bell_basis,
    bn_gap,
    bn_lhs,
    bn_rhs,
    canonical_counterexample,
    deformed_counterexample,
    degenerate_blocks,
    derive_seed,
    entangled_decomposition,
    haar_state,
    haar_unitary,
    maximize_rhs,
    partial_trace_naive,
    product_decomposition,
    schmidt_decompose,
    verify_decomposition,
    von_neumann_entropy,
)
from bnineq import inequality, tensor
from bnineq.inequality import _ascend, _rhs, _rhs_ascent, _sides
from bnineq.sampling import _haar_unitaries
from bnineq.spectra import entanglement_entropy_grad
from bnineq.tolerances import GRAD_TOL, RESIDUAL_TOL, STACK_ELEMENTS, START_TIE_TOL
from helpers import apply_freedom, basis_state, kron_state, shape_id, tilted_product_state

TWO_LN_TWO = 1.3862943611198906
TWO_LN_THREE = 2.1972245773362196

# Deformation coefficients at d = 2, eps = 0.1: (1 + 0.1 * t) / 4 with
# tilt t in {3/4, 1/4, -1/4, -3/4}; exact decimals.
DEFORMED_COEFFS_01 = (0.26875, 0.25625, 0.24375, 0.23125)


def apply_single_factor_unitary(psi, position, u):
    """Act with ``u`` on one factor (test-local helper, 1-based position)."""
    grid = psi.grid()
    axis = position - 1
    rotated = np.moveaxis(np.tensordot(u, grid, axes=([1], [axis])), 0, axis)
    return PureState(psi.shape, rotated.reshape(-1))


# ---------------------------------------------------------------- canonical


def test_canonical_amplitude_layout_d2():
    s = canonical_counterexample(2)
    amps = s.state.amplitudes
    nonzero = np.nonzero(amps)[0]
    assert list(nonzero) == [0, 5, 10, 15]
    assert np.allclose(amps[nonzero], 0.5)
    assert np.linalg.norm(amps) == 1.0


@pytest.mark.parametrize("d", [2, 3])
def test_canonical_alice_marginal_is_pure(d):
    s = canonical_counterexample(d)
    # independent route: naive partial trace, then the spectrum directly
    rho = partial_trace_naive(s.state, (1, 3))
    values = np.sort(np.linalg.eigvalsh(rho.entries))[::-1]
    assert abs(values[0] - 1.0) < 1e-12
    assert np.max(np.abs(values[1:])) < 1e-12


def test_canonical_rejects_dim_below_two():
    with pytest.raises(InputError):
        canonical_counterexample(1)


def test_constructions_refuse_a_dim_past_the_size_limit():
    # 32^4 amplitudes exceed MAX_TOTAL_DIMENSION; 31^4 do not.
    for build in (canonical_counterexample, bell_basis, product_decomposition,
                  entangled_decomposition, lambda d: deformed_counterexample(d, 0.1)):
        with pytest.raises(InputError, match="exceeds the supported maximum"):
            build(32)
    assert bell_basis(31).shape == (31**2, 31**2)


def test_four_factor_state_requires_four_factors():
    for state in (haar_state(FactorShape((2, 2, 2)), 3), np.zeros(16), "x", None):
        with pytest.raises(InputError):
            FourFactorState(state)


# --------------------------------------------------------------- bell basis


def test_bell_basis_d2_members():
    basis = bell_basis(2)
    phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
    phi_minus = np.array([1, 0, 0, -1]) / np.sqrt(2)
    assert np.max(np.abs(basis[:, 0] - phi_plus)) < 1e-15  # (m, n) = (0, 0)
    assert np.max(np.abs(basis[:, 2] - phi_minus)) < 1e-15  # (m, n) = (1, 0)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_bell_basis_is_orthonormal(d):
    mat = bell_basis(d)
    assert mat.shape == (d * d, d * d)
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(d * d))) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bell_basis_members_are_maximally_entangled(d):
    from bnineq import partial_trace

    for col in bell_basis(d).T:
        s = von_neumann_entropy(partial_trace(PureState(FactorShape((d, d)), col), (1,)))
        assert abs(s - np.log(d)) < 1e-10


def test_bell_basis_closed_under_conjugation():
    d = 3
    basis = bell_basis(d)
    for m in range(d):
        for n in range(d):
            conj = np.conj(basis[:, m * d + n])
            partner = basis[:, ((d - m) % d) * d + n]
            assert np.max(np.abs(conj - partner)) < 1e-12


def loop_bell_basis(d):
    """The Bell basis built one entry at a time (test-local reference)."""
    omega = np.exp(2j * np.pi / d)
    mat = np.zeros((d * d, d * d), dtype=np.complex128)
    for m in range(d):
        for n in range(d):
            for j in range(d):
                mat[j * d + (j + n) % d, m * d + n] = omega ** (j * m) / np.sqrt(d)
    return mat


def loop_canonical_amplitudes(d):
    """Amplitude 1/d on every label (i, k, i, k) (test-local reference)."""
    shape = FactorShape((d, d, d, d))
    amps = np.zeros(shape.total_dimension, dtype=np.complex128)
    for i in range(d):
        for k in range(d):
            amps[np.ravel_multi_index((i, k, i, k), shape.dims)] = 1.0 / d
    return amps


def reversed_deformed_coefficients(d, eps):
    """The deformed coefficients with the tilt built ascending and then
    reversed (test-local reference)."""
    big_d = d * d
    tilt = (2.0 * np.arange(big_d) - big_d + 1.0) / big_d
    return ((1.0 + eps * tilt) / big_d)[::-1]


@pytest.mark.parametrize("d", range(2, 13))
def test_array_constructions_equal_the_loops_bit_for_bit(d):
    assert np.array_equal(bell_basis(d), loop_bell_basis(d))
    assert np.array_equal(canonical_counterexample(d).state.amplitudes, loop_canonical_amplitudes(d))
    for eps in (1e-9, 0.07, 0.3, 0.999):
        want = reversed_deformed_coefficients(d, eps)
        assert np.array_equal(deformed_counterexample(d, eps)[1].coefficients, want), eps


# ------------------------------------------------------------ lhs, rhs, gap


def test_lhs_of_canonical_vanishes():
    for d in (2, 3):
        assert bn_lhs(canonical_counterexample(d)) < 1e-10


def test_lhs_of_product_state_vanishes():
    e = basis_state(FactorShape((2,)), (0,))
    psi = kron_state(kron_state(e, e), kron_state(e, e))
    assert bn_lhs(FourFactorState(psi)) < 1e-12


# Non-square shapes expose a transposed reshape in the entropy kernel.
# The last three pad one side of the stacked rhs kernel with zeros.
ORACLE_SHAPES = [(2, 2, 2, 2), (3, 2, 3, 2), (2, 3, 2, 3), (2, 3, 4, 2), (2, 3, 3, 2), (2, 2, 3, 3)]


@pytest.mark.parametrize("dims", ORACLE_SHAPES, ids=shape_id)
def test_lhs_cross_checked_against_naive_oracle(dims):
    for seed in range(5):
        psi = haar_state(FactorShape(dims), 400 + seed)
        fast = bn_lhs(FourFactorState(psi))
        slow = von_neumann_entropy(partial_trace_naive(psi, (1, 3)))
        assert abs(fast - slow) < 1e-10


@pytest.mark.parametrize("dims", ORACLE_SHAPES, ids=shape_id)
def test_rhs_cross_checked_against_naive_oracle(dims):
    left_shape, right_shape = FactorShape(dims[:2]), FactorShape(dims[2:])
    for seed in range(5):
        dec = schmidt_decompose(haar_state(FactorShape(dims), 700 + seed), ADDITIVITY_SPLIT)
        slow = 0.0
        for lam, left, right in zip(dec.coefficients, dec.left.T, dec.right.T):
            s_left = von_neumann_entropy(partial_trace_naive(PureState(left_shape, left), (1,)))
            s_right = von_neumann_entropy(partial_trace_naive(PureState(right_shape, right), (1,)))
            slow += lam * (s_left + s_right)
        assert abs(bn_rhs(dec) - slow) < 1e-10


def test_lhs_invariant_under_bob_local_unitaries():
    # Alice's marginal ignores what happens on factors 2 and 4.
    psi = haar_state(FactorShape((2, 2, 2, 2)), 41)
    base = bn_lhs(FourFactorState(psi))
    for seed in range(5):
        u2 = haar_unitary(2, 500 + seed)
        u4 = haar_unitary(2, 600 + seed)
        moved = apply_single_factor_unitary(
            apply_single_factor_unitary(psi, 2, u2), 4, u4
        )
        assert abs(bn_lhs(FourFactorState(moved)) - base) < 1e-9


def test_rhs_of_product_decomposition_is_zero():
    for d in (2, 3):
        assert bn_rhs(product_decomposition(d)) < 1e-10


def test_rhs_of_entangled_decomposition():
    assert abs(bn_rhs(entangled_decomposition(2)) - TWO_LN_TWO) < 1e-9
    assert abs(bn_rhs(entangled_decomposition(3)) - TWO_LN_THREE) < 1e-9


def test_rhs_rejects_other_splits():
    from bnineq import BipartiteSplit

    psi = haar_state(FactorShape((2, 2, 2, 2)), 8)
    dec = schmidt_decompose(psi, BipartiteSplit((1, 3), (2, 4)))
    with pytest.raises(InputError):
        bn_rhs(dec)


def test_rhs_invariant_under_singleton_phases():
    _, dec = deformed_counterexample(2, 0.1)
    base = bn_rhs(dec)
    rotated = apply_freedom(dec, np.diag(np.exp(1j * (np.arange(dec.rank) + 0.7))))
    assert abs(bn_rhs(rotated) - base) < 1e-10


def test_gap_certificate_for_the_canonical_family():
    s = canonical_counterexample(2)
    report = bn_gap(s, entangled_decomposition(2), source="entangled")
    assert report.residual == verify_decomposition(s.state, entangled_decomposition(2))
    assert report.lhs < 1e-10
    assert abs(report.rhs - TWO_LN_TWO) < 1e-9
    assert abs(report.gap + TWO_LN_TWO) < 1e-9
    assert report.gap == report.lhs - report.rhs
    assert report.decomposition_source == "entangled"


def test_the_inequality_is_stated_with_ge():
    # A negative gap = lhs - rhs is a violation only of lhs >= rhs.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    stated = [line for line in readme.splitlines() if "S(&rho;_13)" in line]
    assert stated and all("&ge;" in line and "&le;" not in line for line in stated)
    assert "S(rho_13)  >=  sum_a" in inequality.__doc__
    assert bn_gap(canonical_counterexample(2), entangled_decomposition(2)).gap < 0


def test_gap_with_product_decomposition_is_zero():
    s = canonical_counterexample(2)
    report = bn_gap(s, product_decomposition(2), source="product")
    assert abs(report.gap) < 1e-9
    assert report.residual == verify_decomposition(s.state, product_decomposition(2))


def test_gap_requires_matching_decomposition():
    s = canonical_counterexample(2)
    _, other = deformed_counterexample(2, 0.2)
    with pytest.raises(InputError):
        bn_gap(s, other)


def test_gap_refuses_a_nan_verification_score(monkeypatch):
    # NaN compares false with everything, so a gate written as
    # ``score > RESIDUAL_TOL`` would let it through.
    monkeypatch.setattr(inequality, "verify_decomposition", lambda psi, dec: float("nan"))
    with pytest.raises(InputError, match=r"verification score nan > 1e-09"):
        bn_gap(canonical_counterexample(2), entangled_decomposition(2))


def test_gap_on_random_state_with_svd_decomposition():
    psi = haar_state(FactorShape((2, 2, 2, 2)), 77)
    s = FourFactorState(psi)
    dec = schmidt_decompose(psi, ADDITIVITY_SPLIT)
    report = bn_gap(s, dec, source="svd")
    assert report.residual == verify_decomposition(psi, dec)
    assert np.isfinite(report.gap)
    assert report.lhs >= -1e-10 and report.rhs >= -1e-10


# --------------------------------------------------------------- deformation


def test_deformed_coefficients_are_the_designated_decimals():
    _, dec = deformed_counterexample(2, 0.1)
    assert np.max(np.abs(dec.coefficients - np.array(DEFORMED_COEFFS_01))) < 1e-15


def test_deformed_state_recovers_its_spectrum_under_svd():
    state, dec = deformed_counterexample(2, 0.1)
    recovered = schmidt_decompose(state.state, ADDITIVITY_SPLIT)
    assert np.max(np.abs(recovered.coefficients - dec.coefficients)) < 1e-9
    # unique spectrum: every degenerate block is a singleton
    assert all(len(b) == 1 for b in degenerate_blocks(recovered.coefficients))


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_deformed_gap_stays_negative(eps):
    state, dec = deformed_counterexample(2, eps)
    report = bn_gap(state, dec, source="deformed")
    assert report.residual == verify_decomposition(state.state, dec)
    assert report.gap < -1.0  # far below zero, not marginal
    assert abs(report.rhs - TWO_LN_TWO) < 1e-9


def test_deformed_lhs_grows_with_eps():
    values = []
    for eps in (0.05, 0.1, 0.2):
        state, _ = deformed_counterexample(2, eps)
        values.append(bn_lhs(state))
    assert values[0] < values[1] < values[2]
    assert values[0] > 0.0


def test_deformed_rejects_bad_eps():
    for eps in (0.0, 1.0, -0.3, 2.0, np.nan, "0.1", "abc", b"0.1", True, None, [0.1], 0.1 + 0j,
                np.complex128(0.1), np.array([0.1]), [0.1, [0.2]]):
        with pytest.raises(InputError):
            deformed_counterexample(2, eps)


def test_deformed_coefficients_sum_to_one_exactly():
    for d, eps in [(2, 0.05), (3, 0.1)]:
        _, dec = deformed_counterexample(d, eps)
        assert abs(float(dec.coefficients.sum()) - 1.0) < 1e-12


# ----------------------------------------------------------------- maximize


def test_maximize_recovers_the_entangled_value():
    s = canonical_counterexample(2)
    dec, report = maximize_rhs(s)
    assert report.rhs >= TWO_LN_TWO - 0.01
    assert report.rhs <= TWO_LN_TWO + 1e-9
    assert verify_decomposition(s.state, dec) < 1e-9
    assert report.decomposition_source == "rotated"


def test_maximize_is_monotone_even_with_tiny_budgets():
    s = canonical_counterexample(2)
    initial = bn_rhs(schmidt_decompose(s.state, ADDITIVITY_SPLIT))
    _, report = maximize_rhs(s, restarts=2, sweeps=1, seed=5)
    assert report.initial_rhs == initial
    assert report.rhs >= initial - 1e-10


def test_maximize_zero_budget_returns_the_svd_value():
    s = canonical_counterexample(2)
    initial = bn_rhs(schmidt_decompose(s.state, ADDITIVITY_SPLIT))
    _, report = maximize_rhs(s, restarts=0, sweeps=0)
    assert report.initial_rhs == initial
    assert abs(report.rhs - initial) < 1e-12


def flat_state(d, seed):
    """Amplitude matrix U/d across {1,2} | {3,4}, U Haar on U(d^2): a flat
    Schmidt spectrum, one degenerate block, with random bases."""
    return FourFactorState(PureState(FactorShape((d,) * 4), haar_unitary(d * d, seed) / d))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("restarts", [0, 3])
def test_maximize_reports_the_rhs_of_its_svd_start(d, restarts):
    # The canonical SVD start scores exactly 0, so only a state whose SVD
    # basis is entangled tells the start's value from any other.
    for seed in range(5):
        s = flat_state(d, seed)
        initial = bn_rhs(schmidt_decompose(s.state, ADDITIVITY_SPLIT))
        assert initial > 0.1
        _, report = maximize_rhs(s, restarts=restarts, sweeps=3, seed=seed)
        assert report.initial_rhs == initial, seed
        assert report.rhs > initial, seed


def test_maximize_is_a_noop_without_degeneracy(monkeypatch):
    seen = []  # (kernel, number of matrices it was given) per LAPACK call
    for name in ("svd", "qr", "solve", "eigh", "eigvalsh"):
        def counted(a, *args, _name=name, _kernel=getattr(np.linalg, name), **kwargs):
            seen.append((_name, int(np.prod(np.shape(a)[:-2]))))
            return _kernel(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for d in (2, 3):
        state, designated = deformed_counterexample(d, 0.1)
        initial = bn_rhs(schmidt_decompose(state.state, ADDITIVITY_SPLIT))
        seen.clear()
        dec, report = maximize_rhs(state)
        assert report.initial_rhs == initial
        assert abs(report.rhs - initial) < 1e-10
        assert report.decomposition_source == "svd"
        assert report.state_descriptor == "no degenerate freedom"
        # The SVD start is the only start: one SVD, no restart draw (QR), an
        # ascent that takes no Cayley step (solve), and no eigensolver call
        # on more than that start's 2k side matrices.
        names = [name for name, _ in seen]
        assert names.count("svd") == 1 and "qr" not in names and "solve" not in names
        assert max(size for _, size in seen) <= 2 * d**2
        # the returned vectors match the designated ones up to phase
        overlaps = np.abs(np.diag(designated.left.conj().T @ dec.left))
        assert np.max(np.abs(overlaps - 1.0)) < 1e-8


@pytest.mark.parametrize("d, eps", [(2, 1e-8), (2, 3e-8), (3, 1e-8), (3, 1e-7), (3, 3e-7)])
def test_maximize_passes_its_own_gate_on_near_ties(d, eps):
    # The tilted coefficients differ by more than mixing them could absorb
    # within the residual gate, so they are not a block, and the search's
    # own decomposition passes bn_gap with half the gate to spare.
    s = FourFactorState(tilted_product_state(d, eps))
    _, report = maximize_rhs(s)
    assert report.residual <= RESIDUAL_TOL / 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: canonical_counterexample(2),
        lambda: canonical_counterexample(3),
        lambda: deformed_counterexample(2, 0.1)[0],
        lambda: FourFactorState(haar_state(FactorShape((2, 3, 3, 2)), 8)),
        lambda: FourFactorState(PureState.normalized(FactorShape((2, 3, 3, 2)), np.eye(6))),
    ],
    ids=["canonical-2", "canonical-3", "deformed", "haar-2x3x3x2", "flat-2x3x3x2"],
)
def test_maximize_reports_what_bn_gap_reports_on_its_decomposition(build):
    # The report is built from the search's own arrays, a zero-padded side
    # stack at (2, 3, 3, 2); it must equal bn_gap's on the result, bit for bit.
    s = build()
    dec, report = maximize_rhs(s, restarts=3, sweeps=40, seed=2)
    want = bn_gap(s, dec, source=report.decomposition_source)
    fields = ("lhs", "rhs", "gap", "residual", "decomposition_source")
    assert [getattr(report, f) for f in fields] == [getattr(want, f) for f in fields]


def test_maximize_refuses_a_nan_verification_score(monkeypatch):
    monkeypatch.setattr(inequality, "_verify_stack", lambda *args: np.array([np.nan]))
    with pytest.raises(InputError, match="does not reproduce the state"):
        maximize_rhs(canonical_counterexample(2), restarts=0, sweeps=0)


def test_maximize_rejects_negative_budgets():
    with pytest.raises(InputError):
        maximize_rhs(canonical_counterexample(2), restarts=-1)
    with pytest.raises(InputError):
        maximize_rhs(canonical_counterexample(2), sweeps=-2)


def test_maximize_seed_determinism():
    s = canonical_counterexample(2)
    _, a = maximize_rhs(s, restarts=3, sweeps=2, seed=11)
    _, b = maximize_rhs(s, restarts=3, sweeps=2, seed=11)
    assert a.rhs == b.rhs


@pytest.mark.parametrize("budget", [1, 17, 100])
@pytest.mark.parametrize("d", [2, 3])
def test_maximize_does_not_depend_on_the_stack_budget(d, budget, monkeypatch):
    # tensor._stacks reads STACK_ELEMENTS when it runs, so a small budget
    # scores the 8 starts one by one, or two by two at d = 2, budget 100.
    s = canonical_counterexample(d)
    want_dec, want = maximize_rhs(s, restarts=7, sweeps=30, seed=5)
    monkeypatch.setattr(tensor, "STACK_ELEMENTS", budget)
    dec, report = maximize_rhs(s, restarts=7, sweeps=30, seed=5)
    assert dec.left.tobytes() == want_dec.left.tobytes()
    assert dec.right.tobytes() == want_dec.right.tobytes()
    assert (report.rhs, report.initial_rhs) == (want.rhs, want.initial_rhs)
    assert report.state_descriptor == want.state_descriptor


def test_maximize_reports_its_stop_reason():
    s = canonical_counterexample(2)
    _, report = maximize_rhs(s)
    assert report.state_descriptor.startswith("restarts=20 sweeps_used=")
    assert report.state_descriptor.endswith("/2000 stop=converged")
    _, report = maximize_rhs(s, sweeps=1)
    assert report.state_descriptor == "restarts=20 sweeps_used=1/1 stop=budget"


def test_maximize_reports_a_stall_apart_from_convergence():
    # Seed 164 at d = 3 reaches 2 ln 3 with a gradient norm still above
    # GRAD_TOL, where no step length ascends: the ascent stalls, and the
    # failed attempt is not counted as a step.
    s = canonical_counterexample(3)
    dec, report = maximize_rhs(s, seed=164)
    assert report.state_descriptor == "restarts=20 sweeps_used=88/2000 stop=stalled"
    assert abs(report.rhs - 2 * np.log(3)) <= 1e-12
    mask = np.ones((dec.rank, dec.rank), dtype=bool)  # one flat block
    sides = _sides(dec.left, dec.right, s.state.shape.dims)
    _, grad = _rhs_ascent(dec.coefficients, sides, mask)
    assert np.linalg.norm(grad) > GRAD_TOL
    _, report = maximize_rhs(s, seed=0)
    assert report.state_descriptor.endswith("stop=converged")


#: A fixed nonzero skew-Hermitian gradient on the four Schmidt vectors at d = 2.
SKEW = np.arange(16.0).reshape(4, 4) * (1.0 + 2.0j) / 16.0
SKEW = SKEW - SKEW.conj().T


@pytest.mark.parametrize(
    "objective, want",
    [("constant", (0, "stalled")), ("rising", (7, "budget")), ("flat", (0, "converged"))],
)
def test_ascent_stop_reasons_need_no_pinned_seed(objective, want, monkeypatch):
    # A fake objective stands in for _rhs_ascent, so each stop reason follows
    # from the ascent's rules, not from one seed's path: a value that never
    # rises under a nonzero gradient stalls before a step, a value that rises
    # on every trial spends all 7 sweeps, and a zero gradient converges at once.
    values = itertools.count()
    fakes = {
        "constant": lambda *args: (0.0, SKEW),
        "rising": lambda *args: (float(next(values)), SKEW),
        "flat": lambda *args: (0.0, np.zeros_like(SKEW)),
    }
    monkeypatch.setattr(inequality, "_rhs_ascent", fakes[objective])
    dec = product_decomposition(2)
    sides = _sides(dec.left, dec.right, dec.shape.dims)
    out, used, stop = _ascend(dec.coefficients, sides, np.ones((4, 4), dtype=bool), 7)
    assert (used, stop) == want
    assert (out is sides) == (used == 0)


def bell_pair_state(dims):
    """|Phi>_13 (x) |Phi>_24 on factor dims (d1, d2, d1, d2)."""
    grid = np.zeros(dims, dtype=np.complex128)
    for i in range(dims[0]):
        for k in range(dims[1]):
            grid[i, k, i, k] = 1.0
    return FourFactorState(PureState.normalized(FactorShape(dims), grid.reshape(-1)))


@pytest.mark.parametrize(
    "dims", [(2, 2, 2, 2), (2, 3, 2, 3), (2, 3, 3, 2), (2, 2, 3, 3)], ids=shape_id
)
def test_rhs_gradient_matches_central_difference(dims):
    # the last two have sides of different shapes, zero-padded in one stack
    if dims[:2] == dims[2:]:
        s = bell_pair_state(dims)
    else:
        s = FourFactorState(haar_state(FactorShape(dims), 23))
    dec = schmidt_decompose(s.state, ADDITIVITY_SPLIT)
    k = dec.rank
    # away from the product start, where the gradient vanishes
    rotated = apply_freedom(dec, haar_unitary(k, 17))
    left, right = rotated.left, rotated.right
    mask = np.ones((k, k), dtype=bool)
    value, grad = _rhs_ascent(dec.coefficients, _sides(left, right, dims), mask)
    assert abs(value - bn_rhs(rotated)) < 1e-12
    rng = np.random.default_rng(4)
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    x = 0.5 * (z - z.conj().T)
    # exp(t x) from the eigenvectors of the Hermitian matrix -i x
    evals, evecs = np.linalg.eigh(-1j * x)

    def rhs_along(t):
        u = (evecs * np.exp(1j * t * evals)) @ evecs.conj().T
        return _rhs_ascent(dec.coefficients, _sides(left @ u, right @ np.conj(u), dims), mask)[0]

    h = 1e-6
    central = (rhs_along(h) - rhs_along(-h)) / (2 * h)
    assert abs(central - float(np.vdot(grad, x).real)) < 1e-6
    assert abs(central) > 1e-3  # the direction actually moves the rhs


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 3, 2), (2, 3, 4, 2)], ids=shape_id)
def test_the_entropy_kernels_never_call_the_svd(monkeypatch, dims):
    dec = schmidt_decompose(haar_state(FactorShape(dims), 31), ADDITIVITY_SPLIT)
    lam, left, right, k = dec.coefficients, dec.left, dec.right, dec.rank
    mask = np.ones((k, k), dtype=bool)
    sides = _sides(left, right, dims)
    want = bn_rhs(dec), _rhs_ascent(lam, sides, mask)

    def fail(*args, **kwargs):
        raise AssertionError("the entropy path called the SVD")

    monkeypatch.setattr(np.linalg, "svd", fail)
    assert _rhs(lam[None], sides[None])[0] == want[0]
    value, grad = _rhs_ascent(lam, sides, mask)
    assert value == want[1][0] and np.array_equal(grad, want[1][1])
    entanglement_entropy_grad(left.T.reshape(k, *dims[:2]))


@pytest.mark.parametrize("d, seeds", [(2, 20), (3, 10)])
def test_maximize_reaches_2_ln_d_on_every_seed(d, seeds):
    s = canonical_counterexample(d)
    for k in range(seeds):
        t0 = time.perf_counter()
        dec, report = maximize_rhs(s, seed=derive_seed(0, k))
        assert time.perf_counter() - t0 < 2.0
        assert abs(report.rhs - 2 * np.log(d)) <= 1e-9, (k, report.state_descriptor)
        assert verify_decomposition(s.state, dec) <= 1e-10


def test_maximize_makes_one_svd_one_record_and_one_side_stack(monkeypatch):
    # _sides runs once, for the stack that every start and every step of the
    # ascent rotates, however many steps the ascent takes (5 here); the
    # report reads the ascent's final stack.  Only the lhs (a 4x4 Gram
    # matrix) reaches eigvalsh: every rhs side at d = 2 is a qubit cut,
    # taken in closed form.
    s = canonical_counterexample(2)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("svd", "qr", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(inequality, "_sides", counted("_sides", inequality._sides))
    post_init = counted("SchmidtDecomposition", SchmidtDecomposition.__post_init__)
    monkeypatch.setattr(SchmidtDecomposition, "__post_init__", post_init)
    _, report = maximize_rhs(s, seed=derive_seed(0, 0))
    assert report.state_descriptor == "restarts=20 sweeps_used=5/2000 stop=converged"
    assert calls == {"svd": 1, "qr": 1, "eigvalsh": 1, "SchmidtDecomposition": 1, "_sides": 1}


def sequential_maximize(s, restarts=20, sweeps=2000, seed=0):
    """maximize_rhs with its starts scored one at a time: one unitary per
    block, the next draw of that block's generator, and one _rhs_ascent per
    start, the first best kept unless a later start beats it by more than
    START_TIE_TOL, then the same ascent.  Returns the decomposition, its
    rhs, the descriptor and the winning start (0 for the SVD start, r + 1
    for restart r)."""
    dims = s.state.shape.dims
    dec0 = schmidt_decompose(s.state, ADDITIVITY_SPLIT)
    wide = [b for b in degenerate_blocks(dec0.coefficients) if len(b) > 1]
    lam = dec0.coefficients
    k = lam.size
    mask = np.zeros((k, k), dtype=bool)
    for b in wide:
        mask[np.ix_(b, b)] = True
    lmat, rmat = dec0.left, dec0.right
    value, _ = _rhs_ascent(lam, _sides(lmat, rmat, dims), mask)
    best = 0
    rngs = [np.random.default_rng([seed & (2**64 - 1), bi]) for bi in range(len(wide))]
    for r in range(restarts):
        w = np.eye(k, dtype=np.complex128)
        for rng_b, b in zip(rngs, wide):
            w[np.ix_(b, b)] = _haar_unitaries(len(b), rng_b, 1)[0]
        trial = (dec0.left @ w, dec0.right @ np.conj(w))
        t_value, _ = _rhs_ascent(lam, _sides(*trial, dims), mask)
        if t_value > value + START_TIE_TOL:
            (lmat, rmat), value, best = trial, t_value, r + 1
    sides, used, stop = _ascend(lam, _sides(lmat, rmat, dims), mask, sweeps)
    d1, d2, d3, d4 = dims
    lmat, rmat = sides[:k, :d1, :d2].reshape(k, -1).T, sides[k:, :d3, :d4].reshape(k, -1).T
    dec = replace(dec0, left=lmat, right=rmat)
    return dec, bn_rhs(dec), f"restarts={restarts} sweeps_used={used}/{sweeps} stop={stop}", best


def grid_state(dims, entries):
    """The normalized state with the given {basis label: amplitude}."""
    grid = np.zeros(dims, dtype=np.complex128)
    for label, amp in entries.items():
        grid[label] = amp
    return FourFactorState(PureState.normalized(FactorShape(dims), grid.reshape(-1)))


def test_maximize_scores_its_starts_as_the_sequential_loop_does():
    # The stacked scoring must pick the start that the one-at-a-time loop
    # picks, so the ascent and every output stay bit for bit the same.
    # Coefficients (.3, .3, .2, .2) on product vectors: two degenerate
    # blocks, an SVD start at rhs 0, and restarts that win.
    a, b = np.sqrt(0.3), np.sqrt(0.2)
    two = grid_state(
        (2, 2, 2, 2), {(0, 0, 0, 0): a, (1, 1, 1, 1): a, (0, 1, 0, 1): b, (1, 0, 1, 0): b}
    )
    blocks = degenerate_blocks(schmidt_decompose(two.state, ADDITIVITY_SPLIT).coefficients)
    assert blocks == ((0, 1), (2, 3))
    # Factors 1 and 3 are one-dimensional, so every start has rhs 0 up to
    # roundoff, and the START_TIE_TOL margin decides.
    flat = grid_state((1, 2, 1, 2), {(0, 0, 0, 0): 1.0, (0, 1, 0, 1): 1.0})
    d4 = canonical_counterexample(4)
    stack = STACK_ELEMENTS // (16 * (16 + 16 + 16))  # starts per stack at d = 4
    cases = [(canonical_counterexample(2), {"seed": derive_seed(0, k)}) for k in range(20)]
    cases += [(canonical_counterexample(3), {"seed": derive_seed(0, k)}) for k in range(5)]
    cases += [(two, {"seed": k}) for k in range(5)] + [(flat, {"seed": k}) for k in range(5)]
    # Seeds 71 and 40 were found by scoring the 101 starts of seeds 0, 1, ...
    # at d = 4: they are the first seeds whose winners are start 85 (the
    # first of the second stack) and start 100 (the last).
    cases += [(d4, {"restarts": 100, "sweeps": 20, "seed": k}) for k in (71, 40)]
    cases += [(canonical_counterexample(2), {"restarts": 0})]
    winners = {}
    for s, kwargs in cases:
        dec, report = maximize_rhs(s, **kwargs)
        want_dec, want_rhs, want_descriptor, winner = sequential_maximize(s, **kwargs)
        winners[s, kwargs.get("seed")] = winner
        assert np.array_equal(dec.left, want_dec.left), kwargs
        assert np.array_equal(dec.right, want_dec.right), kwargs
        assert report.rhs == want_rhs, kwargs
        assert report.state_descriptor == want_descriptor, kwargs
    assert report.rhs == 0.0  # restarts=0 stops at the product start
    assert all(winners[two, k] > 0 for k in range(5))
    # the winners are the first and the last start of the second stack
    assert (winners[d4, 71], winners[d4, 40]) == (stack, 100)


@pytest.mark.parametrize("d", [2, 3])
def test_maximize_keeps_the_first_start_when_every_start_ties(d):
    # |0>_1 |0>_3 (x) a maximally entangled pair on factors 2 and 4: every
    # rotation of the one degenerate block keeps each Schmidt vector a
    # product across 1 | 2 and 3 | 4, so every start has rhs 0 and only
    # roundoff tells them apart.  Ties go to the SVD start.
    flat = grid_state((d, d, d, d), {(0, j, 0, j): 1.0 for j in range(d)})
    want, _ = maximize_rhs(flat, restarts=0)
    for k in range(50):
        dec, report = maximize_rhs(flat, seed=k)
        assert np.array_equal(dec.left, want.left), k
        assert np.array_equal(dec.right, want.right), k
        assert abs(report.rhs) <= 1e-13, k


def test_maximize_reaches_the_bound_on_a_non_square_state():
    # rhs <= ln min(d1, d2) + ln min(d3, d4) = 2 ln 2 on (2, 3, 2, 3)
    s = bell_pair_state((2, 3, 2, 3))
    dec, report = maximize_rhs(s)
    assert abs(report.rhs - TWO_LN_TWO) <= 1e-9, report.state_descriptor
    assert verify_decomposition(s.state, dec) <= 1e-10


def test_maximize_refuses_an_oversized_search_before_it_starts():
    s = canonical_counterexample(31)
    t0 = time.perf_counter()
    with pytest.raises(InputError, match="work limit"):
        maximize_rhs(s)
    assert time.perf_counter() - t0 < 1.0
