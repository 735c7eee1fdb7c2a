"""Mutation check of the tests: plant one known bug at a time and require
that the tests named for it fail.

Each entry of ``MUTANTS`` names a module of ``src/bnineq``, an exact source
fragment, its replacement and the test ids expected to fail.  For each
entry the script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, applies the one replacement there and runs only the
named tests, so the checkout is never edited.  It prints one line per
mutant:

* ``killed``: every named test fails;
* ``survived``: some named test passes, so no test pins the bug;
* ``stale``: the fragment no longer occurs exactly once in its module;
* ``error``: pytest did not run the named tests (an unknown test id, or a
  collection error).

Before the mutants it runs every named test on the unmutated copy, which
must pass.  It exits 1 unless every mutant is killed.  A mutant that is
harmless on some shapes (``M`` and ``M^T`` share their spectrum) names
tests on a shape where it is wrong.  The file has no ``test_`` prefix, so
pytest does not collect it.

Run from the repository root::

    python tests/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str
    fragment: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "left vectors of the rhs reshaped (d2 x d1): wrong at (2, 3, 2, 3)",
        "inequality",
        "left.swapaxes(-1, -2).reshape(*lead, k, d1, d2)",
        "left.swapaxes(-1, -2).reshape(*lead, k, d2, d1).swapaxes(-1, -2)",
        (
            "tests/test_inequality.py::test_rhs_cross_checked_against_naive_oracle[2x3x2x3]",
            "tests/test_inequality.py::test_rhs_cross_checked_against_naive_oracle[3x2x3x2]",
        ),
    ),
    Mutant(
        "eigenvalues p for the weights |r|^2 of the gradient kernel: wrong at tiny weights",
        "spectra",
        "q = (rows * rows.conj()).real.sum(-1)",
        'q = _lapack("eigvalsh", m @ m.conj().swapaxes(-1, -2))',
        ("tests/test_spectra.py::test_entanglement_entropy_grad_matches_the_svd_formula",),
    ),
    Mutant(
        "gradient kernel's entropy not clamped at 0: wrong at the weight 1 + 2 eps",
        "spectra",
        "np.maximum(-(q * log_q).sum(-1), 0.0)",
        "-(q * log_q).sum(-1)",
        ("tests/test_spectra.py::test_entropy_clipping_policy",),
    ),
    Mutant(
        "qubit-cut discriminant with |b| for 2|b|: wrong at every entangled qubit cut",
        "spectra",
        "np.hypot(a - c, 2.0 * b)",
        "np.hypot(a - c, b)",
        ("tests/test_spectra.py::test_qubit_cut_closed_form_matches_the_svd_spectrum",),
    ),
    Mutant(
        "padded right block at the far corner: wrong at (2, 3, 3, 2)",
        "inequality",
        "out[..., k:, :d3, :d4] = ",
        "out[..., k:, -d3:, -d4:] = ",
        ("tests/test_properties.py::test_rotating_the_side_stack_rotates_the_columns",),
    ),
    Mutant(
        "lhs taken across {1,2} | {3,4}: wrong at (2, 2, 2, 2)",
        "inequality",
        "BipartiteSplit((1, 3), (2, 4))",
        "BipartiteSplit((1, 2), (3, 4))",
        (
            "tests/test_inequality.py::test_lhs_cross_checked_against_naive_oracle[2x2x2x2]",
            "tests/test_acceptance.py::test_criterion_1_canonical_family_violates_at_all_dims",
        ),
    ),
    Mutant(
        "rhs weighted by sqrt(lambda): wrong at (2, 2, 2, 2)",
        "inequality",
        "(lam[..., None, :] @ (s[:, :k]",
        "(np.sqrt(lam)[..., None, :] @ (s[:, :k]",
        (
            "tests/test_inequality.py::test_rhs_cross_checked_against_naive_oracle[2x2x2x2]",
            "tests/test_inequality.py::test_rhs_of_entangled_decomposition",
        ),
    ),
    Mutant(
        "int() in place of the integer gate: wrong at 2.5",
        "tensor",
        "if n is None or n != value:",
        "if n is None:",
        (
            "tests/test_tensor.py::test_integer_gates_refuse_non_integral_values[FactorShape-2.5]",
            "tests/test_tensor.py::test_integer_gates_refuse_non_integral_values[scan_samples-2.5]",
        ),
    ),
    Mutant(
        "Shannon sum not clamped at 0: wrong at the spectrum (1 + eps,)",
        "spectra",
        "return np.maximum(-(q * np.log(q)).sum(axis=-1), 0.0)",
        "return -(q * np.log(q)).sum(axis=-1)",
        ("tests/test_spectra.py::test_entropy_clipping_policy",),
    ),
    Mutant(
        "_as_int ignores least: wrong at a dimension of 0",
        "tensor",
        "if least is not None and n < least:",
        "if False:",
        (
            "tests/test_tensor.py::test_bounded_gates_refuse_one_below_their_least_value[FactorShape]",
            "tests/test_tensor.py::test_bounded_gates_refuse_one_below_their_least_value[scan_samples]",
        ),
    ),
    Mutant(
        "_as_int takes a bool as 0 or 1: wrong at True",
        "tensor",
        "bad = isinstance(value, (bool, np.bool_)) or ",
        "bad = ",
        (
            "tests/test_tensor.py::test_integer_gates_refuse_non_integral_values[FactorShape-True]",
            "tests/test_tensor.py::test_integer_gates_refuse_non_integral_values[scan_samples-value5]",
        ),
    ),
    Mutant(
        "_descending lets NaN through: wrong at (nan, 1)",
        "tensor",
        "if not np.isfinite(v).all():",
        "if False:",
        (
            "tests/test_spectra.py::test_non_finite_inputs_are_rejected[Spectrum]",
            "tests/test_spectra.py::test_non_finite_inputs_are_rejected[blocks]",
            "tests/test_schmidt.py::test_decomposition_rejects_non_finite_entries",
        ),
    ),
    Mutant(
        "_hermitian lets inf through: wrong at diag(1, -inf)",
        "tensor",
        "if not np.isfinite(a).all():",
        "if False:",
        (
            "tests/test_spectra.py::test_non_finite_inputs_are_rejected[DensityMatrix_inf]",
            "tests/test_spectra.py::test_non_finite_inputs_are_rejected[hermitian_eigen_inf]",
        ),
    ),
    Mutant(
        "_positions lets a repeated position through: wrong at (1, 1)",
        "tensor",
        "if len(set(pos)) != len(pos):",
        "if False:",
        (
            "tests/test_tensor.py::test_partial_trace_rejects_bad_keep_sets",
            "tests/test_tensor.py::test_permute_rejects_non_permutations",
            "tests/test_schmidt.py::test_split_validation",
        ),
    ),
    Mutant(
        "rotations (q^T, q^H) joined along axis 0: wrong for a stack of q",
        "inequality",
        "qt.conj()), axis=-3)",
        "qt.conj()), axis=0)",
        (
            "tests/test_inequality.py::test_maximize_scores_its_starts_as_the_sequential_loop_does",
            "tests/test_inequality.py::test_maximize_keeps_the_first_start_when_every_start_ties[2]",
            "tests/test_inequality.py::test_maximize_keeps_the_first_start_when_every_start_ties[3]",
        ),
    ),
    Mutant(
        "right side rotated by q, not conj(q): wrong at any complex q",
        "inequality",
        "np.concatenate((qt, qt.conj())",
        "np.concatenate((qt, qt)",
        ("tests/test_properties.py::test_rotating_the_side_stack_rotates_the_columns",),
    ),
    Mutant(
        "every wide block drawn from generator 0: wrong with two blocks",
        "inequality",
        "_rng(seed, bi)",
        "_rng(seed, 0)",
        ("tests/test_inequality.py::test_maximize_scores_its_starts_as_the_sequential_loop_does",),
    ),
    Mutant(
        "each chunk of starts restarts the block streams: wrong past the first chunk",
        "inequality",
        "zip(rngs, wide_blocks)",
        "zip([_rng(seed, bi) for bi in range(len(rngs))], wide_blocks)",
        ("tests/test_inequality.py::test_maximize_scores_its_starts_as_the_sequential_loop_does",),
    ),
    Mutant(
        "a stack budget below one item's size cuts stacks of no item: wrong at a budget of 1",
        "tensor",
        "max(1, STACK_ELEMENTS // size)",
        "STACK_ELEMENTS // size",
        (
            "tests/test_sampling.py::test_scan_rows_do_not_depend_on_the_stack_budget[1]",
            "tests/test_inequality.py::test_maximize_does_not_depend_on_the_stack_budget[2-1]",
        ),
    ),
    Mutant(
        "right Schmidt vectors conjugated: wrong on complex Haar states",
        "schmidt",
        "vh.swapaxes(-1, -2)",
        "vh.conj().swapaxes(-1, -2)",
        (
            "tests/test_schmidt.py::test_verify_scores_sound_decompositions_near_zero",
            "tests/test_schmidt.py::test_schmidt_coefficients_match_marginal_spectrum[dims0-split0]",
        ),
    ),
    Mutant(
        "_family_violation stops zeroing the diagonal: wrong for every orthonormal family",
        "schmidt",
        "off.reshape(len(off), -1)[:, :: off.shape[-1] + 1] = 0.0",
        "off.reshape(len(off), -1)[:, :: off.shape[-1] + 1] *= 1.0",
        (
            "tests/test_schmidt.py::test_verify_scores_sound_decompositions_near_zero",
            "tests/test_schmidt.py::test_schmidt_keeps_small_coefficients_above_roundoff[1e-13]",
        ),
    ),
    Mutant(
        "_verify_stack's maximum drops the right-family defect: wrong when only the right "
        "vectors are not orthonormal",
        "schmidt",
        "np.maximum(_family_violation(left), _family_violation(right))",
        "_family_violation(left)",
        ("tests/test_schmidt.py::test_verify_reports_a_defect_of_the_right_vectors_alone",),
    ),
    Mutant(
        "Ginibre real and imaginary parts swapped: wrong at every seed",
        "schmidt",
        "(x[:, 0] + 1j * x[:, 1])",
        "(x[:, 1] + 1j * x[:, 0])",
        (
            "tests/test_sampling.py::test_haar_unitaries_equal_the_per_seed_draw[2]",
            "tests/test_sampling.py::test_haar_unitaries_equal_the_per_seed_draw[4]",
        ),
    ),
    Mutant(
        "degenerate_blocks cuts at gaps >= g: wrong at square roots (g, 0)",
        "schmidt",
        "(root[1:] - root[:-1]) < -gap",
        "(root[1:] - root[:-1]) <= -gap",
        ("tests/test_schmidt.py::test_degenerate_blocks_examples",),
    ),
    Mutant(
        "degenerate_blocks steps taken on lambda, not sqrt(lambda): wrong at steps of 100 g at 1e-3",
        "schmidt",
        "root = np.sqrt(lam)",
        "root = lam",
        ("tests/test_properties.py::test_mixing_inside_the_blocks_stays_within_half_the_gate",),
    ),
    Mutant(
        "Shannon sum in bits, not nats: wrong at every mixed spectrum",
        "spectra",
        "(q * np.log(q))",
        "(q * np.log2(q))",
        (
            "tests/test_properties.py::test_small_perturbations_of_the_canonical_state_violate_by_the_page_mean[2-1000]",
            "tests/test_properties.py::test_small_perturbations_of_the_canonical_state_violate_by_the_page_mean[3-300]",
        ),
    ),
    Mutant(
        "initial_rhs taken from each new winning start: wrong once a restart wins",
        "inequality",
        "if i == 0:\n                initial = t_value",
        "if i == 0 or t_value > value + START_TIE_TOL:\n                initial = t_value",
        (
            "tests/test_inequality.py::test_maximize_reports_the_rhs_of_its_svd_start[3-2]",
            "tests/test_inequality.py::test_maximize_reports_the_rhs_of_its_svd_start[3-3]",
        ),
    ),
    Mutant(
        "a stalled ascent reported as converged: wrong at d = 3, seed 164, and on a fake stall",
        "inequality",
        'return sides, used, "stalled"',
        'return sides, used, "converged"',
        (
            "tests/test_inequality.py::test_maximize_reports_a_stall_apart_from_convergence",
            "tests/test_inequality.py::test_ascent_stop_reasons_need_no_pinned_seed[stalling-want3]",
        ),
    ),
    Mutant(
        "the failed attempt of a stall counted as a step: wrong at d = 3, seed 164, and on a "
        "fake stall",
        "inequality",
        'return sides, used, "stalled"',
        'return sides, used + 1, "stalled"',
        (
            "tests/test_inequality.py::test_maximize_reports_a_stall_apart_from_convergence",
            "tests/test_inequality.py::test_ascent_stop_reasons_need_no_pinned_seed[stalling-want3]",
        ),
    ),
    Mutant(
        "the trial is scored at the old point: wrong on every fake objective with a nonzero "
        "gradient",
        "inequality",
        "objective(trial)",
        "objective(sides)",
        (
            "tests/test_inequality.py::test_ascent_stop_reasons_need_no_pinned_seed[constant-want0]",
            "tests/test_inequality.py::test_ascent_stop_reasons_need_no_pinned_seed[rising-want1]",
            "tests/test_inequality.py::test_ascent_stop_reasons_need_no_pinned_seed[stalling-want3]",
        ),
    ),
    Mutant(
        "the SVD start drawn like a restart: wrong on a state whose SVD basis is entangled",
        "inequality",
        "drawn = w[1:] if stack.start == 0 else w",
        "drawn = w",
        (
            "tests/test_inequality.py::test_maximize_reports_the_rhs_of_its_svd_start[0-2]",
            "tests/test_inequality.py::test_maximize_reports_the_rhs_of_its_svd_start[3-3]",
            "tests/test_inequality.py::test_maximize_zero_budget_returns_the_svd_value",
        ),
    ),
    Mutant(
        "the deformed tilt left ascending: wrong at every d",
        "inequality",
        "tilt = (big_d - 1.0 - 2.0 * np.arange(big_d)) / big_d",
        "tilt = (2.0 * np.arange(big_d) - big_d + 1.0) / big_d",
        (
            "tests/test_inequality.py::test_deformed_coefficients_are_the_designated_decimals",
            "tests/test_inequality.py::test_array_constructions_equal_the_loops_bit_for_bit[3]",
        ),
    ),
    Mutant(
        "Haar amplitudes paired along a row, not across the rows: wrong at every seed",
        "sampling",
        "x.T.copy().view(np.complex128)",
        "x.copy().view(np.complex128)",
        (
            "tests/test_sampling.py::test_haar_state_equals_the_documented_draw[dims0]",
            "tests/test_sampling.py::test_haar_state_equals_the_documented_draw[dims1]",
        ),
    ),
    Mutant(
        "SplitMix64 state at index i, not i + 1: wrong at every seed",
        "sampling",
        "(index + np.uint64(1)) * ",
        "index * ",
        (
            "tests/test_sampling.py::test_derive_seed_frozen_anchors",
            "tests/test_sampling.py::test_scan_keeps_each_derived_seed",
        ),
    ),
    Mutant(
        "the scan's stacked verification arranged across Alice | Bob: wrong at every state",
        "inequality",
        "_verify_stack(m, lam, left, right)",
        "_verify_stack(_arranged(amps, shape, _PARTY_SPLIT), lam, left, right)",
        ("tests/test_sampling.py::test_scan_single_sample_matches_direct_evaluation",),
    ),
    Mutant(
        "the scan's one-sample route lets the gate's refusal escape: wrong once bn_gap refuses",
        "sampling",
        "except (NumericalError, InputError) as exc:",
        "except NumericalError as exc:",
        ("tests/test_sampling.py::test_scan_redoes_a_failing_stack_through_bn_gap",),
    ),
    Mutant(
        "the residual gate lets a NaN score through: wrong at a NaN score",
        "inequality",
        "if not score <= RESIDUAL_TOL:",
        "if score > RESIDUAL_TOL:",
        (
            "tests/test_sampling.py::test_scan_records_samples_that_fail_the_residual_gate",
            "tests/test_inequality.py::test_gap_refuses_a_nan_verification_score",
        ),
    ),
    Mutant(
        "normalized keeps the quotient without the unit-norm check: wrong on 1e-160-scale amplitudes",
        "tensor",
        "_unit_vector(amps / norm, shape)",
        "amps / norm",
        ("tests/test_tensor.py::test_normalized_rejects_a_vector_whose_norm_underflows",),
    ),
    Mutant(
        "normalized divides in place, into the caller's array: wrong on any complex128 input",
        "tensor",
        "_unit_vector(amps / norm, shape)",
        "_unit_vector(np.divide(amps, norm, out=amps), shape)",
        (
            "tests/test_tensor.py::test_normalized_constructor[2x2x2x2]",
            "tests/test_tensor.py::test_normalized_constructor[4x4x4x4]",
        ),
    ),
    Mutant(
        "a norm gate as wide as the unit-sum gates: wrong at norm 1 + 0.999e-10",
        "tolerances",
        "NORM_ATOL = 1e-12",
        "NORM_ATOL = 1e-10",
        (
            "tests/test_tolerances.py::test_the_relations_the_table_promises",
            "tests/test_tolerances.py::test_a_state_at_the_edge_of_the_norm_gate_decomposes_and_traces[1-2x2x2x2]",
            "tests/test_tolerances.py::test_a_state_at_the_edge_of_the_norm_gate_decomposes_and_traces[-1-4x4x4x4]",
        ),
    ),
    Mutant(
        "maximize subparser wired to the check handler: wrong at maximize --dim 2",
        "cli",
        "common(p, lambda *a: run_maximize(*a))",
        "common(p, lambda *a: run_check(*a))",
        ("tests/test_cli.py::test_maximize_from_dim",),
    ),
    Mutant(
        "scan handler bound when the parser is built: wrong once a patch is restored",
        "cli",
        "lambda *a: run_scan(*a)",
        "run_scan",
        ("tests/test_cli.py::test_a_parser_built_under_a_patched_handler_does_not_keep_it",),
    ),
    Mutant(
        "restarts + 1 starts scored without a wide block: wrong at deformed_counterexample(3, 0.1)",
        "inequality",
        "starts = restarts + 1 if wide_blocks else 1",
        "starts = restarts + 1",
        ("tests/test_inequality.py::test_maximize_is_a_noop_without_degeneracy",),
    ),
    Mutant(
        "each Cayley step shrinks the vectors by 1e-11, inside the gate: wrong at (2, 2, 2, 2)",
        "inequality",
        '_lapack("solve", eye - half, eye + half)',
        '_lapack("solve", eye - half, (1 - 1e-11) * eye + half)',
        (
            "tests/test_properties.py::test_targeted_search_stays_below_the_marginal_bound",
            "tests/test_properties.py::test_targeted_search_stays_within_half_the_gate",
        ),
    ),
    Mutant(
        "the Cayley step calls np.linalg.solve directly: wrong on a LinAlgError at maximize --dim 2",
        "inequality",
        '_lapack("solve", eye - half, eye + half)',
        "np.linalg.solve(eye - half, eye + half)",
        (
            "tests/test_source.py::test_only_lapack_calls_numpy_linalg",
            "tests/test_spectra.py::test_lapack_failures_raise_numerical_error[maximize_rhs_solve]",
            "tests/test_cli.py::test_maximize_exit_3_when_a_lapack_call_fails[solve]",
        ),
    ),
)


def _copy(tmp: Path) -> Path:
    """The source, the tests and the pytest settings, copied under ``tmp``."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", tmp / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", tmp / "tests", ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", tmp)
    return tmp


def _pytest(tmp: Path, tests) -> tuple[int, int]:
    """Run ``tests`` on the copy under ``tmp``, importing its ``src``; return
    (passed, failed), or raise RuntimeError unless pytest ran exactly them."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--tb=no", "-p", "no:cacheprovider", *tests],
        cwd=tmp, env={**os.environ, "PYTHONPATH": str(tmp / "src")}, capture_output=True, text=True,
    )
    counts = {k.rstrip("s"): int(n) for n, k in re.findall(r"(\d+) (passed|failed|errors?)\b", run.stdout)}
    passed, failed = counts.get("passed", 0), counts.get("failed", 0) + counts.get("error", 0)
    if run.returncode not in (0, 1) or passed + failed != len(tests):
        tail = (run.stdout + run.stderr).strip().splitlines()[-3:]
        raise RuntimeError(" | ".join(tail))
    return passed, failed


def _status(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = _copy(Path(tmp)) / "src" / "bnineq" / f"{mutant.module}.py"
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.fragment) != 1:
            return f"stale     fragment occurs {text.count(mutant.fragment)} times"
        path.write_text(text.replace(mutant.fragment, mutant.replacement), encoding="utf-8")
        try:
            passed, failed = _pytest(Path(tmp), mutant.tests)
        except RuntimeError as exc:
            return f"error     {exc}"
    if passed:
        return f"survived  {passed} of {len(mutant.tests)} named tests pass"
    return f"killed    {failed} of {len(mutant.tests)} named tests fail"


def main() -> int:
    began = time.perf_counter()
    named = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        try:
            passed, _ = _pytest(_copy(Path(tmp)), named)
        except RuntimeError as exc:
            passed = f"error ({exc})"
    print(f"unmutated: {passed} of {len(named)} named tests pass")
    if passed != len(named):
        return 1
    killed = 0
    for mutant in MUTANTS:
        status = _status(mutant)
        killed += status.startswith("killed")
        print(f"{status}  [{mutant.module}] {mutant.name}", flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed in {time.perf_counter() - began:.0f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
