import functools

import numpy as np
import pytest

import bnineq
from bnineq import (
    ADDITIVITY_SPLIT,
    FactorShape,
    FourFactorState,
    InputError,
    bn_gap,
    derive_seed,
    haar_state,
    haar_unitary,
    scan,
    schmidt_decompose,
)
from bnineq.sampling import _haar_unitaries
from bnineq.tolerances import MAX_SCAN_AMPLITUDES, STACK_ELEMENTS
from helpers import page_entropy, page_variance

Q4 = FactorShape((2, 2, 2, 2))


def reference_splitmix64(master, index):
    """Independent restatement of the documented seed derivation."""
    mask = (1 << 64) - 1
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & mask
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = (z ^ (z >> shift)) * mult & mask
    return (z ^ (z >> 31)) & mask


# ------------------------------------------------------------------- seeds


def test_derive_seed_frozen_anchors():
    # The first anchor is the published SplitMix64 output for state 0.
    assert derive_seed(0, 0) == 16294208416658607535
    assert derive_seed(7, 0) == 7191089600892374487
    assert derive_seed(7, 1) == 309689372594955804
    assert derive_seed(123456789, 42) == 11444020087538809912


def test_derive_seed_matches_reference_mixer():
    # Masters and indices outside [0, 2^64) are taken mod 2^64.
    for master in (0, 7, 2**63, 123456789, 2**64 - 1, -1, 2**70 + 3):
        for index in (0, 1, 17, 999, 2**63, -1):
            assert derive_seed(master, index) == reference_splitmix64(master, index)


def test_derive_seed_produces_distinct_streams():
    seeds = {derive_seed(42, i) for i in range(200)}
    assert len(seeds) == 200
    assert all(0 <= s < 2**64 for s in seeds)


# ------------------------------------------------------------------- states


def test_haar_state_is_normalized():
    for seed in range(100):
        psi = haar_state(Q4, seed)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_haar_state_determinism():
    a = haar_state(Q4, 12345)
    b = haar_state(Q4, 12345)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = haar_state(Q4, 12346)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (1, 2, 3, 2)])
def test_haar_state_equals_the_documented_draw(dims):
    # default_rng(seed mod 2^64) draws (2, D) normals: real parts, then
    # imaginary parts, normalized.
    shape = FactorShape(dims)
    for seed in [0, 7, -1, 2**64 - 1, derive_seed(3, 1), 123456789]:
        x = np.random.default_rng(seed & ((1 << 64) - 1)).standard_normal((2, shape.total_dimension))
        v = x[0] + 1j * x[1]
        want = v / np.linalg.norm(v)
        assert haar_state(shape, seed).amplitudes.tobytes() == want.tobytes(), seed


def test_haar_state_first_amplitude_statistics():
    # |a_0|^2 of a Haar state has mean 1/N; check over 10^4 seeded draws
    # within three standard errors.
    n = Q4.total_dimension
    draws = np.array([abs(haar_state(Q4, 50000 + k).amplitudes[0]) ** 2 for k in range(10000)])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - 1.0 / n) < 3.0 * se


# ----------------------------------------------------------------- unitaries


@pytest.mark.parametrize("n", [1, 2, 4, 9])
def test_haar_unitary_is_unitary(n):
    for seed in range(25):
        u = haar_unitary(n, 300 + seed)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-10


def test_haar_unitary_determinism_and_scalar_case():
    assert np.array_equal(haar_unitary(3, 9), haar_unitary(3, 9))
    u1 = haar_unitary(1, 4)
    assert u1.shape == (1, 1)
    assert abs(abs(u1[0, 0]) - 1.0) < 1e-12
    with pytest.raises(InputError):
        haar_unitary(0, 1)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_haar_unitaries_equal_the_per_seed_draw(n):
    for seed in [0, 7, -1, 2**64 - 1, derive_seed(3, 1), 123456789]:
        # the single-seed draw: QR of a Ginibre matrix, R's phases divided out
        rng = np.random.default_rng(seed & ((1 << 64) - 1))
        x = rng.standard_normal((2, n, n))
        q, r = np.linalg.qr((x[0] + 1j * x[1]) / np.sqrt(2.0))
        diag = np.diag(r).copy()
        diag[diag == 0] = 1.0
        assert np.array_equal(haar_unitary(n, seed), q * (diag / np.abs(diag))), seed
        # one call for 5 continues the stream as a call for 2 and one for 3 do
        stack = _haar_unitaries(n, np.random.default_rng(seed & ((1 << 64) - 1)), 5)
        rng = np.random.default_rng(seed & ((1 << 64) - 1))
        parts = np.concatenate([_haar_unitaries(n, rng, 2), _haar_unitaries(n, rng, 3)])
        assert stack.shape == (5, n, n)
        assert np.array_equal(stack, parts), seed
        assert np.array_equal(stack[0], haar_unitary(n, seed)), seed


def test_haar_unitary_entry_statistics():
    # |U_00|^2 has mean 1/n for Haar unitaries.
    n = 4
    draws = np.array([abs(haar_unitary(n, 70000 + k)[0, 0]) ** 2 for k in range(2000)])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - 1.0 / n) < 3.0 * se


# ---------------------------------------------------------------------- scan


def test_scan_single_sample_matches_direct_evaluation():
    # The scan evaluates each stack with the kernels of bn_gap over
    # schmidt_decompose, so every row equals the direct evaluation
    # exactly.  The last case holds one sample more than a stack, so the
    # scan evaluates two stacks.
    cases = [((2, 2, 2, 2), 1), ((2, 2, 2, 2), 6), ((2, 3, 2, 3), 6), ((3, 2, 3, 2), 6)]
    cases += [((2, 3, 4, 2), 6), ((4, 4, 4, 4), STACK_ELEMENTS // 4**4 + 1)]
    for dims, n_samples in cases:
        shape = FactorShape(dims)
        report = scan(n_samples, shape, 7)
        assert report.errors == {}
        rows = report.per_sample
        assert [row.sample_index for row in rows] == list(range(n_samples))
        for row in rows:
            assert row.derived_seed == derive_seed(7, row.sample_index)
            psi = haar_state(shape, row.derived_seed)
            direct = bn_gap(FourFactorState(psi), schmidt_decompose(psi, ADDITIVITY_SPLIT))
            assert row.lhs == direct.lhs, (dims, row.sample_index)
            assert row.rhs == direct.rhs, (dims, row.sample_index)
            assert row.gap == direct.gap, (dims, row.sample_index)


def test_scan_isolates_a_failing_sample_in_its_stack(fail_lapack):
    clean = scan(20, Q4, 3)
    fail_lapack("svd", on=haar_state(Q4, derive_seed(3, 7)).amplitudes)
    report = scan(20, Q4, 3)
    assert report.errors == {7: "SVD failed to converge: injected"}
    assert [r.error is None for r in report.per_sample] == [i != 7 for i in range(20)]
    assert np.isnan(report.gap[7]) and np.isnan(report.lhs[7]) and np.isnan(report.rhs[7])
    keep = np.arange(20) != 7
    for name in ("lhs", "rhs", "gap"):
        assert np.array_equal(getattr(report, name)[keep], getattr(clean, name)[keep])
    gaps = clean.gap[keep]
    assert (report.min_gap, report.max_gap) == (gaps.min(), gaps.max())
    assert report.mean_gap == np.mean(gaps)
    assert report.violation_count == np.count_nonzero(gaps < -1e-9)


def test_scan_records_samples_that_fail_the_residual_gate(monkeypatch):
    clean = scan(20, Q4, 3)
    # The samples with the smallest and the largest gap fail the gate, so
    # each aggregate shows whether they were left out.
    low, high = int(np.argmin(clean.gap)), int(np.argmax(clean.gap))
    assert clean.gap[low] < -1e-9
    verify = bnineq.inequality._verify_stack

    def scores(*args):
        score = verify(*args)  # one stack holds all 20 samples
        score[[low, high]] = 1e-6, np.nan
        return score

    monkeypatch.setattr(bnineq.inequality, "_verify_stack", scores)
    report = scan(20, Q4, 3)
    assert sorted(report.errors) == sorted([low, high])
    assert all("verification score" in m for m in report.errors.values())
    bad = np.isin(np.arange(20), [low, high])
    for name in ("lhs", "rhs", "gap"):
        assert np.all(np.isnan(getattr(report, name)[bad]))
        assert np.array_equal(getattr(report, name)[~bad], getattr(clean, name)[~bad])
    gaps = clean.gap[~bad]
    assert (report.min_gap, report.max_gap) == (gaps.min(), gaps.max())
    assert report.mean_gap == np.mean(gaps)
    assert report.violation_count == np.count_nonzero(gaps < -1e-9)
    assert report.violation_count == clean.violation_count - 1


def test_scan_redoes_a_failing_stack_through_bn_gap(fail_lapack, monkeypatch):
    # Sample 7 breaks the stack's SVD, so all 20 samples take the bn_gap
    # route, whose gate refuses sample 3 with the text a stacked row gets.
    clean = scan(20, Q4, 3)
    third = haar_state(Q4, derive_seed(3, 3)).amplitudes
    verify = bnineq.inequality._verify_stack

    def stack_scores(*args):
        score = verify(*args)
        score[3] = 1e-6
        return score

    monkeypatch.setattr(bnineq.inequality, "_verify_stack", stack_scores)
    stacked = scan(20, Q4, 3).errors[3]
    monkeypatch.setattr(bnineq.inequality, "_verify_stack", verify)
    verify_one = bnineq.inequality.verify_decomposition

    def scores(psi, dec):
        return 1e-6 if np.array_equal(psi.amplitudes, third) else verify_one(psi, dec)

    monkeypatch.setattr(bnineq.inequality, "verify_decomposition", scores)
    fail_lapack("svd", on=haar_state(Q4, derive_seed(3, 7)).amplitudes)
    report = scan(20, Q4, 3)
    assert report.errors == {3: stacked, 7: "SVD failed to converge: injected"}
    assert "does not reproduce the state" in stacked and "verification score" in stacked
    keep = ~np.isin(np.arange(20), [3, 7])
    for name in ("lhs", "rhs", "gap"):
        assert np.all(np.isnan(getattr(report, name)[~keep]))
        assert np.array_equal(getattr(report, name)[keep], getattr(clean, name)[keep])


#: The Haar scans whose lhs and rhs the law tests compare with closed forms.
LAW_SCANS = [
    ((2, 2, 2, 2), 4000, 1),
    ((2, 3, 2, 3), 2000, 2),
    ((3, 2, 3, 2), 2000, 3),
    ((2, 2, 3, 3), 2000, 4),
    ((3, 3, 3, 3), 600, 5),
    ((2, 3, 4, 2), 1500, 6),
]


@functools.cache
def law_scan(dims, n_samples, seed):
    return scan(n_samples, FactorShape(dims), seed)


@pytest.mark.parametrize("dims,n_samples,seed", LAW_SCANS)
def test_scan_means_match_page_formula(dims, n_samples, seed):
    # The lhs is the entanglement entropy across {1,3} | {2,4}.  The SVD
    # Schmidt vectors of a Haar state are Haar-random on their side and
    # independent of the coefficients, so the mean rhs is a sum of two
    # Page entropies.
    d1, d2, d3, d4 = dims
    report = law_scan(dims, n_samples, seed)
    lhs = page_entropy(d1 * d3, d2 * d4)
    rhs = page_entropy(d1, d2) + page_entropy(d3, d4)
    for values, expected in ((report.lhs, lhs), (report.rhs, rhs), (report.gap, lhs - rhs)):
        se = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - expected) < 5.0 * se


@pytest.mark.parametrize("dims,n_samples,seed", LAW_SCANS)
def test_scan_lhs_variance_matches_its_closed_form(dims, n_samples, seed):
    # The lhs is the entropy of a Haar state on C^(d1 d3) (x) C^(d2 d4).  The
    # standard error of a sample variance v is sqrt((m4 - v^2) / n), with m4
    # the fourth central moment, so heavy tails widen it.
    d1, d2, d3, d4 = dims
    lhs = law_scan(dims, n_samples, seed).lhs
    v = lhs.var(ddof=1)
    se = np.sqrt((np.mean((lhs - lhs.mean()) ** 4) - v**2) / lhs.size)
    assert abs(v - page_variance(d1 * d3, d2 * d4)) < 5.0 * se


def test_scan_is_reproducible():
    a = scan(50, Q4, 99)
    b = scan(50, Q4, 99)
    for ra, rb in zip(a.per_sample, b.per_sample):
        assert ra.gap == rb.gap and ra.lhs == rb.lhs and ra.rhs == rb.rhs
    assert a.min_gap == b.min_gap
    assert a.mean_gap == b.mean_gap


@pytest.mark.parametrize("budget", [1, 17, 100])
def test_scan_rows_do_not_depend_on_the_stack_budget(budget, monkeypatch):
    # tensor._stacks reads STACK_ELEMENTS when it runs, so a small budget
    # cuts 37 samples of dimension 16 into stacks of 1 (budgets 1 and 17)
    # or 6 (budget 100) in place of one stack.
    want = scan(37, Q4, 7)
    monkeypatch.setattr(bnineq.tensor, "STACK_ELEMENTS", budget)
    got = scan(37, Q4, 7)
    for name in ("seeds", "lhs", "rhs", "gap"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.errors == want.errors


def test_scan_aggregates_match_rows():
    report = scan(40, Q4, 5)
    gaps = [r.gap for r in report.per_sample if r.error is None]
    assert report.min_gap == min(gaps)
    assert report.max_gap == max(gaps)
    assert abs(report.mean_gap - np.mean(gaps)) < 1e-15
    assert report.violation_count == sum(g < -1e-9 for g in gaps)


def test_scan_succeeds_without_errors_at_small_sizes():
    report = scan(40, FactorShape((3, 2, 3, 2)), 123)
    assert all(r.error is None for r in report.per_sample)


def test_scan_keeps_each_derived_seed():
    # The last scan crosses a stack boundary: one full stack and one sample.
    cases = [(7, 40), (-1, 40), (0, 40), (2**64 - 1, 40), (7, STACK_ELEMENTS // Q4.total_dimension + 1)]
    for master, n in cases:
        report = scan(n, Q4, master)
        assert report.seeds.dtype == np.uint64
        assert not report.seeds.flags.writeable
        assert report.seeds.tolist() == [derive_seed(master, i) for i in range(n)]
        assert report.seeds.tolist() == [reference_splitmix64(master, i) for i in range(n)]


def test_scan_refuses_too_many_amplitudes(monkeypatch):
    with pytest.raises(InputError, match="amplitudes"):
        scan(MAX_SCAN_AMPLITUDES // Q4.total_dimension + 1, Q4, 1)
    with pytest.raises(InputError, match="amplitudes"):
        scan(10**11, Q4, 1)
    # The limit itself is admitted.
    monkeypatch.setattr(bnineq.sampling, "MAX_SCAN_AMPLITUDES", 2 * Q4.total_dimension)
    assert scan(2, Q4, 1).n_samples == 2
    with pytest.raises(InputError, match="amplitudes"):
        scan(3, Q4, 1)


def test_scan_input_validation():
    with pytest.raises(InputError):
        scan(0, Q4, 1)
    with pytest.raises(InputError):
        scan(5, FactorShape((2, 2, 2)), 1)
