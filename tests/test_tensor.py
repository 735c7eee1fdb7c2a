import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnineq import (
    BipartiteSplit,
    FactorShape,
    InputError,
    PureState,
    canonical_counterexample,
    derive_seed,
    haar_state,
    haar_unitary,
    load_state,
    maximize_rhs,
    partial_trace,
    partial_trace_naive,
    save_state,
    scan,
    state_to_document,
)
from bnineq.tensor import _norm, permute_factors
from helpers import basis_state, kron_state, shape_id


def q22():
    return FactorShape((2, 2))


def bell_plus():
    return PureState(q22(), np.array([1, 0, 0, 1]) / np.sqrt(2))


# ---------------------------------------------------------------- shapes


def test_shape_basic_properties():
    shape = FactorShape((2, 3, 4))
    assert shape.n_factors == 3
    assert shape.total_dimension == 24


@pytest.mark.parametrize("dims", [(), (0,), (2, -1), (2, 0, 3), 4])
def test_shape_rejects_bad_dims(dims):
    with pytest.raises(InputError):
        FactorShape(dims)


INTEGER_GATES = {
    "FactorShape": lambda v: FactorShape((v, 2, 2, 2)),
    "canonical_counterexample": canonical_counterexample,
    "maximize_restarts": lambda v: maximize_rhs(canonical_counterexample(2), restarts=v),
    "maximize_sweeps": lambda v: maximize_rhs(canonical_counterexample(2), sweeps=v),
    "maximize_seed": lambda v: maximize_rhs(canonical_counterexample(2), seed=v),
    "scan_samples": lambda v: scan(v, FactorShape((2, 2, 2, 2)), 0),
    "scan_seed": lambda v: scan(2, FactorShape((2, 2, 2, 2)), v),
    "haar_unitary_n": lambda v: haar_unitary(v, 0),
    "haar_unitary_seed": lambda v: haar_unitary(2, v),
    "BipartiteSplit": lambda v: BipartiteSplit((1, v), (3, 4)),
    "partial_trace": lambda v: partial_trace(canonical_counterexample(2).state, (1, v)),
    "permute_factors": lambda v: permute_factors(canonical_counterexample(2).state, (1, v, 3, 4)),
    "haar_state_seed": lambda v: haar_state(FactorShape((2, 2, 2, 2)), v),
    "derive_seed_master": lambda v: derive_seed(v, 0),
    "derive_seed_index": lambda v: derive_seed(0, v),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, 2.5, "2", True, np.True_, np.array([2])])
@pytest.mark.parametrize("gate", INTEGER_GATES)
def test_integer_gates_refuse_non_integral_values(gate, value):
    with pytest.raises(InputError, match="must be (an integer|integers)"):
        INTEGER_GATES[gate](value)


@pytest.mark.parametrize("value", [2, np.int64(2), 2.0])
@pytest.mark.parametrize("gate", INTEGER_GATES)
def test_integer_gates_accept_integral_values(gate, value):
    INTEGER_GATES[gate](value)


#: The least value each bounded gate of ``INTEGER_GATES`` accepts.
LEAST = {
    "FactorShape": 1,
    "canonical_counterexample": 2,
    "maximize_restarts": 0,
    "maximize_sweeps": 0,
    "scan_samples": 1,
    "haar_unitary_n": 1,
}


@pytest.mark.parametrize("gate", LEAST)
def test_bounded_gates_refuse_one_below_their_least_value(gate):
    least = LEAST[gate]
    with pytest.raises(InputError, match=f"must be >= {least}, got {least - 1}"):
        INTEGER_GATES[gate](least - 1)


def test_shape_rejects_oversized_space():
    with pytest.raises(InputError):
        FactorShape((101, 101, 101))  # 1030301 > 10**6
    FactorShape((100, 100, 100))  # exactly at the cap is fine


# ----------------------------------------------------------- pure states


def test_pure_state_norm_gate():
    with pytest.raises(InputError):
        PureState(FactorShape((2,)), np.array([1.0, 1.0]))
    with pytest.raises(InputError):
        PureState(FactorShape((2,)), np.array([1.0 + 5e-12, 0.0]))
    # within the gate is fine
    PureState(FactorShape((2,)), np.array([1.0 + 1e-13, 0.0]))


def test_pure_state_rejects_non_finite_amplitudes():
    with pytest.raises(InputError):
        PureState(FactorShape((2,)), np.array([np.nan, np.nan]))
    with pytest.raises(InputError):
        PureState(FactorShape((2,)), np.array([np.inf, 0.0]))


def test_pure_state_length_check():
    with pytest.raises(InputError):
        PureState(FactorShape((2, 2)), np.array([1.0, 0.0]))


def test_pure_state_amplitudes_are_frozen():
    psi = basis_state(q22(), (0, 1))
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0


def test_basis_state_places_single_amplitude():
    psi = basis_state(FactorShape((2, 3)), (1, 2))
    expected = np.zeros(6)
    expected[5] = 1.0
    assert np.array_equal(psi.amplitudes, expected)


@pytest.mark.parametrize("dims", [(2,), (2, 2, 2, 2), (2, 3, 3, 2), (4, 4, 4, 4)], ids=shape_id)
def test_normalized_constructor(dims):
    psi = PureState.normalized(FactorShape((2,)), np.array([3.0, 4.0]))
    assert np.allclose(psi.amplitudes, [0.6, 0.8])
    with pytest.raises(InputError):
        PureState.normalized(FactorShape((2,)), np.zeros(2))
    # normalized gates its own quotient: the same bytes as the two-step
    # construction, frozen, and the caller's array neither aliased nor changed.
    shape = FactorShape(dims)
    rng = np.random.default_rng(shape.total_dimension)
    a = rng.standard_normal(shape.total_dimension) + 1j * rng.standard_normal(shape.total_dimension)
    before = a.copy()
    psi = PureState.normalized(shape, a)
    assert psi.amplitudes.tobytes() == PureState(shape, a / _norm(a)).amplitudes.tobytes()
    assert not psi.amplitudes.flags.writeable
    assert a.tobytes() == before.tobytes() and a.flags.writeable
    # The zero-norm gate fires before the length gate.
    with pytest.raises(InputError, match="cannot normalize"):
        PureState.normalized(shape, np.zeros(shape.total_dimension + 1))
    with pytest.raises(InputError, match="amplitude vector has length"):
        PureState.normalized(shape, np.append(a, 1.0))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 300), st.floats(-150.0, 150.0), st.integers(0, 2**32 - 1))
def test_norm_helper_equals_numpy_norm_bit_for_bit(n, exponent, seed):
    rng = np.random.default_rng(seed)
    amps = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0**exponent
    assert _norm(amps).hex() == float(np.linalg.norm(amps)).hex()


def test_normalized_rejects_a_vector_whose_norm_underflows():
    # The squares of 1e-160-scale amplitudes are subnormal, so the norm
    # loses digits and the "normalized" vector has norm 1.0000056: the
    # unit-norm gate must catch what the zero check lets through.
    amps = np.array([1, 2j, 3, 4]) * 1e-160
    with pytest.raises(InputError, match="deviates from 1"):
        PureState.normalized(FactorShape((4,)), amps)


# --------------------------------------------------- products and permutes


def test_kron_of_basis_states():
    a = basis_state(FactorShape((2,)), (1,))
    b = basis_state(FactorShape((3,)), (2,))
    ab = kron_state(a, b)
    assert ab.shape.dims == (2, 3)
    assert np.array_equal(ab.amplitudes, basis_state(FactorShape((2, 3)), (1, 2)).amplitudes)


def test_kron_then_permute_builds_the_canonical_state():
    # Pairing factors (1,3) and (2,4) into Bell states and interleaving
    # them must give the maximally entangled four-factor state.
    pair = bell_plus()
    four = permute_factors(kron_state(pair, pair), (1, 3, 2, 4))
    target = canonical_counterexample(2).state
    assert four.shape.dims == (2, 2, 2, 2)
    assert np.allclose(four.amplitudes, target.amplitudes, atol=1e-15)


def test_permute_identity_is_exact():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    psi = PureState.normalized(FactorShape((2, 3, 4)), x)
    same = permute_factors(psi, (1, 2, 3))
    assert np.array_equal(same.amplitudes, psi.amplitudes)


def test_permute_inverse_restores_exactly():
    rng = np.random.default_rng(12)
    shape = FactorShape((2, 3, 2, 2))
    for _ in range(50):
        x = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        psi = PureState.normalized(shape, x)
        perm = tuple(rng.permutation(4) + 1)
        inverse = tuple(int(np.argwhere(np.array(perm) == p)[0, 0]) + 1 for p in range(1, 5))
        back = permute_factors(permute_factors(psi, perm), inverse)
        assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_permute_moves_amplitudes_correctly():
    psi = basis_state(FactorShape((2, 3)), (1, 2))
    swapped = permute_factors(psi, (2, 1))
    assert swapped.shape.dims == (3, 2)
    assert swapped.amplitudes[np.ravel_multi_index((2, 1), swapped.shape.dims)] == 1.0


def test_permute_rejects_non_permutations():
    psi = basis_state(q22(), (0, 0))
    for perm in [(1,), (1, 1), (1, 3), (0, 1)]:
        with pytest.raises(InputError):
            permute_factors(psi, perm)


# -------------------------------------------------------- partial traces


def test_partial_trace_of_product_state_is_pure():
    rng = np.random.default_rng(21)
    a = PureState.normalized(FactorShape((3,)), rng.standard_normal(3) + 1j * rng.standard_normal(3))
    b = PureState.normalized(FactorShape((4,)), rng.standard_normal(4) + 1j * rng.standard_normal(4))
    rho = partial_trace(kron_state(a, b), (1,))
    expected = np.outer(a.amplitudes, np.conj(a.amplitudes))
    assert np.max(np.abs(rho.entries - expected)) < 1e-12


def test_partial_trace_of_bell_state_is_maximally_mixed():
    rho = partial_trace(bell_plus(), (1,))
    assert np.max(np.abs(rho.entries - np.eye(2) / 2)) < 1e-15


def test_partial_trace_keep_all_gives_projector():
    rng = np.random.default_rng(22)
    psi = PureState.normalized(
        FactorShape((2, 2, 2, 2)), rng.standard_normal(16) + 1j * rng.standard_normal(16)
    )
    rho = partial_trace(psi, (1, 2, 3, 4))
    proj = np.outer(psi.amplitudes, np.conj(psi.amplitudes))
    assert np.max(np.abs(rho.entries - proj)) < 1e-12


def test_partial_trace_canonical_marginal_is_pure():
    # Alice's {1,3} marginal of the canonical state is the projector onto
    # the two-factor Bell state.
    rho = partial_trace(canonical_counterexample(2).state, (1, 3))
    phi = bell_plus().amplitudes
    assert np.max(np.abs(rho.entries - np.outer(phi, np.conj(phi)))) < 1e-15


def test_partial_trace_keep_order_is_original_order():
    # keep=(3, 1) must give the same matrix as keep=(1, 3)
    psi = canonical_counterexample(2).state
    a = partial_trace(psi, (1, 3))
    b = partial_trace(psi, (3, 1))
    assert np.array_equal(a.entries, b.entries)


def test_partial_trace_has_unit_trace():
    rng = np.random.default_rng(23)
    psi = PureState.normalized(
        FactorShape((3, 2, 2)), rng.standard_normal(12) + 1j * rng.standard_normal(12)
    )
    for keep in [(1,), (2,), (1, 3), (2, 3)]:
        rho = partial_trace(psi, keep)
        assert abs(np.trace(rho.entries) - 1.0) < 1e-12


def test_partial_trace_agrees_with_naive_oracle():
    rng = np.random.default_rng(24)
    shapes = [(2, 2), (2, 3), (2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (3, 2, 3, 2)]
    checked = 0
    for case in range(50):
        dims = shapes[case % len(shapes)]
        shape = FactorShape(dims)
        n = shape.total_dimension
        psi = PureState.normalized(shape, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        n_keep = int(rng.integers(1, shape.n_factors + 1))
        keep = tuple(rng.choice(shape.n_factors, size=n_keep, replace=False) + 1)
        fast = partial_trace(psi, keep)
        slow = partial_trace_naive(psi, keep)
        assert np.max(np.abs(fast.entries - slow.entries)) < 1e-12
        checked += 1
    assert checked == 50


def test_partial_trace_rejects_bad_keep_sets():
    psi = canonical_counterexample(2).state
    with pytest.raises(InputError):
        partial_trace(psi, ())
    with pytest.raises(InputError):
        partial_trace(psi, (5,))
    with pytest.raises(InputError):
        partial_trace(psi, (1, 1))
    with pytest.raises(InputError):
        partial_trace_naive(psi, ())


# ------------------------------------------------------------ state files


def test_state_file_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    psi = PureState.normalized(
        FactorShape((2, 2, 2, 2)), rng.standard_normal(16) + 1j * rng.standard_normal(16)
    )
    path = tmp_path / "state.json"
    save_state(psi, path)
    again = load_state(path)
    assert again.shape.dims == psi.shape.dims
    assert np.max(np.abs(again.amplitudes - psi.amplitudes)) < 1e-15


def test_state_file_norm_gate(tmp_path):
    doc = state_to_document(canonical_counterexample(2).state)
    doc["amplitudes"][0] = [0.6, 0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_state(path)


def test_state_file_small_norm_error_is_renormalized(tmp_path):
    doc = state_to_document(basis_state(q22(), (0, 0)))
    doc["amplitudes"][0] = [1.0 + 1e-10, 0.0]
    path = tmp_path / "near.json"
    path.write_text(json.dumps(doc))
    psi = load_state(path)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-15


@pytest.mark.parametrize(
    "doc",
    [
        {"dims": [2, 2]},
        {"amplitudes": [[1.0, 0.0]]},
        {"dims": "2x2", "amplitudes": [[1.0, 0.0]]},
        {"dims": [2], "amplitudes": [[1.0, 0.0]]},
        {"dims": [2], "amplitudes": [[1.0], [0.0]]},
        {"dims": [2], "amplitudes": [["1", "0"], [0.0, 0.0]]},
    ],
)
def test_state_file_structure_validation(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_state(path)


def test_state_file_rejects_bool_dims(tmp_path):
    # bool is an int subclass: true must not be read as dimension 1.
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"dims": [True, 2], "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
    with pytest.raises(InputError):
        load_state(path)


def test_state_file_rejects_nan_amplitude(tmp_path):
    path = tmp_path / "nan.json"
    doc = state_to_document(canonical_counterexample(2).state)
    doc["amplitudes"][3] = [float("nan"), 0.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_state(path)


def test_state_file_rejects_non_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        load_state(path)
    with pytest.raises(InputError):
        load_state(tmp_path / "missing.json")


@pytest.mark.parametrize("name", ["missing.json", "a\x00b.json", "latin1.json"])
def test_state_file_read_errors_are_reported_as_such(tmp_path, name):
    # A path that cannot be opened, or bytes that are not UTF-8, fail the
    # read, not the JSON parse.
    (tmp_path / "latin1.json").write_bytes(b'{"dims": [2], "caf\xe9": 1}')
    with pytest.raises(InputError, match="^cannot read state file "):
        load_state(tmp_path / name)
