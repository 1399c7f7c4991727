"""Statevector simulator tests against a dense matrix-chain oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motifqk.circuits import Circuit, Gate, build_heisenberg_embedding, \
    build_zz_feature_map, simplify
from motifqk.errors import BackendError, ConfigError
from motifqk.statevector import binomial_estimate, bloch_vectors, \
    pauli_expectation, simulate

H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
Y_MAT = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z_MAT = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"X": X_MAT, "Y": Y_MAT, "Z": Z_MAT}


def _rot(kind, theta):
    half = theta / 2.0
    if kind == "RZ":
        return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]])
    if kind == "RX":
        return np.array([[np.cos(half), -1j * np.sin(half)],
                         [-1j * np.sin(half), np.cos(half)]])
    return np.array([[np.cos(half), -np.sin(half)],
                     [np.sin(half), np.cos(half)]])


def _embed_1q(mat, qubit, n):
    """Qubit 0 is the most significant axis of the 2**n state vector."""
    ops = [np.eye(2, dtype=complex)] * n
    ops[qubit] = mat
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _embed_cx(control, target, n):
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    ops_id = [np.eye(2, dtype=complex)] * n
    ops_id[control] = p0
    ops_x = [np.eye(2, dtype=complex)] * n
    ops_x[control] = p1
    ops_x[target] = X_MAT
    out0, out1 = ops_id[0], ops_x[0]
    for a, b in zip(ops_id[1:], ops_x[1:]):
        out0 = np.kron(out0, a)
        out1 = np.kron(out1, b)
    return out0 + out1


def _dense_unitary(circuit):
    u = np.eye(2 ** circuit.n_qubits, dtype=complex)
    for g in circuit.gates:
        if g.kind == "H":
            m = _embed_1q(H_MAT, g.qubits[0], circuit.n_qubits)
        elif g.kind == "CX":
            m = _embed_cx(g.qubits[0], g.qubits[1], circuit.n_qubits)
        else:
            m = _embed_1q(_rot(g.kind, g.angle), g.qubits[0], circuit.n_qubits)
        u = m @ u
    return u


def _random_circuit(rng, n, n_gates):
    kinds = ["H", "RX", "RY", "RZ"] + (["CX"] if n > 1 else [])
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        if kind == "CX":
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(Gate("CX", (int(a), int(b))))
        elif kind == "H":
            gates.append(Gate("H", (int(rng.integers(n)),)))
        else:
            gates.append(Gate(kind, (int(rng.integers(n)),),
                              float(rng.uniform(-math.pi, math.pi))))
    return Circuit(n, tuple(gates))


def test_hadamard_on_zero():
    state = simulate(Circuit(1, (Gate("H", (0,)),)))
    assert np.allclose(state, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_zero_state_expectations():
    state = simulate(Circuit(2, ()))
    assert pauli_expectation(state, 0, "Z") == pytest.approx(1.0)
    assert pauli_expectation(state, 0, "X") == pytest.approx(0.0)
    assert pauli_expectation(state, 1, "Y") == pytest.approx(0.0)


@pytest.mark.parametrize("theta", [0.3, 1.1, -2.5])
def test_rx_rotation_expectations(theta):
    state = simulate(Circuit(1, (Gate("RX", (0,), theta),)))
    assert pauli_expectation(state, 0, "Z") == pytest.approx(math.cos(theta), abs=1e-12)
    assert pauli_expectation(state, 0, "Y") == pytest.approx(-math.sin(theta), abs=1e-12)
    assert pauli_expectation(state, 0, "X") == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.3, 1.1, -2.5])
def test_ry_rotation_expectations(theta):
    state = simulate(Circuit(1, (Gate("RY", (0,), theta),)))
    assert pauli_expectation(state, 0, "Z") == pytest.approx(math.cos(theta), abs=1e-12)
    assert pauli_expectation(state, 0, "X") == pytest.approx(math.sin(theta), abs=1e-12)


def test_bell_state_amplitudes():
    state = simulate(Circuit(2, (Gate("H", (0,)), Gate("CX", (0, 1)))))
    assert np.allclose(state, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
    assert pauli_expectation(state, 0, "Z") == pytest.approx(0.0)
    assert pauli_expectation(state, 1, "Z") == pytest.approx(0.0)


def test_qubit_order_convention():
    # X on qubit 0 flips the most significant bit: |00> -> |10> = index 2.
    state = simulate(Circuit(2, (Gate("RX", (0,), math.pi),)))
    assert abs(state[2]) == pytest.approx(1.0)


def test_zz_map_zero_input_uniform():
    circuit = build_zz_feature_map(np.zeros(3), reps=1, scale=math.pi)
    state = simulate(circuit)
    assert np.allclose(np.abs(state), 1 / math.sqrt(8))
    for q in range(3):
        assert pauli_expectation(state, q, "X") == pytest.approx(1.0)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_simulate_matches_dense_oracle(n, seed):
    rng = np.random.default_rng(seed)
    circuit = _random_circuit(rng, n, int(rng.integers(1, 15)))
    state = simulate(circuit)
    expected = _dense_unitary(circuit)[:, 0]
    assert np.allclose(state, expected, atol=1e-12)
    for q in range(n):
        for basis, mat in PAULIS.items():
            full = _embed_1q(mat, q, n)
            want = float(np.real(np.conj(expected) @ full @ expected))
            assert pauli_expectation(state, q, basis) == pytest.approx(want, abs=1e-12)


def _dense_bloch(circuit):
    state = simulate(circuit)
    return np.array([[pauli_expectation(state, q, b) for b in "XYZ"]
                     for q in range(circuit.n_qubits)])


@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_simplify_keeps_the_state(n, seed):
    # a small alphabet with zero and opposite angles, so pairs cancel
    rng = np.random.default_rng(seed)
    kinds = ["H", "RX", "RZ", "CX"] if n > 1 else ["H", "RX", "RZ"]
    gates = []
    for _ in range(int(rng.integers(1, 30))):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "CX":
            a, b = rng.choice(min(n, 3), size=2, replace=False)
            gates.append(Gate("CX", (int(a), int(b))))
        elif kind == "H":
            gates.append(Gate("H", (int(rng.integers(n)),)))
        else:
            gates.append(Gate(kind, (int(rng.integers(n)),),
                              float(rng.choice([0.0, 0.5, -0.5]))))
    circuit = Circuit(n, tuple(gates))
    simple = simplify(circuit)
    assert len(simple.gates) <= len(circuit.gates)
    assert np.allclose(simulate(simple), simulate(circuit), atol=1e-12)


@given(st.sampled_from(["e1", "e2"]), st.integers(min_value=2, max_value=20),
       st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
# qubit 19 sees only H, exact X = 1; the dense readout gives 1 - 3.26e-12
@example(kind="e1", width=20, binary=True, seed=155)
@settings(max_examples=30, deadline=None)
def test_cluster_readout_matches_dense(kind, width, binary, seed):
    rng = np.random.default_rng(seed)
    d = width if kind == "e1" else width - 1
    if binary:
        # sparse rows leave most data gates at angle 0: many clusters
        x = (rng.random(d) < rng.choice([0.1, 0.3, 0.6])).astype(float)
        scale = float(rng.choice([math.pi, math.pi / 2]))
    else:
        x = rng.uniform(0.0, 1.0, d)
        scale = float(rng.uniform(0.3, math.pi))
    layers = 1 if width > 12 else int(rng.integers(1, 3))
    if kind == "e1":
        circuit = build_zz_feature_map(x, reps=layers, scale=scale)
    else:
        circuit = build_heisenberg_embedding(x, steps=layers, scale=scale,
                                             seed=seed)
    got = bloch_vectors(circuit)
    assert got.shape == (circuit.n_qubits, 3)
    # The dense oracle's error is the rounding of its sums of 2**(n-1)
    # amplitude products (on seed 155 an exactly rounded sum of the same
    # amplitudes is off by 3e-15), bounded by about 2**(n-1) * eps. Over
    # 920 draws at widths 8-20 its largest error was 0.085 of that bound
    # at 14-20 qubits; below 14 qubits the gate rounding, under 2.1e-14,
    # dominates, and 1e-12 holds.
    bound = max(1e-12, 2.0 ** (circuit.n_qubits - 1) * np.finfo(float).eps)
    assert np.abs(got - _dense_bloch(circuit)).max() <= bound


def test_bloch_vectors_untouched_qubits_and_cluster_cap():
    got = bloch_vectors(Circuit(3, (Gate("RY", (1,), 0.7),
                                    Gate("RZ", (2,), 0.0))))
    assert np.array_equal(got[[0, 2]], [[0.0, 0.0, 1.0]] * 2)
    assert got[1] == pytest.approx([math.sin(0.7), 0.0, math.cos(0.7)],
                                   abs=1e-12)
    # 40 qubits in one CX chain: one cluster over the cap, refused before
    # any simulation; the same width as disjoint pairs is served
    chain = tuple(Gate("CX", (q, q + 1)) for q in range(39))
    with pytest.raises(BackendError, match="cluster"):
        bloch_vectors(Circuit(40, (Gate("H", (0,)),) + chain))
    pairs = tuple(g for q in range(0, 40, 2)
                  for g in (Gate("H", (q,)), Gate("CX", (q, q + 1))))
    got = bloch_vectors(Circuit(40, pairs))
    assert np.allclose(got, 0.0, atol=1e-12)


def test_simulate_qubit_cap():
    with pytest.raises(BackendError, match="obp"):
        simulate(Circuit(27, ()))


def test_simulate_norm_drift_is_backend_error(monkeypatch):
    # a typed error, not an assert, so `python -O` still catches it
    monkeypatch.setattr("motifqk.statevector._H", 2 * H_MAT)
    with pytest.raises(BackendError, match="norm"):
        simulate(Circuit(1, (Gate("H", (0,)),)))


def test_pauli_expectation_validation():
    state = simulate(Circuit(2, ()))
    with pytest.raises(ConfigError):
        pauli_expectation(state, 0, "Q")
    with pytest.raises(ConfigError):
        pauli_expectation(state, 2, "Z")


def _z(circuit):
    return pauli_expectation(simulate(circuit), 0, "Z")


def test_sampling_degenerate_outcome_is_exact():
    value = _z(Circuit(1, ()))
    for seed in range(5):
        assert binomial_estimate(value, shots=100, seed=seed) == 1.0


def test_sampling_determinism():
    value = _z(Circuit(1, (Gate("RY", (0,), 0.7),)))
    a = binomial_estimate(value, shots=500, seed=11)
    b = binomial_estimate(value, shots=500, seed=11)
    assert a == b


def test_sampling_concentrates_near_truth():
    value = _z(Circuit(1, (Gate("RY", (0,), 0.7),)))
    want = math.cos(0.7)
    est = binomial_estimate(value, shots=1_000_000, seed=3)
    assert abs(est - want) < 0.01


def test_sampling_zero_mean_spread():
    value = _z(Circuit(1, (Gate("H", (0,)),)))
    for seed in range(50):
        est = binomial_estimate(value, shots=10_000, seed=seed)
        assert abs(est) <= 0.05
