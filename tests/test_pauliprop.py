"""Heisenberg-picture Pauli propagation tests.

Golden conjugation rules come from the textbook Heisenberg-picture
identities for H, CX, and axis rotations; the cross-engine agreement
suite in test_acceptance.py covers randomized circuits at scale.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifqk.circuits import Circuit, Gate, build_heisenberg_embedding, \
    build_zz_feature_map
from motifqk.errors import BackendError, ConfigError
from motifqk.pauliprop import backpropagate_observable, obp_expectations
from motifqk.statevector import pauli_expectation, simulate

from _observables import labels, observables


def _terms(circuit, label, threshold=0.0, coeff=1.0):
    out = backpropagate_observable(circuit, observables({label: coeff}),
                                   threshold)
    return labels(out, circuit.n_qubits)


def _gate1(kind, angle=None, n=1, qubit=0):
    return Circuit(n, (Gate(kind, (qubit,), angle),))


def test_hadamard_conjugation():
    h = _gate1("H")
    assert _terms(h, "Z") == {"X": 1.0}
    assert _terms(h, "X") == {"Z": 1.0}
    assert _terms(h, "Y") == {"Y": -1.0}


def test_cx_conjugation_goldens():
    cx = Circuit(2, (Gate("CX", (0, 1)),))
    assert _terms(cx, "IZ") == {"ZZ": 1.0}
    assert _terms(cx, "XI") == {"XX": 1.0}
    assert _terms(cx, "ZI") == {"ZI": 1.0}
    assert _terms(cx, "IX") == {"IX": 1.0}
    assert _terms(cx, "XZ") == {"YY": -1.0}
    assert _terms(cx, "YY") == {"XZ": -1.0}


def test_rz_conjugation():
    theta = 0.7
    out = _terms(_gate1("RZ", theta), "X")
    assert out["X"] == pytest.approx(math.cos(theta), abs=1e-15)
    assert out["Y"] == pytest.approx(-math.sin(theta), abs=1e-15)
    out = _terms(_gate1("RZ", theta), "Y")
    assert out["Y"] == pytest.approx(math.cos(theta), abs=1e-15)
    assert out["X"] == pytest.approx(math.sin(theta), abs=1e-15)
    assert _terms(_gate1("RZ", theta), "Z") == {"Z": 1.0}


def test_rx_conjugation():
    theta = 1.3
    out = _terms(_gate1("RX", theta), "Z")
    assert out["Z"] == pytest.approx(math.cos(theta), abs=1e-15)
    assert out["Y"] == pytest.approx(math.sin(theta), abs=1e-15)
    assert _terms(_gate1("RX", theta), "X") == {"X": 1.0}


def test_ry_conjugation():
    theta = -0.9
    out = _terms(_gate1("RY", theta), "X")
    assert out["X"] == pytest.approx(math.cos(theta), abs=1e-15)
    assert out["Z"] == pytest.approx(math.sin(theta), abs=1e-15)
    out = _terms(_gate1("RY", theta), "Z")
    assert out["Z"] == pytest.approx(math.cos(theta), abs=1e-15)
    assert out["X"] == pytest.approx(-math.sin(theta), abs=1e-15)
    assert _terms(_gate1("RY", theta), "Y") == {"Y": 1.0}


def test_disjoint_support_is_untouched():
    circuit = Circuit(3, (Gate("H", (1,)), Gate("CX", (1, 2)),
                          Gate("RX", (2,), 0.4)))
    obs = observables({"YII": 0.75})
    out = backpropagate_observable(circuit, obs, 0.0)
    assert labels(out, 3) == {"YII": 0.75}


def test_threshold_drops_small_terms():
    circuit = Circuit(2, (Gate("RZ", (0,), 0.7),))
    obs = observables({"XI": 0.3, "IX": 0.04})
    out = backpropagate_observable(circuit, obs, 0.05)
    kept = set(labels(out, 2))
    assert "IX" not in kept
    assert kept == {"XI", "YI"}


def test_threshold_zero_keeps_everything():
    circuit = _gate1("RZ", 1e-9)
    out = _terms(circuit, "X", threshold=0.0)
    assert set(out) == {"X", "Y"}
    assert out["Y"] == pytest.approx(-1e-9, rel=1e-9)


def test_larger_threshold_never_grows_terms():
    rng = np.random.default_rng(5)
    x = rng.integers(0, 2, 6).astype(float)
    circuit = build_zz_feature_map(x, reps=2, scale=1.1)
    obs = observables({"IIIZ": 1.0})
    sizes = [len(backpropagate_observable(circuit, obs, t))
             for t in (0.0, 0.01, 0.05, 0.2)]
    assert sizes == sorted(sizes, reverse=True)


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


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_conjugation_preserves_hilbert_schmidt_norm(n, seed):
    rng = np.random.default_rng(seed)
    circuit = _random_circuit(rng, n, int(rng.integers(1, 20)))
    terms = {}
    for _ in range(int(rng.integers(1, 4))):
        q = int(rng.integers(n))
        basis = str(rng.choice(["X", "Y", "Z"]))
        terms["I" * q + basis] = float(rng.normal())
    obs = observables(terms)
    out = backpropagate_observable(circuit, obs, 0.0)
    assert np.dot(out.cs, out.cs) == pytest.approx(np.dot(obs.cs, obs.cs),
                                                   rel=1e-12)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_matches_statevector_on_small_circuits(n, seed):
    rng = np.random.default_rng(seed)
    circuit = _random_circuit(rng, n, int(rng.integers(1, 25)))
    state = simulate(circuit)
    for q in range(n):
        for basis in ("X", "Y", "Z"):
            obs = observables({"I" * q + basis: 1.0})
            back = backpropagate_observable(circuit, obs, 0.0)
            assert obp_expectations(back)[0] == pytest.approx(
                pauli_expectation(state, q, basis), abs=1e-11)


def test_obp_expectation_zero_state():
    obs = observables({"ZZ": 0.5, "XI": 2.0, "ZI": 0.25})
    assert obp_expectations(obs)[0] == pytest.approx(0.75)


def test_full_width_zz_map_z_expectations():
    # At scale pi/2 and 6 reps the per-qubit block maps |0> to |x>, so
    # backpropagated Z readout equals 1 - 2x on every qubit.
    rng = np.random.default_rng(8)
    x = np.zeros(60)
    hot = rng.choice(60, size=4, replace=False)
    x[hot] = 1.0
    circuit = build_zz_feature_map(x, reps=6, scale=math.pi / 2)
    for q in list(hot) + [0, 59]:
        obs = observables({"I" * int(q) + "Z": 1.0})
        back = backpropagate_observable(circuit, obs, 0.0)
        assert obp_expectations(back)[0] == pytest.approx(1.0 - 2.0 * x[q],
                                                          abs=1e-12)


def test_backpropagate_validation():
    circuit = Circuit(2, (Gate("H", (0,)),))
    obs = observables({"IIIIIZ": 1.0})
    with pytest.raises(ConfigError):
        backpropagate_observable(circuit, obs, 0.0)
    good = observables({"Z": 1.0})
    with pytest.raises(ConfigError):
        backpropagate_observable(circuit, good, -0.1)
    wide = Circuit(65, ())
    with pytest.raises(BackendError):
        backpropagate_observable(wide, good, 0.0)


def _random_observable(rng, n):
    # weight <= 2 strings keep threshold-0 term counts small
    terms = {}
    for _ in range(int(rng.integers(2, 5))):
        label = ["I"] * n
        for q in rng.choice(n, size=2, replace=False):
            label[q] = str(rng.choice(list("IXYZ")))
        terms["".join(label)] = float(rng.normal())
    # below every positive threshold used: kept or dropped per observable
    q = int(rng.integers(n))
    terms["I" * q + "X" + "I" * (n - q - 1)] = 0.03
    return terms


@given(st.sampled_from(["e1", "e2", "random"]),
       st.integers(min_value=2, max_value=12),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_stack_matches_each_observable_alone(kind, n, seed):
    # the id leads the merge key, so each observable of a stack keeps the
    # terms, coefficients and term order it gets when propagated alone
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n if kind != "e2" else n - 1)
    if kind == "e1":
        circuit = build_zz_feature_map(x, int(rng.integers(1, 3)),
                                       float(rng.uniform(0.3, 2.0)))
    elif kind == "e2":
        circuit = build_heisenberg_embedding(
            x, 1, float(rng.uniform(0.3, 2.0)), int(rng.integers(100)))
    else:
        circuit = _random_circuit(rng, n, int(rng.integers(1, 40)))
    multi = _random_observable(rng, n)
    negated = {label: -c for label, c in multi.items()}
    sums = [{"I" * q + b: 1.0} for q in range(n) for b in "XYZ"]
    sums += [multi, negated, _random_observable(rng, n), {}]
    sums = [sums[i] for i in rng.permutation(len(sums))]
    stack = observables(*sums)
    parts = [observables(s) for s in sums]
    for threshold in (0.0, 0.05, 0.1):
        out = backpropagate_observable(circuit, stack, threshold)
        assert out.n_obs == len(parts)
        values = obp_expectations(out)
        total = 0
        for k, part in enumerate(parts):
            alone = backpropagate_observable(circuit, part, threshold)
            mine = out.ids == k
            assert out.xs[mine].tobytes() == alone.xs.tobytes()
            assert out.zs[mine].tobytes() == alone.zs.tobytes()
            assert out.cs[mine].tobytes() == alone.cs.tobytes()
            assert values[k] == obp_expectations(alone)[0]
            total += len(alone)
        assert len(out) == total


def test_obp_expectations_reads_each_observable_of_a_stack():
    # an observable without terms reads 0 and keeps its place in the stack
    stack = observables({"ZI": 1.0}, {}, {"IZ": -2.0, "XI": 1.0})
    assert stack.n_obs == 3
    assert stack.ids.tolist() == [0, 2, 2]
    assert obp_expectations(stack).tolist() == [1.0, 0.0, -2.0]
