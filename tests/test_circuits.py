"""Circuit construction and gate counting tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifqk.circuits import (
    Circuit,
    Gate,
    build_heisenberg_embedding,
    build_zz_feature_map,
    circuit_stats,
    simplify,
)
from motifqk.errors import ConfigError

# (reps or steps, total, two-qubit, two-qubit depth) for the two embeddings
# at the production widths of 60 and 61 qubits.
ZZ_60 = [(4, 1188, 472, 16), (6, 1782, 708, 24),
         (8, 2376, 944, 32), (12, 3564, 1416, 48)]
HEIS_61 = [(4, 4141, 1440, 48), (6, 6181, 2160, 72)]


def test_gate_validation():
    with pytest.raises(ConfigError):
        Gate("SWAP", (0, 1))
    with pytest.raises(ConfigError):
        Gate("CX", (1, 1))
    with pytest.raises(ConfigError):
        Gate("CX", (0,))
    with pytest.raises(ConfigError):
        Gate("RZ", (0,))
    with pytest.raises(ConfigError):
        Gate("RZ", (0,), float("inf"))
    with pytest.raises(ConfigError):
        Gate("H", (0,), 0.5)
    # an operand is a plain int: a bool would act on qubit 0 or 1, and a
    # numpy integer is refused by name rather than as a wrong operand count
    for bad in (True, np.int64(0)):
        with pytest.raises(ConfigError, match="qubit must be an int >= 0"):
            Gate("H", (bad,))


def test_circuit_validation():
    with pytest.raises(ConfigError):
        Circuit(0, ())
    with pytest.raises(ConfigError):
        Circuit(2, (Gate("H", (2,)),))
    for bad in (True, 2.5):
        with pytest.raises(ConfigError, match="n_qubits must be an int >= 1"):
            Circuit(bad, ())


def test_stats_empty_circuit():
    stats = circuit_stats(Circuit(3, ()))
    assert (stats.total_gates, stats.two_qubit_gates, stats.two_qubit_depth) == (0, 0, 0)


def test_stats_cx_ladder_depth():
    # Chain CX(0,1), CX(1,2), CX(2,3) is fully sequential: depth 3.
    gates = tuple(Gate("CX", (q, q + 1)) for q in range(3))
    stats = circuit_stats(Circuit(4, gates))
    assert stats.two_qubit_gates == 3
    assert stats.two_qubit_depth == 3


def test_stats_parallel_cx_depth():
    gates = (Gate("CX", (0, 1)), Gate("CX", (2, 3)))
    assert circuit_stats(Circuit(4, gates)).two_qubit_depth == 1


@pytest.mark.parametrize("reps,total,two_q,depth", ZZ_60)
def test_zz_map_production_counts(reps, total, two_q, depth):
    x = np.zeros(60)
    circuit = build_zz_feature_map(x, reps=reps, scale=math.pi / 2)
    stats = circuit_stats(circuit)
    assert stats.total_gates == total
    assert stats.two_qubit_gates == two_q
    assert stats.two_qubit_depth == depth


@pytest.mark.parametrize("steps,total,two_q,depth", HEIS_61)
def test_heisenberg_production_counts(steps, total, two_q, depth):
    x = np.zeros(60)
    circuit = build_heisenberg_embedding(x, steps=steps, scale=math.pi, seed=0)
    stats = circuit_stats(circuit)
    assert circuit.n_qubits == 61
    assert stats.total_gates == total
    assert stats.two_qubit_gates == two_q
    assert stats.two_qubit_depth == depth


def test_zz_map_two_qubit_gate_sequence():
    circuit = build_zz_feature_map([1.0, 1.0], reps=1, scale=0.5)
    kinds = [g.kind for g in circuit.gates]
    assert kinds == ["H", "H", "RZ", "RZ", "CX", "RZ", "CX"]
    single = [g for g in circuit.gates if g.kind == "RZ"][:2]
    assert single[0].angle == pytest.approx(1.0)
    pair = [g for g in circuit.gates if g.kind == "RZ"][2]
    assert pair.angle == pytest.approx(0.5)
    assert pair.qubits == (1,)


def test_zz_map_pair_order_is_brickwork():
    circuit = build_zz_feature_map(np.ones(5), reps=1, scale=1.0)
    pairs = [g.qubits for g in circuit.gates if g.kind == "CX"]
    assert pairs[::2] == pairs[1::2]
    assert pairs[::2] == [(0, 1), (2, 3), (1, 2), (3, 4)]


def test_zz_map_zero_input_zero_angles():
    circuit = build_zz_feature_map(np.zeros(6), reps=2, scale=math.pi)
    angles = [g.angle for g in circuit.gates if g.kind == "RZ"]
    assert all(a == 0.0 for a in angles)


def test_zz_map_validation():
    for reps in (0, True, 2.0, np.int64(2)):
        with pytest.raises(ConfigError, match="^reps must be an int >= 1"):
            build_zz_feature_map(np.ones(3), reps=reps, scale=1.0)
    with pytest.raises(ConfigError):
        build_zz_feature_map(np.ones(3), reps=1, scale=-1.0)
    # A single feature is legal: the map degenerates to H plus one rotation.
    single = build_zz_feature_map(np.ones(1), reps=1, scale=1.0)
    assert circuit_stats(single).two_qubit_gates == 0


def test_heisenberg_small_structure():
    circuit = build_heisenberg_embedding([1.0, 0.0], steps=1, scale=0.8, seed=9)
    assert circuit.n_qubits == 3
    stats = circuit_stats(circuit)
    assert stats.total_gates == 3 + 17 * 2
    assert stats.two_qubit_gates == 12
    assert stats.two_qubit_depth == 12
    init = [g for g in circuit.gates[:3]]
    assert all(g.kind == "RY" for g in init)
    expected = np.random.default_rng(9).uniform(0.0, 2.0 * math.pi, 3)
    assert np.allclose([g.angle for g in init], expected)


def test_heisenberg_edge_angles_scale_with_input():
    circuit = build_heisenberg_embedding([1.0, 0.0], steps=2, scale=0.8, seed=9)
    rz = [g.angle for g in circuit.gates if g.kind == "RZ"]
    # Edge (0,1) carries x=1: angle scale/steps. Edge (1,2) carries x=0.
    assert pytest.approx(0.4) == max(rz)
    assert 0.0 in rz


def test_heisenberg_seed_determinism():
    a = build_heisenberg_embedding([1.0, 1.0], steps=1, scale=1.0, seed=4)
    b = build_heisenberg_embedding([1.0, 1.0], steps=1, scale=1.0, seed=4)
    c = build_heisenberg_embedding([1.0, 1.0], steps=1, scale=1.0, seed=5)
    assert a == b
    assert a.gates[0].angle != c.gates[0].angle


def test_heisenberg_validation():
    for steps in (0, True, 2.0, np.int64(2)):
        with pytest.raises(ConfigError, match="^steps must be an int >= 1"):
            build_heisenberg_embedding([1.0, 1.0], steps=steps, scale=1.0,
                                       seed=0)
    for seed in (-1, True, 1.5, np.int64(0)):
        with pytest.raises(ConfigError, match="^seed must be an int >= 0"):
            build_heisenberg_embedding([1.0, 1.0], steps=1, scale=1.0,
                                       seed=seed)
    with pytest.raises(ConfigError):
        build_heisenberg_embedding([1.0], steps=1, scale=float("nan"), seed=0)


@given(st.integers(min_value=3, max_value=8), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_zz_counts_formula(n, reps, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, n).astype(float)
    stats = circuit_stats(build_zz_feature_map(x, reps=reps, scale=math.pi))
    assert stats.total_gates == reps * (5 * n - 3)
    assert stats.two_qubit_gates == reps * 2 * (n - 1)
    # Both brickwork layers are populated once n >= 3.
    assert stats.two_qubit_depth == 4 * reps


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_heisenberg_counts_formula(n_feat, steps, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, n_feat).astype(float)
    stats = circuit_stats(build_heisenberg_embedding(x, steps=steps, scale=1.0, seed=seed))
    n = n_feat + 1
    assert stats.total_gates == n + steps * 17 * (n - 1)
    assert stats.two_qubit_gates == steps * 6 * (n - 1)
    assert stats.two_qubit_depth == 12 * steps


def _gates(*specs):
    return tuple(Gate(*spec) for spec in specs)


def _simplified(n, *specs):
    return simplify(Circuit(n, _gates(*specs))).gates


def test_simplify_cancels_adjacent_pairs():
    assert _simplified(1, ("H", (0,)), ("H", (0,))) == ()
    assert _simplified(2, ("CX", (0, 1)), ("CX", (0, 1))) == ()
    for kind in ("RX", "RY", "RZ"):
        assert _simplified(1, (kind, (0,), 0.7), (kind, (0,), -0.7)) == ()
    assert _simplified(1, ("RZ", (0,), 0.0)) == ()
    # a gate on another qubit does not separate a pair
    assert _simplified(3, ("CX", (0, 1)), ("H", (2,)), ("CX", (0, 1))) \
        == _gates(("H", (2,)))


def test_simplify_merges_same_axis_rotations():
    assert _simplified(1, ("RX", (0,), 0.25), ("RX", (0,), 0.5)) \
        == _gates(("RX", (0,), 0.75))
    assert _simplified(1, ("RX", (0,), 0.25), ("RY", (0,), 0.5)) \
        == _gates(("RX", (0,), 0.25), ("RY", (0,), 0.5))


def test_simplify_cancellations_cascade():
    # E1's CX·RZ(0)·CX on an unset pair, inside H·H
    assert _simplified(2, ("H", (0,)), ("CX", (0, 1)), ("RZ", (1,), 0.0),
                       ("CX", (0, 1)), ("H", (0,))) == ()
    assert _simplified(1, ("RY", (0,), 0.3), ("H", (0,)), ("RZ", (0,), 0.0),
                       ("H", (0,)), ("RY", (0,), -0.3)) == ()
    # the exposed gate merges with the next one
    assert _simplified(1, ("RZ", (0,), 0.5), ("H", (0,)), ("H", (0,)),
                       ("RZ", (0,), 0.25)) == _gates(("RZ", (0,), 0.75))


def test_simplify_keeps_gates_that_do_not_cancel():
    kept = _gates(("CX", (0, 1)), ("H", (1,)), ("CX", (0, 1)))
    assert simplify(Circuit(2, kept)).gates == kept
    kept = _gates(("CX", (0, 1)), ("CX", (1, 0)))
    assert simplify(Circuit(2, kept)).gates == kept
    kept = _gates(("CX", (0, 1)), ("H", (0,)), ("CX", (0, 1)))
    assert simplify(Circuit(2, kept)).gates == kept


def test_simplify_e1_one_hot_row_is_a_product_circuit():
    # no two adjacent bits set: every entangling block and every unset
    # qubit's H^8 cancel, leaving (H·RZ)^8 on each set qubit
    x = np.zeros(60)
    x[[3, 17, 30, 58]] = 1.0
    circuit = simplify(build_zz_feature_map(x, reps=8, scale=math.pi / 2))
    assert circuit.n_qubits == 60
    assert len(circuit.gates) == 4 * 16
    assert {g.qubits[0] for g in circuit.gates} == {3, 17, 30, 58}
    assert all(g.kind in ("H", "RZ") for g in circuit.gates)
