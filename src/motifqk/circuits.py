"""Gate-level circuit representation and the two data-embedding builders.

The gate alphabet is deliberately small (H, RX, RY, RZ, CX); both embeddings
and every simulation backend speak exactly this set. Both embeddings couple
only neighbouring qubits of a linear chain, and their entangling blocks are
emitted in even/odd brickwork order so blocks on disjoint qubit pairs stack
in parallel layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, check_seed

ROTATION_KINDS = ("RX", "RY", "RZ")
GATE_KINDS = ("H", "CX") + ROTATION_KINDS


@dataclass(frozen=True)
class Gate:
    """One gate: kind, qubit operands (control first for CX), rotation angle."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        kind, qubits, angle = self.kind, self.qubits, self.angle
        if kind not in GATE_KINDS:
            raise ConfigError(f"unknown gate kind {kind!r}")
        want = 2 if kind == "CX" else 1
        if len(qubits) != want:
            raise ConfigError(f"{kind} needs {want} qubit operand(s)")
        for q in qubits:
            if not isinstance(q, int) or q < 0:
                raise ConfigError(f"{kind} needs {want} qubit operand(s)")
        if want == 2 and qubits[0] == qubits[1]:
            raise ConfigError("CX control and target must differ")
        if kind in ROTATION_KINDS:
            if angle is None or not math.isfinite(angle):
                raise ConfigError(f"{kind} needs a finite angle")
        elif angle is not None:
            raise ConfigError(f"{kind} takes no angle")


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ConfigError("circuit needs at least one qubit")
        n = self.n_qubits
        for g in self.gates:
            for q in g.qubits:
                if q >= n:
                    raise ConfigError(
                        f"gate {g.kind} on {g.qubits} exceeds {n} qubits")


@dataclass(frozen=True)
class CircuitStats:
    total_gates: int
    two_qubit_gates: int
    two_qubit_depth: int


def circuit_stats(circuit: Circuit) -> CircuitStats:
    """Gate counts plus greedy ASAP two-qubit depth (CX layers only)."""
    depth = [0] * circuit.n_qubits
    n_two = 0
    for g in circuit.gates:
        if g.kind == "CX":
            n_two += 1
            layer = max(depth[g.qubits[0]], depth[g.qubits[1]]) + 1
            depth[g.qubits[0]] = depth[g.qubits[1]] = layer
    return CircuitStats(len(circuit.gates), n_two, max(depth, default=0))


def simplify(circuit: Circuit) -> Circuit:
    """The same unitary with identity gates and cancelling pairs removed.

    Drops rotations by exactly 0.0, cancels H·H and same-operand CX·CX
    when no live gate sits between them on their qubits, and merges
    same-axis rotations on one qubit (dropping the merge when its angle is
    exactly 0.0). Each qubit keeps a stack of its live gates, so a
    cancellation exposes the gate below it and cancellations cascade.
    Merged angles are sums, so amplitudes can move in the last bits.
    """
    out: list[Gate | None] = []
    live: list[list[int]] = [[] for _ in range(circuit.n_qubits)]
    for g in circuit.gates:
        if g.angle == 0.0:  # a rotation by 0; H and CX carry None
            continue
        qubits = g.qubits
        below = live[qubits[0]]
        top = below[-1] if below else -1
        prev = out[top] if top >= 0 else None
        # prev pairs with g only on top of every qubit of g (a CX's last)
        if prev is not None and prev.kind == g.kind \
                and prev.qubits == qubits and live[qubits[-1]][-1] == top:
            angle = None if g.angle is None else prev.angle + g.angle
            if angle is None or angle == 0.0:
                out[top] = None
                for q in qubits:
                    live[q].pop()
            else:
                out[top] = Gate(g.kind, qubits, angle)
            continue
        for q in qubits:
            live[q].append(len(out))
        out.append(g)
    return Circuit(circuit.n_qubits, tuple(g for g in out if g is not None))


def _chain_pairs(n: int) -> list[tuple[int, int]]:
    # even-index pairs first, then odd: disjoint pairs share a depth layer
    return ([(j, j + 1) for j in range(0, n - 1, 2)]
            + [(j, j + 1) for j in range(1, n - 1, 2)])


def _check_features(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0 or not np.isfinite(x).all():
        raise DataError("feature vector must be 1-D, nonempty, finite")
    return x


def build_zz_feature_map(x, reps: int, scale: float) -> Circuit:
    """ZZ feature map: per rep, H on all, RZ(2*scale*x_j) on all, then a
    CX-RZ-CX block per chain pair (j, j+1) with angle 2*scale^2*x_j*x_{j+1}.
    """
    x = _check_features(x)
    n = x.size
    if not (isinstance(reps, int) and reps >= 1):
        raise ConfigError("reps must be an integer >= 1")
    if not (math.isfinite(scale) and scale > 0):
        raise ConfigError("scale must be positive and finite")
    rep = [Gate("H", (q,)) for q in range(n)]
    rep += [Gate("RZ", (q,), float(2.0 * scale * x[q])) for q in range(n)]
    for a, b in _chain_pairs(n):
        cx = Gate("CX", (a, b))
        rep += [cx, Gate("RZ", (b,), float(2.0 * scale * scale * x[a] * x[b])),
                cx]
    # every rep is the same gate sequence: build its gates once
    return Circuit(n, tuple(rep) * reps)


def build_heisenberg_embedding(x, steps: int, scale: float,
                               seed: int) -> Circuit:
    """Trotterized 1-D Heisenberg evolution on a chain of len(x)+1 qubits.

    A seeded random RY layer prepares the initial state; each Trotter step
    applies RXX, RYY, RZZ blocks per chain edge with angle
    scale * x_edge / steps, edges in brickwork order.
    """
    x = _check_features(x)
    n = x.size + 1
    if not (isinstance(steps, int) and steps >= 1):
        raise ConfigError("steps must be an integer >= 1")
    if not (math.isfinite(scale) and scale > 0):
        raise ConfigError("scale must be positive and finite")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 2.0 * math.pi, n)
    prep = tuple(Gate("RY", (q,), float(thetas[q])) for q in range(n))
    half = math.pi / 2
    step = []
    for a, b in _chain_pairs(n):
        h_a, h_b, cx = Gate("H", (a,)), Gate("H", (b,)), Gate("CX", (a, b))
        rz = Gate("RZ", (b,), float(scale * x[a] / steps))
        step += [h_a, h_b, cx, rz, cx, h_a, h_b]  # RXX
        step += [Gate("RX", (a,), half), Gate("RX", (b,), half), cx, rz, cx,
                 Gate("RX", (a,), -half), Gate("RX", (b,), -half)]  # RYY
        step += [cx, rz, cx]  # RZZ
    # every Trotter step is the same gate sequence: build its gates once
    return Circuit(n, prep + tuple(step) * steps)

