"""Dense statevector simulation and exact single-qubit readout.

Qubit q maps to axis q of the state reshaped to [2]*n, so qubit 0 is the
most significant index. The simulator is the ground truth the
operator-backpropagation engine is checked against. The shots backend
samples from its exact values: ``binomial_estimate`` turns each one into a
seeded finite-shot estimate.

``bloch_vectors`` reads every qubit's (X, Y, Z) exactly without holding
the whole register: after ``circuits.simplify`` the qubits split into
clusters that no CX joins, and each cluster is simulated on its own. The
width limit, ``DEFAULT_QUBIT_CAP``, applies to the largest cluster, not to
the qubit count, so one-hot rows at 60-61 qubits are served exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BackendError, ConfigError
from .circuits import Circuit, Gate, simplify

DEFAULT_QUBIT_CAP = 26

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


def _rotation(kind: str, angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    if kind == "RZ":
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]])
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    return np.array([[c, -s], [s, c]], dtype=np.complex128)  # RY


def _apply_1q(psi: np.ndarray, n: int, q: int, U: np.ndarray) -> np.ndarray:
    t = np.moveaxis(psi.reshape([2] * n), q, 0)
    t = np.tensordot(U, t, axes=(1, 0))
    return np.moveaxis(t, 0, q).reshape(-1)


def _apply_cx(psi: np.ndarray, n: int, c: int, t: int) -> np.ndarray:
    view = np.moveaxis(psi.reshape([2] * n), (c, t), (0, 1))
    out = view.copy()
    out[1, 0], out[1, 1] = view[1, 1], view[1, 0]
    return np.moveaxis(out, (0, 1), (c, t)).reshape(-1)


def simulate(circuit: Circuit) -> np.ndarray:
    """Run the circuit on |0...0> and return the final amplitudes."""
    n = circuit.n_qubits
    if n > DEFAULT_QUBIT_CAP:
        raise BackendError(
            f"statevector backend capped at {DEFAULT_QUBIT_CAP} qubits "
            f"(circuit has {n}); use the obp backend")
    psi = np.zeros(2 ** n, dtype=np.complex128)
    psi[0] = 1.0
    for g in circuit.gates:
        if g.kind == "CX":
            psi = _apply_cx(psi, n, *g.qubits)
        elif g.kind == "H":
            psi = _apply_1q(psi, n, g.qubits[0], _H)
        else:
            psi = _apply_1q(psi, n, g.qubits[0], _rotation(g.kind, g.angle))
    norm = float(np.vdot(psi, psi).real)
    if not abs(norm - 1.0) < 1e-10:
        raise BackendError(f"state norm drifted to {norm}")
    return psi


def _n_qubits_of(state: np.ndarray) -> int:
    n = int(round(math.log2(state.size)))
    if 2 ** n != state.size:
        raise BackendError("state length is not a power of two")
    return n


def pauli_expectation(state: np.ndarray, qubit: int, basis: str) -> float:
    """<state| P_qubit |state> for P in {X, Y, Z}; exact, always real."""
    n = _n_qubits_of(state)
    if not 0 <= qubit < n:
        raise ConfigError(f"qubit {qubit} out of range for {n} qubits")
    view = np.moveaxis(state.reshape([2] * n), qubit, 0)
    a0, a1 = view[0].reshape(-1), view[1].reshape(-1)
    if basis == "Z":
        val = float(np.vdot(a0, a0).real - np.vdot(a1, a1).real)
    elif basis == "X":
        val = 2.0 * float(np.vdot(a0, a1).real)
    elif basis == "Y":
        val = 2.0 * float(np.vdot(a0, a1).imag)
    else:
        raise ConfigError(f"basis must be X, Y, or Z, got {basis!r}")
    return val


def _clusters(circuit: Circuit) -> list[list[int]]:
    """Qubits grouped by CX connectivity (union-find), untouched qubits
    left out; each cluster sorted, clusters ordered by their first qubit."""
    parent = list(range(circuit.n_qubits))

    def root(q: int) -> int:
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    touched = set()
    for g in circuit.gates:
        touched.update(g.qubits)
        if g.kind == "CX":
            a, b = root(g.qubits[0]), root(g.qubits[1])
            parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for q in sorted(touched):
        groups.setdefault(root(q), []).append(q)
    return list(groups.values())


def bloch_vectors(circuit: Circuit) -> np.ndarray:
    """Exact (X, Y, Z) of every qubit, shape (n_qubits, 3).

    Simulates each CX-connected cluster of the simplified circuit on its
    own; a qubit no gate touches reads (0, 0, 1). A cluster wider than
    ``DEFAULT_QUBIT_CAP`` raises ``BackendError`` before anything is
    simulated.
    """
    circuit = simplify(circuit)
    clusters = _clusters(circuit)
    widest = max(map(len, clusters), default=0)
    if widest > DEFAULT_QUBIT_CAP:
        raise BackendError(
            f"statevector backend capped at {DEFAULT_QUBIT_CAP} qubits per "
            f"entangled cluster (largest has {widest}); use the obp backend")
    where = {q: (k, i) for k, c in enumerate(clusters)
             for i, q in enumerate(c)}
    gates: list[list[Gate]] = [[] for _ in clusters]
    for g in circuit.gates:
        gates[where[g.qubits[0]][0]].append(
            Gate(g.kind, tuple(where[q][1] for q in g.qubits), g.angle))
    out = np.zeros((circuit.n_qubits, 3))
    out[:, 2] = 1.0
    for cluster, local in zip(clusters, gates):
        # module-level names, so a wrapper set on the module applies
        psi = simulate(Circuit(len(cluster), tuple(local)))
        for i, q in enumerate(cluster):
            out[q] = [pauli_expectation(psi, i, b) for b in "XYZ"]
    return out


def binomial_estimate(value: float, shots: int, seed: int) -> float:
    """Finite-shot estimate of an expectation ``value`` in [-1, 1]: the mean
    of ``shots`` +-1 outcomes drawn from one seeded binomial."""
    p_up = min(max((1.0 + value) / 2.0, 0.0), 1.0)
    ups = int(np.random.default_rng(seed).binomial(shots, p_up))
    return (2 * ups - shots) / shots
