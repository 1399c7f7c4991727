"""Dense statevector simulation for circuits small enough to hold in memory.

Qubit q maps to axis q of the state reshaped to [2]*n, so qubit 0 is the
most significant index. The simulator is the ground-truth backend for
cross-checking the operator-backpropagation engine and for shot sampling.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BackendError, ConfigError
from .circuits import Circuit

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


def simulate(circuit: Circuit,
             qubit_cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Run the circuit on |0...0> and return the final amplitudes."""
    n = circuit.n_qubits
    if n > qubit_cap:
        raise BackendError(
            f"statevector backend capped at {qubit_cap} qubits "
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


def binomial_estimate(value: float, shots: int, seed: int) -> float:
    """Finite-shot estimate of an expectation ``value`` in [-1, 1]: the mean
    of ``shots`` +-1 outcomes drawn from one seeded binomial."""
    p_up = min(max((1.0 + value) / 2.0, 0.0), 1.0)
    ups = int(np.random.default_rng(seed).binomial(shots, p_up))
    return (2 * ups - shots) / shots


def sample_expectation(state: np.ndarray, qubit: int, basis: str,
                       shots: int, seed: int) -> float:
    """Finite-shot estimate of a Pauli expectation via binomial sampling."""
    if not (isinstance(shots, int) and shots >= 1):
        raise ConfigError("shots must be an integer >= 1")
    return binomial_estimate(pauli_expectation(state, qubit, basis), shots,
                             seed)
