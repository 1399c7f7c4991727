"""Heisenberg-picture Pauli propagation with coefficient truncation.

Observables are sums of Pauli strings in the symplectic encoding: per-qubit
bits (x, z) with (0,0)=I, (1,0)=X, (0,1)=Z, (1,1)=Y, packed into one uint64
mask per string (so up to 64 qubits). Conjugating through H and CX permutes
strings with a sign; conjugating through a rotation splits each
anticommuting term into a cos branch and a sin branch. Terms are merged
after every splitting gate and coefficients below the truncation threshold
are dropped, which bounds the term count at the price of a controlled bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BackendError, ConfigError
from .circuits import Circuit

_U1 = np.uint64(1)


@dataclass(frozen=True, order=True)
class PauliString:
    """One Pauli string as x/z bit masks (qubit q = bit q)."""

    x_mask: int
    z_mask: int

    def __post_init__(self):
        if self.x_mask < 0 or self.z_mask < 0:
            raise ConfigError("Pauli masks must be nonnegative")

    @classmethod
    def single(cls, qubit: int, basis: str) -> "PauliString":
        if basis == "X":
            return cls(1 << qubit, 0)
        if basis == "Y":
            return cls(1 << qubit, 1 << qubit)
        if basis == "Z":
            return cls(0, 1 << qubit)
        raise ConfigError(f"basis must be X, Y, or Z, got {basis!r}")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        x = z = 0
        for q, ch in enumerate(label):
            if ch in "XY":
                x |= 1 << q
            if ch in "ZY":
                z |= 1 << q
            if ch not in "IXYZ":
                raise ConfigError(f"bad Pauli label {label!r}")
        return cls(x, z)

    def label(self, n_qubits: int) -> str:
        out = []
        for q in range(n_qubits):
            x, z = (self.x_mask >> q) & 1, (self.z_mask >> q) & 1
            out.append("IXZY"[x + 2 * z])
        return "".join(out)

    @property
    def weight(self) -> int:
        return bin(self.x_mask | self.z_mask).count("1")


class ObservableSum:
    """Real-coefficient sum of Pauli strings; zero coefficients never stored."""

    __slots__ = ("xs", "zs", "cs")

    def __init__(self, terms=None):
        items = sorted((terms or {}).items(),
                       key=lambda kv: (kv[0].z_mask, kv[0].x_mask))
        items = [(p, float(c)) for p, c in items if float(c) != 0.0]
        self.xs = np.array([p.x_mask for p, _ in items], dtype=np.uint64)
        self.zs = np.array([p.z_mask for p, _ in items], dtype=np.uint64)
        self.cs = np.array([c for _, c in items], dtype=np.float64)

    @classmethod
    def _from_arrays(cls, xs, zs, cs) -> "ObservableSum":
        obs = cls()
        obs.xs, obs.zs, obs.cs = xs, zs, cs
        return obs

    def __len__(self) -> int:
        return int(self.cs.size)

    def terms(self) -> dict[PauliString, float]:
        return {PauliString(int(x), int(z)): float(c)
                for x, z, c in zip(self.xs, self.zs, self.cs)}

    def coefficient(self, pauli: PauliString) -> float:
        hit = (self.xs == np.uint64(pauli.x_mask)) \
            & (self.zs == np.uint64(pauli.z_mask))
        return float(self.cs[hit].sum())

    def sum_sq(self) -> float:
        """Sum of squared coefficients (invariant under exact conjugation)."""
        return float(np.dot(self.cs, self.cs))


def _merged(xs, zs, cs, threshold: float):
    if cs.size:
        order = np.lexsort((xs, zs))
        xs, zs, cs = xs[order], zs[order], cs[order]
        first = np.empty(cs.size, dtype=bool)
        first[0] = True
        first[1:] = (xs[1:] != xs[:-1]) | (zs[1:] != zs[:-1])
        starts = np.flatnonzero(first)
        sums = np.add.reduceat(cs, starts)
        keep = np.abs(sums) >= threshold if threshold > 0 else sums != 0.0
        xs, zs, cs = xs[starts][keep], zs[starts][keep], sums[keep]
    return xs, zs, cs


def _bit(masks, q: int):
    return (masks >> np.uint64(q)) & _U1


def backpropagate_observable(circuit: Circuit, obs: ObservableSum,
                             threshold: float) -> ObservableSum:
    """Conjugate obs backwards through the circuit, truncating per gate.

    The returned sum O' satisfies <0|O'|0> = <psi|O|psi> exactly at
    threshold 0; positive thresholds trade accuracy for term count.
    """
    if not (isinstance(threshold, (int, float)) and math.isfinite(threshold)
            and threshold >= 0):
        raise ConfigError("threshold must be a finite nonnegative number")
    if circuit.n_qubits > 64:
        raise BackendError("obp backend packs masks into 64-bit words")
    xs, zs, cs = obs.xs.copy(), obs.zs.copy(), obs.cs.copy()
    full = (_U1 << np.uint64(circuit.n_qubits)) - _U1 \
        if circuit.n_qubits < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    if cs.size and ((xs | zs) & ~full).any():
        raise ConfigError("observable acts outside the circuit's qubits")
    support = np.bitwise_or.reduce(xs | zs) if cs.size else np.uint64(0)
    for g in reversed(circuit.gates):
        gate_mask = np.uint64(0)
        for q in g.qubits:
            gate_mask |= _U1 << np.uint64(q)
        if not (gate_mask & support):
            continue  # identity on every term
        if g.kind == "H":
            q = g.qubits[0]
            xq, zq = _bit(xs, q), _bit(zs, q)
            cs = np.where((xq & zq).astype(bool), -cs, cs)
            flip = (xq ^ zq) << np.uint64(q)
            xs, zs = xs ^ flip, zs ^ flip
        elif g.kind == "CX":
            c, t = g.qubits
            xc, zt = _bit(xs, c), _bit(zs, t)
            xt, zc = _bit(xs, t), _bit(zs, c)
            neg = (xc & zt & (_U1 ^ (xt ^ zc))).astype(bool)
            cs = np.where(neg, -cs, cs)
            xs = xs ^ (xc << np.uint64(t))
            zs = zs ^ (zt << np.uint64(c))
        else:
            q = g.qubits[0]
            xq, zq = _bit(xs, q), _bit(zs, q)
            if g.kind == "RZ":
                anti = xq.astype(bool)
                flip_x, flip_z = np.uint64(0), _U1 << np.uint64(q)
                sign = np.where(zq.astype(bool), 1.0, -1.0)
            elif g.kind == "RX":
                anti = zq.astype(bool)
                flip_x, flip_z = _U1 << np.uint64(q), np.uint64(0)
                sign = np.where(xq.astype(bool), -1.0, 1.0)
            else:  # RY
                anti = (xq ^ zq).astype(bool)
                flip_x = flip_z = _U1 << np.uint64(q)
                sign = np.where(xq.astype(bool), 1.0, -1.0)
            if anti.any():
                cos_t, sin_t = math.cos(g.angle), math.sin(g.angle)
                branch_x = xs[anti] ^ flip_x
                branch_z = zs[anti] ^ flip_z
                branch_c = cs[anti] * sign[anti] * sin_t
                cs = cs.copy()
                cs[anti] *= cos_t
                if sin_t != 0.0:
                    xs = np.concatenate([xs, branch_x])
                    zs = np.concatenate([zs, branch_z])
                    cs = np.concatenate([cs, branch_c])
                xs, zs, cs = _merged(xs, zs, cs, float(threshold))
        support = np.bitwise_or.reduce(xs | zs) if cs.size else np.uint64(0)
    return ObservableSum._from_arrays(xs, zs, cs)


def obp_expectation(obs: ObservableSum) -> float:
    """<0...0| obs |0...0>: only x-free (I/Z) strings contribute, each +c."""
    if not len(obs):
        return 0.0
    return float(obs.cs[obs.xs == np.uint64(0)].sum())
