"""Heisenberg-picture Pauli propagation with coefficient truncation.

Observables are sums of Pauli strings in the symplectic encoding: per-qubit
bits (x, z) with (0,0)=I, (1,0)=X, (0,1)=Z, (1,1)=Y, packed into one uint64
mask per string (so up to 64 qubits). Conjugating through H and CX permutes
strings with a sign; conjugating through a rotation splits each
anticommuting term into a cos branch and a sin branch. Terms are merged
after every splitting gate and coefficients below the truncation threshold
are dropped, which bounds the term count at the price of a controlled bias.

Many observables propagate in one pass as a stack: their terms are
concatenated, and an id column says which observable each term belongs
to. The per-gate work then runs once on all terms instead of once per
observable. Merging sorts by (id, z, x): the id leads, so terms of
different observables never merge and each observable's terms stay
contiguous. Within an observable the stable sort sees the same terms in
the same order as when that observable is propagated alone, and an
observable is merged and truncated only after a gate that splits one of
its own terms. Every sum, truncation decision and final expectation
therefore sees the same numbers in the same order, and a stack gives
bit-identical results to propagating each observable by itself.
``obp_expectations`` reads every observable of a stack at once; a single
observable is a stack of one.
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


class ObservableSum:
    """Real-coefficient sums of Pauli strings: one observable or a stack.

    ``xs``, ``zs`` and ``cs`` hold the terms' masks and coefficients; zero
    coefficients are never stored. ``ids`` says which observable of the
    stack each term belongs to, and ``n_obs`` how many observables the
    stack holds (an observable may have no terms). A sum built from a dict
    of terms is a stack of one; ``stack`` concatenates sums. Each
    observable's terms are contiguous, in increasing id order.
    """

    __slots__ = ("xs", "zs", "cs", "ids", "n_obs")

    def __init__(self, terms=None):
        items = sorted((terms or {}).items(),
                       key=lambda kv: (kv[0].z_mask, kv[0].x_mask))
        items = [(p, float(c)) for p, c in items if float(c) != 0.0]
        self.xs = np.array([p.x_mask for p, _ in items], dtype=np.uint64)
        self.zs = np.array([p.z_mask for p, _ in items], dtype=np.uint64)
        self.cs = np.array([c for _, c in items], dtype=np.float64)
        self.ids = np.zeros(len(items), dtype=np.intp)
        self.n_obs = 1

    @classmethod
    def _from_arrays(cls, xs, zs, cs, ids, n_obs) -> "ObservableSum":
        obs = cls()
        obs.xs, obs.zs, obs.cs, obs.ids, obs.n_obs = xs, zs, cs, ids, n_obs
        return obs

    @classmethod
    def single_qubit_stack(cls, n_qubits: int) -> "ObservableSum":
        """X, Y and Z of every qubit, one observable each, coefficient 1.

        Observable 3q + k is basis k of (X, Y, Z) on qubit q: the same
        stack, field for field, as stacking the one-term sums
        {PauliString.single(q, b): 1.0} qubit by qubit.
        """
        if n_qubits > 64:
            raise BackendError("obp backend packs masks into 64-bit words")
        one = _U1 << np.arange(n_qubits, dtype=np.uint64)
        zero = np.zeros_like(one)
        n_obs = 3 * n_qubits
        return cls._from_arrays(
            np.stack([one, one, zero], axis=1).reshape(-1),
            np.stack([zero, one, one], axis=1).reshape(-1),
            np.ones(n_obs), np.arange(n_obs, dtype=np.intp), n_obs)

    @classmethod
    def stack(cls, sums) -> "ObservableSum":
        """One stack of the observables of one or more sums, in order."""
        sums = list(sums)
        offsets = np.cumsum([0] + [s.n_obs for s in sums])
        return cls._from_arrays(
            np.concatenate([s.xs for s in sums]),
            np.concatenate([s.zs for s in sums]),
            np.concatenate([s.cs for s in sums]),
            np.concatenate([s.ids + o for s, o in zip(sums, offsets)]),
            int(offsets[-1]))

    def __len__(self) -> int:
        """Number of terms, summed over every observable of the stack."""
        return int(self.cs.size)

    def terms(self) -> dict[PauliString, float]:
        """The terms of a one-observable sum, by Pauli string."""
        if self.n_obs != 1:
            raise ConfigError(
                f"expected one observable, got a stack of {self.n_obs}")
        return {PauliString(int(x), int(z)): float(c)
                for x, z, c in zip(self.xs, self.zs, self.cs)}


def _merged(xs, zs, cs, ids, touched, threshold: float):
    """Sum equal strings of each touched observable, then truncate them.

    Terms sort by (id, z, x). An observable the gate left alone
    (``touched[id]`` false) gets all-zero (z, x) keys, so the stable sort
    keeps its terms in their current order and its coefficients are
    neither summed nor truncated: exactly as when it is propagated alone.
    """
    live = touched[ids]
    zero = np.uint64(0)
    order = np.lexsort((np.where(live, xs, zero), np.where(live, zs, zero),
                        ids))
    xs, zs, cs, ids = xs[order], zs[order], cs[order], ids[order]
    first = np.empty(cs.size, dtype=bool)
    first[0] = True
    first[1:] = (xs[1:] != xs[:-1]) | (zs[1:] != zs[:-1]) \
        | (ids[1:] != ids[:-1])
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(cs, starts)
    xs, zs, ids = xs[starts], zs[starts], ids[starts]
    keep = np.abs(sums) >= threshold if threshold > 0 else sums != 0.0
    keep |= ~touched[ids]
    return xs[keep], zs[keep], sums[keep], ids[keep]


def _bit(masks, q: int):
    return (masks >> np.uint64(q)) & _U1


def backpropagate_observable(circuit: Circuit, obs: ObservableSum,
                             threshold: float) -> ObservableSum:
    """Conjugate every observable of obs backwards through the circuit.

    For each observable O of the stack the returned O' satisfies
    <0|O'|0> = <psi|O|psi> exactly at threshold 0; positive thresholds
    trade accuracy for term count. Each gate acts on the concatenated
    terms of all observables at once, and after each splitting gate the
    terms are merged and truncated per observable (see ``_merged``), so
    every observable comes out with the same terms, coefficients and term
    order, bit for bit, as when it is propagated alone.
    """
    if not (isinstance(threshold, (int, float)) and math.isfinite(threshold)
            and threshold >= 0):
        raise ConfigError("threshold must be a finite nonnegative number")
    if circuit.n_qubits > 64:
        raise BackendError("obp backend packs masks into 64-bit words")
    xs, zs, cs, ids = obs.xs.copy(), obs.zs.copy(), obs.cs.copy(), obs.ids
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
                touched = np.zeros(obs.n_obs, dtype=bool)
                touched[ids[anti]] = True
                branch_x = xs[anti] ^ flip_x
                branch_z = zs[anti] ^ flip_z
                branch_c = cs[anti] * sign[anti] * sin_t
                branch_ids = ids[anti]
                cs = cs.copy()
                cs[anti] *= cos_t
                if sin_t != 0.0:
                    xs = np.concatenate([xs, branch_x])
                    zs = np.concatenate([zs, branch_z])
                    cs = np.concatenate([cs, branch_c])
                    ids = np.concatenate([ids, branch_ids])
                xs, zs, cs, ids = _merged(xs, zs, cs, ids, touched,
                                          float(threshold))
        support = np.bitwise_or.reduce(xs | zs) if cs.size else np.uint64(0)
    return ObservableSum._from_arrays(xs, zs, cs, ids, obs.n_obs)


def obp_expectations(obs: ObservableSum) -> np.ndarray:
    """<0...0| O |0...0> for each observable O of the stack, in order.

    Only x-free (I/Z) strings contribute, each with +c; each observable's
    sum runs over its own contiguous slice of terms.
    """
    bounds = np.searchsorted(obs.ids, np.arange(obs.n_obs + 1))
    return np.array([obs.cs[s:e][obs.xs[s:e] == np.uint64(0)].sum()
                     for s, e in zip(bounds[:-1], bounds[1:])],
                    dtype=np.float64)
