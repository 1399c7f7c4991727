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
``obp_expectations`` reads every observable of a stack at once.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BackendError, ConfigError, check_real
from .circuits import Circuit

_U1 = np.uint64(1)


class ObservableSum:
    """A stack of observables, each a real-coefficient sum of Pauli strings.

    ``xs``, ``zs`` and ``cs`` hold the terms' masks and coefficients; zero
    coefficients are never stored. ``ids`` says which observable of the
    stack each term belongs to, and ``n_obs`` how many observables the
    stack holds (an observable may have no terms). Each observable's terms
    are contiguous, in increasing id order. ``single_qubit_stack`` builds
    the stack that features read and ``backpropagate_observable`` returns
    its propagated form, both through ``_from_arrays``.
    """

    __slots__ = ("xs", "zs", "cs", "ids", "n_obs")

    @classmethod
    def _from_arrays(cls, xs, zs, cs, ids, n_obs) -> "ObservableSum":
        obs = cls.__new__(cls)
        obs.xs, obs.zs, obs.cs, obs.ids, obs.n_obs = xs, zs, cs, ids, n_obs
        return obs

    @classmethod
    def single_qubit_stack(cls, n_qubits: int) -> "ObservableSum":
        """X, Y and Z of every qubit, one observable each, coefficient 1.

        Observable 3q + k is basis k of (X, Y, Z) on qubit q.
        """
        if n_qubits > 64:
            raise BackendError("obp backend packs masks into 64-bit words")
        # X, Y, Z set the x bits (1, 1, 0) and the z bits (0, 1, 1)
        one = _U1 << np.arange(n_qubits, dtype=np.uint64)[:, None]
        n_obs = 3 * n_qubits
        return cls._from_arrays(
            (one * np.array([1, 1, 0], dtype=np.uint64)).reshape(-1),
            (one * np.array([0, 1, 1], dtype=np.uint64)).reshape(-1),
            np.ones(n_obs), np.arange(n_obs, dtype=np.intp), n_obs)

    def __len__(self) -> int:
        """Number of terms, summed over every observable of the stack."""
        return int(self.cs.size)


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
    check_real(threshold, "threshold", 0.0)
    if circuit.n_qubits > 64:
        raise BackendError("obp backend packs masks into 64-bit words")
    xs, zs, cs, ids = obs.xs.copy(), obs.zs.copy(), obs.cs.copy(), obs.ids
    full = (_U1 << np.uint64(circuit.n_qubits)) - _U1 \
        if circuit.n_qubits < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    if cs.size and ((xs | zs) & ~full).any():
        raise ConfigError("observable acts outside the circuit's qubits")
    for g in reversed(circuit.gates):
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
