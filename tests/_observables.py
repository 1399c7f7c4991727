"""Observables for the Pauli propagation tests, spelled as Pauli labels.

A label has one character of I, X, Y, Z per qubit, qubit 0 first;
trailing identities may be left out, so ``"I" * q + "Z"`` is Z on qubit q.
"""

import numpy as np

from motifqk.pauliprop import ObservableSum


def _masks(label: str) -> tuple[int, int]:
    if set(label) - set("IXYZ"):
        raise ValueError(f"bad Pauli label {label!r}")
    x = sum(1 << q for q, ch in enumerate(label) if ch in "XY")
    z = sum(1 << q for q, ch in enumerate(label) if ch in "ZY")
    return x, z


def observables(*sums: dict[str, float]) -> ObservableSum:
    """One stack of the {label: coefficient} sums, in order, each sum's
    terms sorted by (z, x) mask and its zero coefficients dropped."""
    terms = sorted((k, *_masks(label)[::-1], float(c))
                   for k, s in enumerate(sums) for label, c in s.items()
                   if c != 0)
    ids, zs, xs, cs = zip(*terms) if terms else ((),) * 4
    return ObservableSum._from_arrays(
        np.array(xs, dtype=np.uint64), np.array(zs, dtype=np.uint64),
        np.array(cs, dtype=np.float64), np.array(ids, dtype=np.intp),
        len(sums))


def labels(obs: ObservableSum, n_qubits: int) -> dict[str, float]:
    """The terms of a one-observable stack as {label: coefficient}."""
    if obs.n_obs != 1:
        raise ValueError(f"expected one observable, got {obs.n_obs}")
    return {"".join("IXZY"[(int(x) >> q & 1) + 2 * (int(z) >> q & 1)]
                    for q in range(n_qubits)): float(c)
            for x, z, c in zip(obs.xs, obs.zs, obs.cs)}
