"""Seeded inputs for the benchmark workloads.

Everything the program under test receives is made here from one integer
seed: distinct motif constructs on the default 60-bit layout, labels from a
noisy motif rule, and the stand-in projected-feature matrix of the screen
workload. The same seed always gives the same inputs.

Shares are fixed counts rather than independent draws (construct lengths,
label classes, flipped labels), and the rule's signal is standardised, so
that every seed poses a problem of the same size and difficulty and only
the particular constructs and labels change.
"""

from __future__ import annotations

import numpy as np

from motifqk import data

MOTIFS = tuple(f"M{i}" for i in range(1, 14))
LENGTH_SHARES = (0.05, 0.3, 0.65)  # of 1-, 2- and 3-motif constructs
HIGH_SHARE = 0.5  # constructs labelled high by the rule
NOISE_SCALE = 1.0  # rule noise, relative to the standardised signal
FLIP_SHARE = 0.1  # labels flipped after the rule


def make_constructs(n: int, seed: int) -> list[data.Construct]:
    """``n`` distinct constructs of 1-3 motifs with cytotoxicity scores.

    A seeded linear rule weights every (position, motif) slot. A
    construct's score is its standardised rule signal plus Gaussian noise;
    the ``HIGH_SHARE`` lowest scores get a cytotoxicity below the
    binarisation threshold (label high), the rest above it, and then a
    ``FLIP_SHARE`` of the constructs move to the other side.
    """
    rng = np.random.default_rng(seed)
    counts = [round(share * n) for share in LENGTH_SHARES[:2]]
    counts.append(n - sum(counts))
    if any(c > len(MOTIFS) ** k for k, c in enumerate(counts, start=1)):
        raise ValueError(f"cannot draw {n} distinct constructs")
    seen: set[tuple[str, ...]] = set()
    motif_sets: list[tuple[str, ...]] = []
    for length, count in enumerate(counts, start=1):
        while len(motif_sets) < sum(counts[:length]):
            ms = tuple(MOTIFS[i] for i in rng.integers(0, len(MOTIFS), length))
            if ms not in seen:
                seen.add(ms)
                motif_sets.append(ms)
    order = rng.permutation(n)
    motif_sets = [motif_sets[i] for i in order]

    weights = rng.normal(size=(3, len(MOTIFS)))
    signal = np.array([sum(weights[p, MOTIFS.index(m)]
                           for p, m in enumerate(ms)) for ms in motif_sets])
    signal = (signal - signal.mean()) / signal.std()
    score = signal + rng.normal(scale=NOISE_SCALE, size=n)
    high = np.zeros(n, dtype=bool)
    high[np.argsort(score)[:round(HIGH_SHARE * n)]] = True
    high[rng.choice(n, round(FLIP_SHARE * n), replace=False)] ^= True
    # cytotoxicity uniform within each side of the binarisation threshold
    t = data.CYTOTOXICITY_THRESHOLD
    u = rng.uniform(0.05, 0.95, size=n)
    cyto = np.where(high, t * u, t + (1.0 - t) * u)
    return [data.Construct(ms, float(c)) for ms, c in zip(motif_sets, cyto)]


def make_bloch_features(n_rows: int, n_qubits: int, seed: int) -> np.ndarray:
    """Stand-in projected features: every qubit triple inside the Bloch ball.

    Directions are uniform on the sphere and radii uniform in [0.2, 0.95],
    so no triple leaves the ball and rows are distinct almost surely (the
    caller checks).
    """
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n_rows, n_qubits, 3))
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    v *= rng.uniform(0.2, 0.95, size=(n_rows, n_qubits, 1))
    return v.reshape(n_rows, 3 * n_qubits)
