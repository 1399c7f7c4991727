"""Correlation ordering as it stood before it moved to one integer
co-occurrence matrix, kept verbatim as an order-identity oracle for
``motifqk.data.correlation_order``.

It calls a per-pair ``matthews_corr`` for every column pair and runs
complete linkage over a dict of pair distances; the production version
must return the same leaf order on every input.
"""

import math

import numpy as np

from motifqk.errors import DataError


def matthews_corr(a, b) -> float:
    """Matthews correlation of two binary vectors; 0 when a margin is empty."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise DataError("matthews_corr needs two equal-length nonempty vectors")
    if not (np.isin(a, (0, 1)).all() and np.isin(b, (0, 1)).all()):
        raise DataError("matthews_corr inputs must be binary")
    n11 = int(np.sum((a == 1) & (b == 1)))
    n10 = int(np.sum((a == 1) & (b == 0)))
    n01 = int(np.sum((a == 0) & (b == 1)))
    n00 = int(np.sum((a == 0) & (b == 0)))
    denom_sq = (n11 + n10) * (n01 + n00) * (n11 + n01) * (n10 + n00)
    if denom_sq == 0:
        return 0.0
    return (n11 * n00 - n10 * n01) / math.sqrt(denom_sq)


def correlation_order(bits) -> list[int]:
    """Dendrogram leaf order from complete-linkage clustering of bit columns.

    Distance between columns is 1 - MCC. Ties in the merge step go to the
    pair with the smaller (older) cluster indices, which makes the output a
    deterministic function of the input matrix.
    """
    X = np.asarray(bits)
    if X.ndim != 2 or X.shape[1] < 2:
        raise DataError("correlation_order needs a 2-D matrix with >= 2 columns")
    d = X.shape[1]
    dist: dict[tuple[int, int], float] = {}
    for i in range(d):
        for j in range(i + 1, d):
            dist[(i, j)] = 1.0 - matthews_corr(X[:, i], X[:, j])
    members: dict[int, list[int]] = {i: [i] for i in range(d)}
    next_id = d
    while len(members) > 1:
        i, j = min(dist, key=lambda p: (dist[p], p))
        del dist[(i, j)]
        merged = members.pop(i) + members.pop(j)
        for k in members:
            dik = dist.pop((min(i, k), max(i, k)))
            djk = dist.pop((min(j, k), max(j, k)))
            dist[(k, next_id)] = max(dik, djk)
        members[next_id] = merged
        next_id += 1
    return members[next_id - 1]
