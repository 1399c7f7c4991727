"""The SMO trainer as it stood before its pair loop moved to incremental
state, kept verbatim as a bit-identity oracle for ``motifqk.svm.smo_train``.

It rebuilds the up/down masks, the masked scores and the gradient update
from freshly allocated arrays on every pair update; the production loop
must reach the same ``alpha``, bias bytes and warnings.
"""

import math
import warnings

import numpy as np

from motifqk.errors import ConfigError, DataError
from motifqk.kernels import KernelSpec, kernel_matrix, resolve_gamma
from motifqk.svm import SvmModel, _check_solution


def _violating_pair(score, yf, alpha, C: float, eps: float):
    """Maximal violating pair (i, m, j, M): i maximizes the score over the
    indices that may move up, j minimizes it over those that may move down;
    m - M bounds the duality gap."""
    up = ((yf > 0) & (alpha < C - eps)) | ((yf < 0) & (alpha > eps))
    down = ((yf > 0) & (alpha > eps)) | ((yf < 0) & (alpha < C - eps))
    up_score = np.where(up, score, -np.inf)
    down_score = np.where(down, score, np.inf)
    i = int(np.argmax(up_score))
    j = int(np.argmin(down_score))
    return i, float(up_score[i]), j, float(down_score[j])



def reference_smo_train(X, y, spec: KernelSpec, C: float, tol: float = 1e-3,
              max_passes: int = 200) -> SvmModel:
    """Solve the soft-margin dual for one kernel/C setting.

    ``max_passes`` bounds the work at max_passes * N pair updates; hitting
    it raises a convergence warning rather than an error. A result that
    breaks the equality constraint, or a converged one that breaks the KKT
    conditions, raises ``SolverError``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise DataError("X must be 2-D with one label per row")
    if not np.isin(y, (-1, 1)).all():
        raise DataError("labels must be -1/+1")
    if len(np.unique(y)) < 2:
        raise DataError("training data must contain both classes")
    if not (math.isfinite(C) and C > 0):
        raise ConfigError("C must be positive and finite")
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError("tol must be positive")
    N = X.shape[0]
    yf = y.astype(np.float64)
    gamma = resolve_gamma(spec, X)
    K = kernel_matrix(X, spec, gamma=gamma)
    Q = K * np.outer(yf, yf)
    alpha = np.zeros(N)
    grad = -np.ones(N)
    eps = 1e-12
    converged = False
    for _ in range(max_passes * N):
        i, m, j, M = _violating_pair(-yf * grad, yf, alpha, C, eps)
        if m - M <= tol:
            converged = True
            break
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta <= 0:
            eta = 1e-12
        Ei, Ej = yf[i] * grad[i], yf[j] * grad[j]
        ai_old, aj_old = alpha[i], alpha[j]
        if yf[i] != yf[j]:
            L = max(0.0, aj_old - ai_old)
            H = min(C, C + aj_old - ai_old)
        else:
            L = max(0.0, ai_old + aj_old - C)
            H = min(C, ai_old + aj_old)
        aj = min(max(aj_old + yf[j] * (Ei - Ej) / eta, L), H)
        if abs(aj - aj_old) < 1e-15:
            warnings.warn("SMO stalled before reaching tolerance",
                          RuntimeWarning)
            break
        ai = ai_old + yf[i] * yf[j] * (aj_old - aj)
        alpha[i], alpha[j] = ai, aj
        grad += Q[:, i] * (ai - ai_old) + Q[:, j] * (aj - aj_old)
    score = -yf * grad
    if not converged:
        _, m, _, M = _violating_pair(score, yf, alpha, C, eps)
        if m - M > tol:
            warnings.warn(
                f"SMO hit max_passes with duality gap {m - M:.3e} > {tol}",
                RuntimeWarning)
    free = (alpha > C * 1e-8) & (alpha < C * (1.0 - 1e-8))
    if free.any():
        bias = float(np.mean(score[free]))
    else:
        _, m, _, M = _violating_pair(score, yf, alpha, C, eps)
        bias = (m + M) / 2.0
    margins = yf * (K @ (alpha * yf) + bias) if converged else None
    _check_solution(alpha, yf, margins, C, tol + 1e-8)
    sv = alpha > C * 1e-8
    idx = np.flatnonzero(sv)
    return SvmModel(spec, float(C), gamma, idx,
                    (alpha * yf)[idx], X[idx].copy(), bias)
