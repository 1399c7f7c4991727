"""Kernel SVM via sequential minimal optimization, plus grid-search tooling.

The solver keeps the full gradient and always optimizes the maximal
violating pair, stopping when the duality-gap bound m - M drops below tol;
that guarantees the KKT conditions hold within tol for the returned bias.

One pair update costs a fixed number of numpy calls on preallocated
buffers. Which indices may move up or down is kept as two additive bias
vectors (0 or -/+inf on the score), and only the two entries that moved
are updated after a step. The gradient update reads rows Q[i], Q[j] in
place of columns: ``kernel_matrix`` returns (K + K.T) / 2, which is
symmetric bit for bit, and so is Q = K * outer(y, y), so rows and columns
are the same numbers in contiguous memory. Every floating-point operation,
and its order, is that of a loop that rebuilds these arrays on each step
(kept in the tests as the reference), so fits match it bit for bit.

Grid search evaluates candidates in declared order under shared stratified
folds so results are exactly reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, SolverError
from .kernels import KernelSpec, kernel_matrix, resolve_gamma

MODEL_FORMAT = "motifqk-svm-v1"


@dataclass
class SvmModel:
    """A trained model. ``converged`` is False when the fit warned that it
    stalled or stopped at ``max_passes`` above tol; it is not saved, so a
    loaded model reads True."""

    spec: KernelSpec
    C: float
    gamma_value: float
    support_idx: np.ndarray
    dual_coef: np.ndarray
    support_vectors: np.ndarray
    bias: float
    train_hash: str
    converged: bool = True

    def to_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "kernel": {"kind": self.spec.kind,
                       "gamma": self.spec.gamma,
                       "degree": self.spec.degree,
                       "coef0": self.spec.coef0},
            "C": self.C,
            "gamma_value": self.gamma_value,
            "bias": self.bias,
            "support_idx": [int(i) for i in self.support_idx],
            "dual_coef": [float(a) for a in self.dual_coef],
            "support_vectors": [[float(v) for v in row]
                                for row in self.support_vectors],
            "train_hash": self.train_hash,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SvmModel":
        fmt = d.get("format") if isinstance(d, dict) else None
        if fmt != MODEL_FORMAT:
            raise DataError(f"unknown model format {fmt!r}")
        try:
            k = d["kernel"]
            # older model files also carry a "lam" entry, which is ignored
            spec = KernelSpec(k["kind"], k["gamma"], k["degree"], k["coef0"])
            model = cls(spec, float(d["C"]), float(d["gamma_value"]),
                        np.array(d["support_idx"], dtype=np.int64),
                        np.array(d["dual_coef"], dtype=np.float64),
                        np.array(d["support_vectors"], dtype=np.float64),
                        float(d["bias"]), str(d["train_hash"]))
            if (model.support_vectors.ndim != 2
                    or len(model.dual_coef) != len(model.support_vectors)):
                raise DataError("model needs a support-vector matrix with "
                                "one dual coefficient per row")
            return model
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise DataError(
                f"malformed model ({type(exc).__name__}: {exc})") from None

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SvmModel":
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except (ValueError, DataError) as exc:  # ValueError: not JSON
                raise DataError(f"{path}: {exc}") from None


def _train_hash(X: np.ndarray, y: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(X).tobytes())
    h.update(np.ascontiguousarray(y).tobytes())
    return h.hexdigest()[:16]


def _may_move(y: float, a: float, C: float, eps: float):
    """The maximal-violating-pair rule for one index, as additive biases on
    its score: (0.0 if alpha may move up else -inf, 0.0 if it may move down
    else +inf)."""
    up = a < C - eps if y > 0 else a > eps
    down = a > eps if y > 0 else a < C - eps
    return 0.0 if up else -math.inf, 0.0 if down else math.inf


def _violating_pair(score, up, down, buf):
    """Maximal violating pair (i, m, j, M): i maximizes the score over the
    indices that may move up, j minimizes it over those that may move down;
    m - M bounds the duality gap. ``up``/``down`` are the biases of
    ``_may_move``; ``buf`` is scratch of the score's shape."""
    i = int(np.add(score, up, out=buf).argmax())
    j = int(np.add(score, down, out=buf).argmin())
    # read the scores themselves: adding the 0.0 bias turns -0.0 into +0.0,
    # and m, M set the bias of a fit without free alphas
    m = score.item(i) if up[i] == 0.0 else -math.inf
    M = score.item(j) if down[j] == 0.0 else math.inf
    return i, m, j, M


def _check_solution(alpha, yf, margins, C: float, slack: float) -> None:
    """Raise ``SolverError`` unless the dual solution keeps sum(alpha*y) = 0
    and, for a converged fit (``margins`` given), meets the KKT conditions
    within ``slack``. Written so that a NaN fails every check."""
    drift = abs(float(np.dot(alpha, yf)))
    if not drift < 1e-6:
        raise SolverError(
            f"SMO equality constraint drifted: |sum(alpha*y)| = {drift:.3e}")
    if margins is None:
        return
    at_zero, at_C = alpha <= C * 1e-8, alpha >= C * (1.0 - 1e-8)
    free = ~at_zero & ~at_C
    for name, ok in (("zero-alpha", margins[at_zero] >= 1.0 - slack),
                     ("bound-alpha", margins[at_C] <= 1.0 + slack),
                     ("free", np.abs(margins[free] - 1.0) <= slack)):
        if not ok.all():
            raise SolverError(
                f"SMO KKT condition violated on {int((~ok).sum())} "
                f"{name} point(s) of a converged fit")


def smo_train(X, y, spec: KernelSpec, C: float, tol: float = 1e-3,
              max_passes: int = 200) -> SvmModel:
    """Solve the soft-margin dual for one kernel/C setting.

    ``max_passes`` bounds the work at max_passes * N pair updates; hitting
    it, or a pair step that cannot move (a stall), raises one convergence
    warning rather than an error. A result that breaks the equality
    constraint, or a converged one that breaks the KKT conditions, raises
    ``SolverError``.
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
    eps = 1e-12
    ys = yf.tolist()
    K_diag = K.diagonal().tolist()
    alpha = [0.0] * N
    up, down = (np.array(b) for b in
                zip(*(_may_move(yk, 0.0, C, eps) for yk in ys)))
    neg_yf = -yf
    grad = -np.ones(N)
    score, buf, step_i, step_j = (np.empty(N) for _ in range(4))
    reached_tol = stalled = False
    for _ in range(max_passes * N):
        i, m, j, M = _violating_pair(np.multiply(neg_yf, grad, out=score),
                                     up, down, buf)
        if m - M <= tol:
            reached_tol = True
            break
        eta = K_diag[i] + K_diag[j] - 2.0 * K.item(i, j)
        if eta <= 0:
            eta = 1e-12
        yi, yj = ys[i], ys[j]
        Ei, Ej = yi * grad.item(i), yj * grad.item(j)
        ai_old, aj_old = alpha[i], alpha[j]
        if yi != yj:
            L = max(0.0, aj_old - ai_old)
            H = min(C, C + aj_old - ai_old)
        else:
            L = max(0.0, ai_old + aj_old - C)
            H = min(C, ai_old + aj_old)
        aj = min(max(aj_old + yj * (Ei - Ej) / eta, L), H)
        if abs(aj - aj_old) < 1e-15:
            warnings.warn("SMO stalled before reaching tolerance",
                          RuntimeWarning)
            stalled = True
            break
        ai = ai_old + yi * yj * (aj_old - aj)
        alpha[i], alpha[j] = ai, aj
        up[i], down[i] = _may_move(yi, ai, C, eps)
        up[j], down[j] = _may_move(yj, aj, C, eps)
        # rows in place of columns: Q is exactly symmetric
        np.multiply(Q[i], ai - ai_old, out=step_i)
        np.multiply(Q[j], aj - aj_old, out=step_j)
        grad += np.add(step_i, step_j, out=step_i)
    alpha = np.array(alpha)
    score = neg_yf * grad
    converged = reached_tol
    if not (reached_tol or stalled):  # ran all max_passes * N updates
        _, m, _, M = _violating_pair(score, up, down, buf)
        converged = m - M <= tol
        if not converged:
            warnings.warn(
                f"SMO hit max_passes with duality gap {m - M:.3e} > {tol}",
                RuntimeWarning)
    free = (alpha > C * 1e-8) & (alpha < C * (1.0 - 1e-8))
    if free.any():
        bias = float(np.mean(score[free]))
    else:
        _, m, _, M = _violating_pair(score, up, down, buf)
        bias = (m + M) / 2.0
    margins = yf * (K @ (alpha * yf) + bias) if reached_tol else None
    _check_solution(alpha, yf, margins, C, tol + 1e-8)
    sv = alpha > C * 1e-8
    idx = np.flatnonzero(sv)
    return SvmModel(spec, float(C), gamma, idx,
                    (alpha * yf)[idx], X[idx].copy(), bias,
                    _train_hash(X, y), converged)


def decision_function(model: SvmModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.support_vectors.shape[1]:
        raise DataError("feature width does not match the trained model")
    if len(model.support_idx) == 0:
        return np.full(X.shape[0], model.bias)
    Kp = kernel_matrix(model.support_vectors, model.spec, Y=X,
                       gamma=model.gamma_value)
    return model.dual_coef @ Kp + model.bias


def predict(model: SvmModel, X) -> np.ndarray:
    f = decision_function(model, X)
    return np.where(f >= 0, 1, -1).astype(np.int64)  # ties go to +1


def weighted_f1(y_true, y_pred) -> float:
    """Support-weighted mean of per-label F1; empty precision+recall gives 0."""
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.shape != p.shape or t.ndim != 1 or t.size == 0:
        raise DataError("weighted_f1 needs equal-length nonempty vectors")
    total = 0.0
    for lab in np.unique(t):
        tp = int(((t == lab) & (p == lab)).sum())
        fp = int(((t != lab) & (p == lab)).sum())
        fn = int(((t == lab) & (p != lab)).sum())
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        total += (tp + fn) / t.size * f1
    return float(total)


def _hundredths(lo: int, hi: int) -> list[float]:
    return [i / 100 for i in range(lo, hi + 1)]


def _quarters(lo: int, hi: int) -> list[float]:
    return [i / 4 for i in range(lo, hi + 1)]


# Full hyperparameter sweep; the 0.01 overlap between the explicit list and
# the hundredths range is intentional (87 C values, 77 gamma values).
C_VALUES: tuple[float, ...] = tuple(
    [0.001, 0.005, 0.007, 0.01] + _hundredths(1, 10) + _quarters(1, 59)
    + [20.0, 50.0, 100.0, 200.0, 500.0, 700.0, 1000.0, 1100.0, 1200.0,
       1300.0, 1400.0, 1500.0, 1700.0, 2000.0])
GAMMA_VALUES: tuple = tuple(
    ["auto", "scale", 0.001, 0.005, 0.007] + _hundredths(1, 10)
    + _quarters(1, 59) + [20.0, 50.0, 100.0])


@dataclass(frozen=True)
class GridConfig:
    """Candidate axes, enumerated kernel-major, then C, then gamma."""

    kernels: tuple[str, ...] = ("linear", "poly", "rbf", "sigmoid")
    c_values: tuple[float, ...] = C_VALUES
    gamma_values: tuple = GAMMA_VALUES
    degree: int = 3
    coef0: float = 0.0

    def __post_init__(self):
        if not self.kernels or not self.c_values or not self.gamma_values:
            raise ConfigError("grid axes must be nonempty")
        for c in self.c_values:
            if not (math.isfinite(c) and c > 0):
                raise ConfigError(f"bad C value {c!r}")
        for kind in self.kernels:
            for gamma in self.gamma_values:
                KernelSpec(kind, gamma, self.degree, self.coef0)

    def candidates(self) -> list[tuple[str, float, object]]:
        return [(k, c, g) for k in self.kernels
                for c in self.c_values for g in self.gamma_values]


@dataclass
class GridSearchResult:
    candidates: list
    means: np.ndarray
    best_index: int
    folds: int
    degree: int = 3
    coef0: float = 0.0
    nonconverged_fits: int = 0  # fits run (after dedup) that warned

    @property
    def best(self) -> tuple[str, float, object]:
        return self.candidates[self.best_index]

    def best_model_inputs(self) -> tuple[KernelSpec, float]:
        kind, C, g = self.best
        return KernelSpec(kind, g, self.degree, self.coef0), C


def stratified_folds(y, folds: int, seed: int):
    """Per-class round-robin fold assignment after a seeded shuffle.

    Returns (assignment, effective_folds); the fold count drops with a
    warning when the rarest class has fewer members than requested.
    """
    y = np.asarray(y)
    if folds < 2:
        raise ConfigError("folds must be >= 2")
    labels, counts = np.unique(y, return_counts=True)
    if len(labels) < 2:
        raise DataError("stratified folds need both classes present")
    folds_eff = int(min(folds, counts.min()))
    if folds_eff < 2:
        raise DataError(
            f"rarest class has {counts.min()} members; cannot stratify")
    if folds_eff < folds:
        warnings.warn(
            f"reducing folds from {folds} to {folds_eff} to keep "
            "stratification", RuntimeWarning)
    rng = np.random.default_rng(seed)
    assign = np.empty(y.size, dtype=np.int64)
    for lab in labels:
        idx = rng.permutation(np.flatnonzero(y == lab))
        assign[idx] = np.arange(idx.size) % folds_eff
    return assign, folds_eff


def _effective_key(kind: str, C: float, g, degree: int, coef0: float):
    # parameters the kernel actually consumes; the rest cannot change scores
    if kind == "linear":
        return (kind, C)
    if kind == "rbf":
        return (kind, C, g)
    if kind == "poly":
        return (kind, C, g, degree, coef0)
    return (kind, C, g, coef0)


def grid_search(X, y, grid: GridConfig, folds: int = 10, seed: int = 0,
                tol: float = 1e-3, max_passes: int = 200) -> GridSearchResult:
    """Cross-validated sweep; ties keep the earliest candidate in grid order.

    Candidates that resolve to the same effective kernel parameters are
    evaluated once and share their scores, which leaves per-candidate
    results identical to the brute-force sweep.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    assign, folds_eff = stratified_folds(y, folds, seed)
    cands = grid.candidates()
    means = np.empty(len(cands))
    cache: dict = {}
    nonconverged = 0
    for idx, (kind, C, g) in enumerate(cands):
        key = _effective_key(kind, C, g, grid.degree, grid.coef0)
        if key not in cache:
            spec = KernelSpec(kind, g, grid.degree, grid.coef0)
            scores = []
            for f in range(folds_eff):
                tr, te = assign != f, assign == f
                model = smo_train(X[tr], y[tr], spec, C, tol=tol,
                                  max_passes=max_passes)
                nonconverged += not model.converged
                scores.append(weighted_f1(y[te], predict(model, X[te])))
            cache[key] = float(np.array(scores).mean())
        means[idx] = cache[key]
    best = int(np.argmax(means))  # the first maximum: ties keep the earliest
    return GridSearchResult(cands, means, best, folds_eff, grid.degree,
                            grid.coef0, nonconverged)
