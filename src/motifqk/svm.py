"""Kernel SVM via sequential minimal optimization, plus grid-search tooling.

The solver keeps the full gradient and always optimizes the maximal
violating pair, stopping when the duality-gap bound m - M drops below tol;
that guarantees the KKT conditions hold within tol for the returned bias.

One pair update costs a fixed number of numpy calls on one (3, N)
selection array, updated in place: sel = [score | up, -(score | down),
score], where score = -y * grad and "| up" puts -inf on an index whose
alpha may not move up (``_may_move``). One argmax over its first two rows
gives the pair (i, j), with m = sel[0, i], M = -sel[1, j] and Ei - Ej =
M - m. A step adds K[i] * c_i + K[j] * c_j to every row, with c = -y *
(alpha_new - alpha_old), read as rows of the stacked [K, -K, K]:
``kernel_matrix`` returns (K + K.T) / 2, which is symmetric bit for bit,
so rows and columns are the same numbers in contiguous memory. When a
moved alpha changes the ways it may move, its first two entries are
restored from the score row, which also keeps the score of an alpha that
may move neither way (possible only for C <= 2e-12).

Every product with +/-1 is exact and rounding is symmetric, so the score
row equals -y * grad of a loop that keeps grad and adds the columns of
Q = K * outer(y, y) times the alpha steps (kept in the tests as the
reference), and each open entry of the first two rows equals +/- that
score, but for the sign of a zero, which no comparison sees. That loop's
grad starts at -1 and can only reach zero as +0.0, so the finish rebuilds
it as -y * score + 0.0, and fits match the reference bit for bit.

Grid search builds one Gram per kernel and fold, under stratified folds
shared by every candidate, and hands it to the solver core for each
distinct C. Results and tie-breaking do not depend on the order of the
fits, so they are exactly reproducible.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError, SolverError, check_seed
from .kernels import KERNEL_FIELDS, KERNEL_KINDS, KernelSpec, kernel_matrix, \
    resolve_gamma

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
    converged: bool = True

    def to_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "kernel": asdict(self.spec),
            "C": self.C,
            "gamma_value": self.gamma_value,
            "bias": self.bias,
            "support_idx": [int(i) for i in self.support_idx],
            "dual_coef": [float(a) for a in self.dual_coef],
            "support_vectors": [[float(v) for v in row]
                                for row in self.support_vectors],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SvmModel":
        fmt = d.get("format") if isinstance(d, dict) else None
        if fmt != MODEL_FORMAT:
            raise DataError(f"unknown model format {fmt!r}")
        try:
            k = d["kernel"]
            # older model files also carry "lam" and "train_hash"
            # entries, which are ignored
            spec = KernelSpec(k["kind"], k["gamma"], k["degree"], k["coef0"])
            sv = np.array(d["support_vectors"], dtype=np.float64)
            if sv.shape == (0,):  # no support vectors: json keeps no width
                sv = sv.reshape(0, 0)
            model = cls(spec, float(d["C"]), float(d["gamma_value"]),
                        np.array(d["support_idx"], dtype=np.int64),
                        np.array(d["dual_coef"], dtype=np.float64),
                        sv, float(d["bias"]))
            if (model.support_vectors.ndim != 2
                    or len(model.dual_coef) != len(model.support_vectors)
                    or model.support_idx.shape != model.dual_coef.shape):
                raise DataError("model needs a support-vector matrix with "
                                "one dual coefficient and index per row")
            # json reads NaN and Infinity, which would predict one class
            # for every row
            if not (np.isfinite([model.C, model.gamma_value, model.bias]).all()
                    and np.isfinite(model.dual_coef).all()
                    and np.isfinite(model.support_vectors).all()):
                raise DataError("model holds a non-finite number")
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


def _may_move(y: float, a: float, C: float, eps: float) -> tuple[bool, bool]:
    """The maximal-violating-pair rule for one index: whether its alpha may
    move up and whether it may move down."""
    up = a < C - eps if y > 0 else a > eps
    down = a > eps if y > 0 else a < C - eps
    return up, down


def _violating_pair(score, up, down):
    """Bounds (m, M) of the maximal violating pair: m is the first maximal
    score over the indices that may move up, M the first minimal one over
    those that may move down; m - M bounds the duality gap. Read from the
    scores themselves, which keeps the sign of a zero: m and M set the bias
    of a fit without free alphas."""
    up_score = np.where(up, score, -math.inf)
    down_score = np.where(down, score, math.inf)
    return (up_score.item(int(up_score.argmax())),
            down_score.item(int(down_score.argmin())))


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


def check_stopping(tol: float, max_passes: int) -> None:
    """Reject an SMO stopping rule: tol must be finite and > 0, and
    max_passes an int >= 0."""
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError("tol must be finite and > 0")
    if not (isinstance(max_passes, int) and max_passes >= 0):
        raise ConfigError("max_passes must be an int >= 0")


def _checked_rows(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise DataError("X must be 2-D with one label per row")
    if not np.isin(y, (-1, 1)).all():
        raise DataError("labels must be -1/+1")
    if len(np.unique(y)) < 2:
        raise DataError("training data must contain both classes")
    return X, y


def smo_train(X, y, spec: KernelSpec, C: float, tol: float = 1e-3,
              max_passes: int = 200) -> SvmModel:
    """Solve the soft-margin dual for one kernel/C setting.

    ``max_passes`` bounds the work at max_passes * N pair updates; hitting
    it, or a pair step that cannot move (a stall), raises one convergence
    warning rather than an error. A result that breaks the equality
    constraint, or a converged one that breaks the KKT conditions, raises
    ``SolverError``.
    """
    X, y = _checked_rows(X, y)
    gamma = resolve_gamma(spec, X)
    return _smo_fit(X, y, kernel_matrix(X, spec, gamma=gamma), spec, gamma,
                    C, tol, max_passes)


def _smo_fit(X, y, K, spec: KernelSpec, gamma: float, C: float, tol: float,
             max_passes: int) -> SvmModel:
    """``smo_train`` on checked rows and their Gram K, built with ``gamma``."""
    if not (math.isfinite(C) and C > 0):
        raise ConfigError("C must be positive and finite")
    check_stopping(tol, max_passes)
    N = X.shape[0]
    yf = y.astype(np.float64)
    eps = 1e-12
    ys = yf.tolist()
    K_diag = K.diagonal().tolist()
    alpha = [0.0] * N
    moves = [_may_move(yk, 0.0, C, eps) for yk in ys]
    up, down = (np.array(b) for b in zip(*moves))
    # the selection array of the module docstring; score = -y * grad starts
    # at y, since grad starts at -1
    sel = np.stack((np.where(up, yf, -math.inf),
                    np.where(down, -yf, -math.inf), yf))
    pick, score = sel[:2], sel[2]
    # rows in place of columns: K is exactly symmetric
    rows = list(np.stack((K, -K, K), axis=1))
    step, step_j = np.empty((3, N)), np.empty((3, N))
    reached_tol = stalled = False
    for _ in range(max_passes * N):
        i, j = pick.argmax(axis=1).tolist()
        m, M = sel.item(0, i), -sel.item(1, j)
        if m - M <= tol:
            reached_tol = True
            break
        eta = K_diag[i] + K_diag[j] - 2.0 * K.item(i, j)
        if eta <= 0:
            eta = 1e-12
        yi, yj = ys[i], ys[j]
        ai_old, aj_old = alpha[i], alpha[j]
        if yi != yj:
            L = max(0.0, aj_old - ai_old)
            H = min(C, C + aj_old - ai_old)
        else:
            L = max(0.0, ai_old + aj_old - C)
            H = min(C, ai_old + aj_old)
        aj = min(max(aj_old + yj * (M - m) / eta, L), H)
        if abs(aj - aj_old) < 1e-15:
            warnings.warn("SMO stalled before reaching tolerance",
                          RuntimeWarning)
            stalled = True
            break
        ai = ai_old + yi * yj * (aj_old - aj)
        alpha[i], alpha[j] = ai, aj
        np.multiply(rows[i], -yi * (ai - ai_old), out=step)
        step += np.multiply(rows[j], -yj * (aj - aj_old), out=step_j)
        sel += step
        for k, a in ((i, ai), (j, aj)):
            may = _may_move(ys[k], a, C, eps)
            if may != moves[k]:
                moves[k] = may
                s = score.item(k)
                sel[0, k] = s if may[0] else -math.inf
                sel[1, k] = -s if may[1] else -math.inf
    alpha = np.array(alpha)
    up, down = (np.array(b) for b in zip(*moves))
    # the score row has lost the sign of a zero; grad never reaches -0.0
    # (it starts at -1), so adding 0.0 rebuilds it bit for bit
    grad = -yf * score + 0.0
    score = -yf * grad
    converged = reached_tol
    if not (reached_tol or stalled):  # ran all max_passes * N updates
        m, M = _violating_pair(score, up, down)
        converged = m - M <= tol
        if not converged:
            warnings.warn(
                f"SMO hit max_passes with duality gap {m - M:.3e} > {tol}",
                RuntimeWarning)
    free = (alpha > C * 1e-8) & (alpha < C * (1.0 - 1e-8))
    if free.any():
        bias = float(np.mean(score[free]))
    else:
        m, M = _violating_pair(score, up, down)
        bias = (m + M) / 2.0
    margins = yf * (K @ (alpha * yf) + bias) if reached_tol else None
    _check_solution(alpha, yf, margins, C, tol + 1e-8)
    sv = alpha > C * 1e-8
    idx = np.flatnonzero(sv)
    return SvmModel(spec, float(C), gamma, idx,
                    (alpha * yf)[idx], X[idx].copy(), bias, converged)


def decision_function(model: SvmModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    # without support vectors a model reads no feature (and its saved file
    # keeps no width): it is the sign of its bias
    if X.ndim != 2 or (len(model.support_idx)
                       and X.shape[1] != model.support_vectors.shape[1]):
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

    kernels: tuple[str, ...] = KERNEL_KINDS
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
    check_seed(seed, "cv seed")
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


def grid_search(X, y, grid: GridConfig, folds: int = 10, seed: int = 0,
                tol: float = 1e-3, max_passes: int = 200) -> GridSearchResult:
    """Cross-validated sweep; ties keep the earliest candidate in grid order.

    Candidates that agree on C and on the ``KERNEL_FIELDS`` of their kind
    are evaluated once and share their scores. Each kernel key and fold
    builds one Gram, the one ``smo_train`` would build, and fits every
    distinct C on it, which leaves per-candidate results identical to the
    brute-force sweep.
    """
    X, y = _checked_rows(X, y)
    assign, folds_eff = stratified_folds(y, folds, seed)
    cands = grid.candidates()
    keys: dict = {}  # kernel key -> (its first spec, C -> candidates)
    for idx, (kind, C, g) in enumerate(cands):
        spec = KernelSpec(kind, g, grid.degree, grid.coef0)
        key = (kind,) + tuple(getattr(spec, f) for f in KERNEL_FIELDS[kind])
        keys.setdefault(key, (spec, {}))[1].setdefault(C, []).append(idx)
    scores = np.empty((len(cands), folds_eff))
    nonconverged = 0
    for spec, by_c in keys.values():
        for f in range(folds_eff):
            tr, te = assign != f, assign == f
            X_tr, y_tr = X[tr], y[tr]
            gamma = resolve_gamma(spec, X_tr)
            K = kernel_matrix(X_tr, spec, gamma=gamma)
            for C, idx in by_c.items():
                model = _smo_fit(X_tr, y_tr, K, spec, gamma, C, tol, max_passes)
                nonconverged += not model.converged
                scores[idx, f] = weighted_f1(y[te], predict(model, X[te]))
            del K  # one Gram alive at a time
    means = scores.mean(axis=1)
    best = int(np.argmax(means))  # the first maximum: ties keep the earliest
    return GridSearchResult(cands, means, best, folds_eff, grid.degree,
                            grid.coef0, nonconverged)
