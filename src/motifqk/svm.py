"""Kernel SVM via sequential minimal optimization, plus grid-search tooling.

The solver keeps the full gradient and always optimizes the maximal
violating pair, stopping when the duality-gap bound m - M drops below tol;
that guarantees the KKT conditions hold within tol for the returned bias.
An index may move up (y * alpha may grow) when y > 0 and alpha < C - eps
or y < 0 and alpha > eps, and down when y > 0 and alpha > eps or y < 0 and
alpha < C - eps, with eps = 1e-12. A C <= eps is refused: no alpha could
leave 0.

One pair update costs a fixed number of numpy calls on one (3, N)
selection array, updated in place: sel = [score | up, -(score | down),
score], where score = -y * grad and "| up" puts -inf on an index whose
alpha may not move up. One argmax over its first two rows
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

Interpreter overhead, not arithmetic, bounds the pair loop: an update
costs about 2.1 us on the linear C = 2000 fold fit of the benchmark's
gridsearch workload (N = 114, one core of a 2-vCPU Xeon), and about 3.2 us
with max, min and a may-move function called on every update. So the loop
looks its numpy entry points up once per fit, hands the step coefficients to
np.multiply as 0-d arrays, and writes the L/H clip and the may-move rule
out as comparisons. Each comparison takes the same operands in the same
order as the call it stands for, with the builtins' tie rule (max(a, b)
keeps a unless b > a, min(a, b) keeps a unless b < a), so no bit of a fit
moves.

A fit also pays a fixed cost around its pair updates, which on the demo's
3-8 row folds is most of its time. So the loop takes its selection array
from one table by label (``_SEL_START``) and its stacked rows from one
concatenate, and leaves its may-move flags as a list that only a fit
ending above tol or without free alphas turns into arrays (2 of the 100
fits of a demo report round, 106 of 1,500 on a 154-row fold). The KKT
check tests every point against its own kind's condition at once, and
counts the failures per kind only when one fails.

Grid search builds one Gram per kernel and fold, under stratified folds
shared by every candidate, and fits its distinct C values in ascending
order. Fits along the C axis share their path (Hastie et al., JMLR 5,
1391 (2004)), and in this loop the sharing is exact. The pair loop
(``_smo_loop``) reads C in three tests only: the upper clip H, the lower
clip L and the may-move bound C - eps. It sets ``bound`` when one of them
comes out on a bound that C sets:
- aj clipped at an H built from C: C + aj_old - ai_old (yi != yj), or C
  itself (yi = yj with ai_old + aj_old >= C), which puts aj at C and so
  is caught by the third test;
- aj clipped at L = ai_old + aj_old - C > 0 (yi = yj);
- an alpha reaching C - eps, which closes a may-move flag at the top.
Each bound is monotone in C, and so is rounding: at a larger C' every H is
at least as large, every L at most as large (and 0 where it was 0), and
C' - eps >= C - eps. So a test that stayed off its bound at C stays off
it at C', every branch goes the same way with the same floats, and the
loop at C' would end with the same alpha, score row, may-move flags and
exit (tol, stall or max_passes), bit for bit. Then only the finish
(``_smo_finish``) reads C: the free and bound thresholds, the bias, the KKT
check and the support set. Grid search therefore reruns the loop only
after a run that set ``bound``; every model still equals a fresh
``smo_train`` at its C. ``bound`` is set inside branches the loop rarely
takes, so an update costs what it did. Results and tie-breaking do not
depend on the order of the fits, so they are exactly reproducible.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, SolverError, check_count
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


_EPS = 1e-12  # the solver's eps: how close to 0 or C an alpha counts as there
# the selection array's column at alpha = 0, for y < 0 and for y > 0:
# score = -y * grad starts at y (grad starts at -1), and an alpha at 0 may
# move up iff y > 0 and down iff y < 0
_SEL_START = np.array([[-math.inf, 1.0], [1.0, -math.inf], [-1.0, 1.0]])


def check_c(C: float) -> None:
    """Reject a box bound C: it must be finite and above the solver's eps,
    since at C <= eps no alpha can leave 0."""
    if not (math.isfinite(C) and C > _EPS):
        raise ConfigError(
            f"C must be finite and > {_EPS:g} (the SMO eps), got {C!r}")


def _violating_pair(score, moves):
    """Bounds (m, M) of the maximal violating pair: m is the first maximal
    score over the indices that may move up, M the first minimal one over
    those that may move down (``moves`` holds each index's (up, down)
    flags); m - M bounds the duality gap. Read from the scores themselves,
    which keeps the sign of a zero: m and M set the bias of a fit without
    free alphas."""
    up, down = np.array(moves, dtype=bool).T
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
    # each point's own condition, by its kind; the kinds are disjoint
    # (C > eps), so a fit passes when every point does
    ok = np.where(at_zero, margins >= 1.0 - slack,
                  np.where(at_C, margins <= 1.0 + slack,
                           np.abs(margins - 1.0) <= slack))
    if np.count_nonzero(ok) == ok.size:
        return
    free = ~(at_zero | at_C)
    for name, kind in (("zero-alpha", at_zero), ("bound-alpha", at_C),
                       ("free", free)):
        bad = np.count_nonzero(~ok[kind])
        if bad:
            raise SolverError(
                f"SMO KKT condition violated on {bad} "
                f"{name} point(s) of a converged fit")


def check_stopping(tol: float, max_passes: int) -> None:
    """Reject an SMO stopping rule: tol must be finite and > 0, and
    max_passes an int >= 0."""
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError("tol must be finite and > 0")
    check_count(max_passes, "max_passes", 0)


def _checked_rows(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise DataError("X must be 2-D with one label per row")
    n_pos, n_neg = np.count_nonzero(y == 1), np.count_nonzero(y == -1)
    if n_pos + n_neg != y.size:
        raise DataError("labels must be -1/+1")
    if not (n_pos and n_neg):
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
    run = _smo_loop(kernel_matrix(X, spec, gamma=gamma), y, C, tol,
                    max_passes)
    return _smo_finish(run, X, spec, gamma, C, tol)


class _Run(NamedTuple):
    """What one pair loop leaves for ``_smo_finish``, which reads C; the
    same run serves every larger C when ``bound`` is False."""

    yf: np.ndarray
    alpha: np.ndarray
    coef: np.ndarray  # alpha * y
    score: np.ndarray  # -y * grad
    # the final may-move flags, (up, down) per index; only a fit that ends
    # above tol or without free alphas reads them
    moves: list[tuple[bool, bool]]
    f: np.ndarray | None  # K @ coef when the loop reached tol, else None
    warning: str | None  # the fit's convergence warning, None if converged
    bound: bool  # a test read a bound that C sets (module docstring)


def _smo_loop(K, y, C: float, tol: float, max_passes: int) -> _Run:
    """The pair loop of ``smo_train`` on the Gram K of rows labelled y."""
    check_c(C)
    check_stopping(tol, max_passes)
    N = K.shape[0]
    yf = y.astype(np.float64)
    eps = _EPS
    ys = yf.tolist()
    K_diag = K.diagonal().tolist()
    alpha = [0.0] * N
    # the may-move flags (module docstring) at alpha = 0, for any C > eps:
    # up iff y > 0, down iff y < 0
    moves = [(yk > 0, yk < 0) for yk in ys]
    # the selection array of the module docstring, one column of _SEL_START
    # per label
    sel = _SEL_START.take(y > 0, axis=1)
    score = sel[2]
    # the loop's numpy entry points, looked up once per fit; argmax writes
    # the pair to ij, and the step coefficients reach np.multiply as 0-d
    # arrays ci, cj, which it takes faster than a Python float of the same
    # value
    argmax, item, kitem = sel[:2].argmax, sel.item, K.item
    mul, add = np.multiply, np.add
    ij = np.empty(2, dtype=np.intp)
    ci, cj = np.empty(()), np.empty(())
    # rows in place of columns: K is exactly symmetric
    rows = list(np.concatenate((K, -K, K), axis=1).reshape(N, 3, N))
    step, step_j = np.empty((3, N)), np.empty((3, N))
    hi = C - eps  # the may-move rule's upper bound
    reached_tol = stalled = bound = False
    for _ in range(max_passes * N):
        argmax(1, ij)
        i, j = ij.tolist()
        m, M = item(0, i), -item(1, j)
        if m - M <= tol:
            reached_tol = True
            break
        eta = K_diag[i] + K_diag[j] - 2.0 * kitem(i, j)
        if eta <= 0:
            eta = 1e-12
        yi, yj = ys[i], ys[j]
        ai_old, aj_old = alpha[i], alpha[j]
        if yi != yj:
            L = aj_old - ai_old
            H = C + aj_old - ai_old
        else:
            H = ai_old + aj_old
            L = H - C
        # L = max(0.0, L), H = min(C, H) and aj = min(max(aj, L), H),
        # written out with the builtins' tie rules (module docstring)
        if not L > 0.0:
            L = 0.0
        if not H < C:
            H = C
        aj = aj_old + yj * (M - m) / eta
        if L > aj:
            aj = L
            if L > 0.0 and yi == yj:  # L = ai_old + aj_old - C
                bound = True
        if H < aj:
            aj = H
            if yi != yj:  # H = C + aj_old - ai_old; a clip at H = C is
                bound = True  # caught below, as aj reaches C - eps
        if abs(aj - aj_old) < 1e-15:
            stalled = True
            break
        ai = ai_old + yi * yj * (aj_old - aj)
        alpha[i], alpha[j] = ai, aj
        ci[()] = -yi * (ai - ai_old)
        cj[()] = -yj * (aj - aj_old)
        mul(rows[i], ci, step)
        mul(rows[j], cj, step_j)
        add(step, step_j, step)
        add(sel, step, sel)
        # the may-move rule for i and j, written out
        may_i = (ai < hi, ai > eps) if yi > 0 else (ai > eps, ai < hi)
        may_j = (aj < hi, aj > eps) if yj > 0 else (aj > eps, aj < hi)
        if may_i != moves[i] or may_j != moves[j]:
            for k, may in ((i, may_i), (j, may_j)):
                if may != moves[k]:
                    moves[k] = may
                    s = score.item(k)
                    sel[0, k] = s if may[0] else -math.inf
                    sel[1, k] = -s if may[1] else -math.inf
            if not (ai < hi and aj < hi):  # a flag closed at C - eps
                bound = True
    alpha = np.array(alpha)
    # the score row has lost the sign of a zero; grad never reaches -0.0
    # (it starts at -1), so adding 0.0 rebuilds it bit for bit
    nyf = -yf
    score = nyf * (nyf * score + 0.0)  # -y * grad
    warning = None
    if stalled:
        warning = "SMO stalled before reaching tolerance"
    elif not reached_tol:  # ran all max_passes * N updates
        m, M = _violating_pair(score, moves)
        if not m - M <= tol:
            warning = (f"SMO hit max_passes with duality gap {m - M:.3e} "
                       f"> {tol}")
    coef = alpha * yf
    return _Run(yf, alpha, coef, score, moves,
                K @ coef if reached_tol else None, warning, bound)


def _smo_finish(run: _Run, X, spec: KernelSpec, gamma: float, C: float,
                tol: float) -> SvmModel:
    """The model of a pair loop ``run`` at C, which it must be valid for;
    X holds the rows of its Gram, built with ``gamma``."""
    if run.warning is not None:
        warnings.warn(run.warning, RuntimeWarning)
    alpha, yf, score = run.alpha, run.yf, run.score
    sv = alpha > C * 1e-8
    free = sv & (alpha < C * (1.0 - 1e-8))
    n_free = np.count_nonzero(free)
    if n_free:  # np.mean(score[free]), bit for bit
        bias = float(score[free].sum() / n_free)
    else:
        m, M = _violating_pair(score, run.moves)
        bias = (m + M) / 2.0
    margins = None if run.f is None else yf * (run.f + bias)
    _check_solution(alpha, yf, margins, C, tol + 1e-8)
    idx = sv.nonzero()[0]
    # indexing by idx copies the rows
    return SvmModel(spec, float(C), gamma, idx, run.coef[idx], X[idx], bias,
                    run.warning is None)


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


_LABELS = np.array([-1, 1], dtype=np.int64)  # predict's labels by f >= 0


def predict(model: SvmModel, X) -> np.ndarray:
    f = decision_function(model, X)
    return _LABELS.take(f >= 0)  # ties go to +1


def weighted_f1(y_true, y_pred) -> float:
    """Support-weighted mean of per-label F1; empty precision+recall gives 0."""
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.shape != p.shape or t.ndim != 1 or t.size == 0:
        raise DataError("weighted_f1 needs equal-length nonempty vectors")
    # counted over Python scalars: list.count compares as == does on the
    # arrays, and a NaN label, which equals nothing, counts 0 either way
    ts, ps = t.tolist(), p.tolist()
    pairs = list(zip(ts, ps))
    total = 0.0
    for lab in np.unique(t).tolist():
        tp = pairs.count((lab, lab))
        fp = ps.count(lab) - tp
        fn = ts.count(lab) - tp
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
            check_c(c)
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
    check_count(folds, "folds", 2)
    check_count(seed, "cv seed", 0)
    labels = np.unique(y)
    if len(labels) < 2:
        raise DataError("stratified folds need both classes present")
    members = [np.flatnonzero(y == lab) for lab in labels]
    rarest = min(idx.size for idx in members)
    folds_eff = min(folds, rarest)
    if folds_eff < 2:
        raise DataError(
            f"rarest class has {rarest} members; cannot stratify")
    if folds_eff < folds:
        warnings.warn(
            f"reducing folds from {folds} to {folds_eff} to keep "
            "stratification", RuntimeWarning)
    rng = np.random.default_rng(seed)
    assign = np.empty(y.size, dtype=np.int64)
    for idx in members:
        idx = rng.permutation(idx)
        assign[idx] = np.arange(idx.size) % folds_eff
    return assign, folds_eff


def grid_search(X, y, grid: GridConfig, folds: int = 10, seed: int = 0,
                tol: float = 1e-3, max_passes: int = 200) -> GridSearchResult:
    """Cross-validated sweep; ties keep the earliest candidate in grid order.

    Candidates that agree on C and on the ``KERNEL_FIELDS`` of their kind
    are evaluated once and share their scores. Each kernel key and fold
    builds one Gram, the one ``smo_train`` would build, and fits its
    distinct C values on it in ascending order, rerunning the pair loop only
    after a run that a C bound touched (module docstring). Per-candidate
    results are identical to the brute-force sweep.
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
    fold_rows = [(X[assign != f], y[assign != f], X[assign == f],
                  y[assign == f]) for f in range(folds_eff)]
    for spec, by_c in keys.values():
        for f, (X_tr, y_tr, X_te, y_te) in enumerate(fold_rows):
            gamma = resolve_gamma(spec, X_tr)
            K = kernel_matrix(X_tr, spec, gamma=gamma)
            run = None
            for C in sorted(by_c):  # a run no C bound touched serves them all
                if run is None or run.bound:
                    run = _smo_loop(K, y_tr, C, tol, max_passes)
                model = _smo_finish(run, X_tr, spec, gamma, C, tol)
                nonconverged += not model.converged
                scores[by_c[C], f] = weighted_f1(y_te, predict(model, X_te))
            del K  # one Gram alive at a time
    means = scores.mean(axis=1)
    best = int(np.argmax(means))  # the first maximum: ties keep the earliest
    return GridSearchResult(cands, means, best, folds_eff, grid.degree,
                            grid.coef0, nonconverged)
