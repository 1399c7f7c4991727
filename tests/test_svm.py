"""SVM trainer, scorer, and grid tests with a projected-gradient QP oracle."""

import os
import re
import subprocess
import sys
import textwrap
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import motifqk
from motifqk import svm
from motifqk.errors import ConfigError, DataError, SolverError
from motifqk.kernels import KernelSpec, kernel_matrix, resolve_gamma
from motifqk.svm import (
    C_VALUES,
    GAMMA_VALUES,
    GridConfig,
    SvmModel,
    grid_search,
    predict,
    smo_train,
    stratified_folds,
    weighted_f1,
)


import _smo_reference
from _qp import dual_objective, qp_oracle
from _smo_reference import reference_smo_train


def _model_dual(model, X, y, spec, C):
    K = kernel_matrix(X, spec, gamma=model.gamma_value)
    a = np.zeros(len(y))
    a[np.asarray(model.support_idx)] = np.asarray(model.dual_coef) * y[
        np.asarray(model.support_idx)]
    return dual_objective(K, y, a)


def test_two_point_analytic_solution():
    X = np.array([[1.0], [-1.0]])
    y = np.array([1, -1])
    model = smo_train(X, y, KernelSpec(kind="linear"), C=10.0)
    assert sorted(model.support_idx) == [0, 1]
    coef = dict(zip(model.support_idx, model.dual_coef))
    assert coef[0] == pytest.approx(0.5, abs=1e-9)
    assert coef[1] == pytest.approx(-0.5, abs=1e-9)
    assert model.bias == pytest.approx(0.0, abs=1e-9)
    assert predict(model, X).tolist() == [1, -1]


def test_two_point_bound_constrained():
    X = np.array([[1.0], [-1.0]])
    y = np.array([1, -1])
    model = smo_train(X, y, KernelSpec(kind="linear"), C=0.1)
    coef = dict(zip(model.support_idx, model.dual_coef))
    assert coef[0] == pytest.approx(0.1, abs=1e-12)
    assert model.bias == pytest.approx(0.0, abs=1e-9)


def test_xor_with_rbf():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1, 1, -1, -1])
    model = smo_train(X, y, KernelSpec(kind="rbf", gamma=1.0), C=10.0)
    assert predict(model, X).tolist() == y.tolist()


def test_smo_validation():
    X = np.ones((3, 2))
    with pytest.raises(DataError):
        smo_train(X, np.array([1, 1, 1]), KernelSpec(kind="linear"), C=1.0)
    with pytest.raises(DataError):
        smo_train(X, np.array([1, 0, -1]), KernelSpec(kind="linear"), C=1.0)
    with pytest.raises(ConfigError):
        smo_train(X, np.array([1, -1, 1]), KernelSpec(kind="linear"), C=0.0)
    # a bad stopping rule is refused before any update
    for tol, max_passes in ((0.0, 200), (float("nan"), 200), (1e-3, -3),
                            (1e-3, 1.5)):
        with pytest.raises(ConfigError):
            smo_train(X, np.array([1, -1, 1]), KernelSpec(kind="linear"),
                      C=1.0, tol=tol, max_passes=max_passes)


def test_smo_warns_when_not_converged():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 2))
    y = np.where(rng.integers(0, 2, 20) == 0, -1, 1)
    with pytest.warns(RuntimeWarning):
        smo_train(X, y, KernelSpec(kind="rbf", gamma=1.0), C=1.0, max_passes=0)


def test_smo_stall_warns_once():
    # linear Gram entries near 1e16 shrink the first step below 1e-15
    X, y = _bit_identity_problem(6, 2, True, 1e8, 2, 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = smo_train(X, y, KernelSpec("linear"), 2000.0)
    assert [str(w.message) for w in caught] \
        == ["SMO stalled before reaching tolerance"]
    assert not model.converged


def test_model_save_load_round_trip(tmp_path, rng):
    X = rng.normal(size=(10, 3))
    y = np.where(X[:, 0] > 0, 1, -1)
    if len(set(y.tolist())) == 1:
        y[0] = -y[0]
    model = smo_train(X, y, KernelSpec(kind="rbf", gamma="scale"), C=2.0)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = SvmModel.load(path)
    Xt = rng.normal(size=(5, 3))
    assert np.array_equal(predict(model, Xt), predict(loaded, Xt))
    assert loaded.gamma_value == model.gamma_value
    # files written while KernelSpec still had a lam field, or while
    # models carried a training-data hash, load and predict as before
    assert "train_hash" not in model.to_dict()
    for key, extra in (("lam", 1.0), ("train_hash", "0123456789abcdef")):
        old = model.to_dict()
        (old["kernel"] if key == "lam" else old)[key] = extra
        from_old = SvmModel.from_dict(old)
        assert from_old.spec == model.spec
        assert np.array_equal(predict(from_old, Xt), predict(model, Xt))


def test_model_load_rejects_other_format(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(DataError):
        SvmModel.load(path)


def test_gamma_resolved_at_fit_time(rng):
    X = rng.normal(size=(8, 4))
    y = np.where(X[:, 0] > 0, 1, -1)
    if len(set(y.tolist())) == 1:
        y[0] = -y[0]
    spec = KernelSpec(kind="rbf", gamma="scale")
    model = smo_train(X, y, spec, C=1.0)
    assert model.gamma_value == pytest.approx(resolve_gamma(spec, X))


def test_weighted_f1_known_values():
    assert weighted_f1([1, 1, 1, 0], [1, 1, 0, 0]) == pytest.approx(
        0.7666666666666667, abs=1e-12)
    assert weighted_f1([1, -1, 1, -1], [1, -1, 1, -1]) == 1.0
    assert weighted_f1([1, 1, -1, -1], [-1, -1, 1, 1]) == 0.0
    assert weighted_f1([1, 1], [1, -1]) == pytest.approx(2.0 / 3.0)


def test_weighted_f1_validation():
    with pytest.raises(DataError):
        weighted_f1([], [])
    with pytest.raises(DataError):
        weighted_f1([1, 0], [1])


def _reference_weighted_f1(y_true, y_pred):
    """``weighted_f1`` as it stood with numpy counts per label, kept as the
    oracle of its counts over Python scalars."""
    t, p = np.asarray(y_true), np.asarray(y_pred)
    total = 0.0
    for lab in np.unique(t):
        is_t, is_p = t == lab, p == lab
        tp = np.count_nonzero(is_t & is_p)
        fp = np.count_nonzero(is_p) - tp
        fn = np.count_nonzero(is_t) - tp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        total += (tp + fn) / t.size * f1
    return float(total)


@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    st.lists(st.integers(-5, 5), min_size=n, max_size=n))))
@example(([1, -1, 1, -1], [1, 1, 1, -1]))
@example(([2, 2, 0], [7, 2, -1]))
def test_weighted_f1_matches_the_numpy_count_bit_for_bit(labels):
    # labels other than +/-1, and predicted labels that y_true lacks
    t, p = (np.array(v, dtype=np.int64) for v in labels)
    assert weighted_f1(t, p).hex() == _reference_weighted_f1(t, p).hex()


def test_grid_cardinality():
    assert len(C_VALUES) == 87
    assert len(GAMMA_VALUES) == 77
    assert C_VALUES.count(0.01) == 2
    assert len(set(GAMMA_VALUES)) == 77
    grid = GridConfig()
    assert len(grid.kernels) == 4
    cands = grid.candidates()
    assert len(cands) == 87 * 77 * 4
    assert cands[0][0] == "linear"


def test_grid_config_validation():
    # every kernel x gamma pair is checked up front, by the KernelSpec rules,
    # so a bad axis fails before any feature row is projected
    bad_axes = [{"gamma_values": (-1.0,)}, {"gamma_values": ("bogus",)},
                {"kernels": ("nope",)}, {"degree": 0},
                {"coef0": float("nan")}, {"c_values": (0.0,)}]
    for axes in bad_axes:
        with pytest.raises(ConfigError):
            GridConfig(**axes)


def test_grid_values_spot_checks():
    assert C_VALUES[:4] == (0.001, 0.005, 0.007, 0.01)
    assert C_VALUES[-1] == 2000.0
    assert 14.75 in C_VALUES
    assert GAMMA_VALUES[0] == "auto"
    assert GAMMA_VALUES[1] == "scale"
    assert 0.007 in GAMMA_VALUES
    assert 100.0 == GAMMA_VALUES[-1]


def test_stratified_folds_balance(rng):
    y = np.array([1] * 12 + [-1] * 8)
    assign, folds_eff = stratified_folds(y, folds=4, seed=3)
    assert folds_eff == 4
    for f in range(4):
        pos = int(((assign == f) & (y == 1)).sum())
        neg = int(((assign == f) & (y == -1)).sum())
        assert pos == 3
        assert neg == 2


def test_stratified_folds_reduction_warning():
    y = np.array([1, 1, 1, 1, 1, 1, -1, -1])
    with pytest.warns(RuntimeWarning):
        assign, folds_eff = stratified_folds(y, folds=5, seed=0)
    assert folds_eff == 2


def test_stratified_folds_error_single_member():
    y = np.array([1, 1, 1, -1])
    with pytest.raises(DataError):
        stratified_folds(y, folds=3, seed=0)


def test_stratified_folds_refuses_a_negative_seed():
    with pytest.raises(ConfigError, match="cv seed must be an int >= 0"):
        stratified_folds(np.array([1, -1] * 4), folds=2, seed=-1)


@pytest.mark.parametrize("folds", [2.5, True, np.int64(3)])
def test_stratified_folds_refuses_a_count_that_is_no_int(folds):
    with pytest.raises(ConfigError,
                       match="^" + re.escape(
                           f"folds must be an int >= 2, got {folds!r}") + "$"):
        stratified_folds(np.array([1, -1] * 4), folds, seed=0)


def test_stratified_folds_deterministic():
    y = np.array([1, -1] * 10)
    a, _ = stratified_folds(y, folds=5, seed=9)
    b, _ = stratified_folds(y, folds=5, seed=9)
    c, _ = stratified_folds(y, folds=5, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _reference_grid_scores(X, y, grid, folds, seed):
    """Per-candidate CV scores computed without the dedup cache."""
    assign, folds_eff = stratified_folds(y, folds, seed)
    out = []
    for kind, C, gamma in grid.candidates():
        scores = []
        for f in range(folds_eff):
            tr = assign != f
            te = assign == f
            spec = KernelSpec(kind=kind, gamma=gamma, degree=grid.degree,
                              coef0=grid.coef0)
            model = smo_train(X[tr], y[tr], spec, C)
            scores.append(weighted_f1(y[te], predict(model, X[te])))
        out.append(float(np.mean(scores)))
    return out


# every kind, a repeated C, and both gammas resolved from the fold's rows
_WIDE_GRID = GridConfig(c_values=(0.5, 1.0, 0.5, 20.0),
                        gamma_values=("scale", "auto", 0.5))


def _grid_problem(rng):
    X = rng.normal(size=(12, 2))
    y = np.where(X[:, 0] + X[:, 1] > 0, 1, -1)
    if len(set(y.tolist())) == 1:
        y[0] = -y[0]
    return X, y


def test_grid_search_matches_reference(rng):
    X, y = _grid_problem(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = grid_search(X, y, _WIDE_GRID, folds=3, seed=1)
        want = _reference_grid_scores(X, y, _WIDE_GRID, folds=3, seed=1)
    assert result.means.tolist() == want
    assert result.best_index == int(np.argmax(want))


def test_grid_search_builds_one_gram_per_kernel_and_fold(rng, monkeypatch):
    X, y = _grid_problem(rng)
    squares = []

    def counting(X, spec, Y=None, gamma=None):
        if Y is None:
            squares.append(spec.kind)
        return kernel_matrix(X, spec, Y=Y, gamma=gamma)

    monkeypatch.setattr(svm, "kernel_matrix", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid_search(X, y, _WIDE_GRID, folds=3, seed=1)
    # linear reads no field; rbf, poly and sigmoid read each of 3 gammas
    assert len(squares) == (1 + 3 + 3 + 3) * 3


def test_grid_search_dedup_ties_break_earliest(rng):
    X = rng.normal(size=(10, 2))
    y = np.where(X[:, 0] > 0, 1, -1)
    if len(set(y.tolist())) == 1:
        y[0] = -y[0]
    # linear ignores gamma: the two candidates are duplicates, and the
    # winner must be the first index.
    grid = GridConfig(kernels=("linear",), c_values=(1.0,),
                      gamma_values=("scale", 0.5))
    result = grid_search(X, y, grid, folds=2, seed=0)
    assert result.means[0] == result.means[1]
    assert result.best_index == 0
    assert result.nonconverged_fits == 0


def test_grid_search_result_reports_choice(rng):
    X = rng.normal(size=(10, 2))
    y = np.where(X[:, 0] > 0, 1, -1)
    if len(set(y.tolist())) == 1:
        y[0] = -y[0]
    grid = GridConfig(kernels=("rbf",), c_values=(1.0, 2.0),
                      gamma_values=(0.5,), degree=2, coef0=0.25)
    result = grid_search(X, y, grid, folds=2, seed=0)
    spec, C = result.best_model_inputs()
    assert spec.kind == "rbf"
    assert spec.degree == 2
    assert spec.coef0 == 0.25
    assert C in (1.0, 2.0)
    assert result.best == result.candidates[result.best_index]


def _random_problem(rng, kernel):
    n = int(rng.integers(4, 13))
    d = int(rng.integers(2, 5))
    X = rng.normal(size=(n, d))
    y = np.where(rng.integers(0, 2, n) == 0, -1, 1)
    if len(set(y.tolist())) == 1:
        y[0] = -y[0]
    C = float(rng.choice([0.1, 1.0, 10.0]))
    if kernel == "sigmoid":
        spec = KernelSpec(kind="sigmoid", gamma=0.05 / d, coef0=0.0)
    elif kernel == "poly":
        spec = KernelSpec(kind="poly", gamma=0.5, degree=2, coef0=1.0)
    elif kernel == "rbf":
        spec = KernelSpec(kind="rbf", gamma=float(rng.uniform(0.2, 1.5)))
    else:
        spec = KernelSpec(kind="linear")
    return X, y, spec, C


def _assert_dual_matches_qp_oracle(X, y, spec, C):
    """Check the SMO dual against the QP oracle; False, checking nothing,
    when the Gram matrix is indefinite."""
    K = kernel_matrix(X, spec, gamma=resolve_gamma(spec, X))
    if np.linalg.eigvalsh(K).min() < -1e-8:
        return False  # indefinite sigmoid Gram: dual max not well-defined
    model = smo_train(X, y, spec, C, tol=1e-5)
    mine = _model_dual(model, X, y, spec, C)
    best = dual_objective(K, y, qp_oracle(K, y, C))
    assert abs(mine - best) <= 1e-4 * max(abs(best), 1.0)
    return True


@pytest.mark.parametrize("kernel", ["linear", "rbf", "poly", "sigmoid"])
def test_smo_dual_matches_qp_oracle(kernel):
    # crc32, not hash(): str hashes are salted per process. Only about 1 in
    # 30 sigmoid draws has a PSD Gram, so draw until 4 have been checked;
    # every linear, rbf and poly draw is PSD and checked.
    rng = np.random.default_rng(zlib.crc32(kernel.encode()))
    checked = 0
    for _ in range(400):
        problem = _random_problem(rng, kernel)
        checked += _assert_dual_matches_qp_oracle(*problem)
        if checked == 4:
            break
    assert checked == 4


@pytest.mark.xfail(strict=True, reason=(
    "first-order SMO zigzags on this 8-point linear draw (C = 1) and stops "
    "at max_passes with a duality gap of 5.55e-3 at tol 1e-5; second-order "
    "working-set selection (WSS3, Fan, Chen & Lin 2005) is the fix"))
def test_smo_dual_matches_qp_oracle_zigzag_draw():
    _assert_dual_matches_qp_oracle(
        *_random_problem(np.random.default_rng(206), "linear"))


BIT_IDENTITY_SPECS = {
    "linear": KernelSpec("linear"),
    "poly": KernelSpec("poly", "scale", 3, 0.0),
    "rbf": KernelSpec("rbf", "scale"),
    "sigmoid": KernelSpec("sigmoid", "scale", 3, 0.0),
}


def _bit_identity_problem(n, d, binary, scale, n_dup, seed):
    """n rows of width d, binary or Gaussian, times ``scale``; the last
    ``n_dup`` rows repeat the first ones with the opposite label."""
    rng = np.random.default_rng(seed)
    X = scale * ((rng.random((n, d)) < 0.3).astype(np.float64) if binary
                 else rng.normal(size=(n, d)))
    y = np.where(rng.random(n) < 0.5, -1, 1)
    y[0], y[-1] = 1, -1
    for k in range(min(n_dup, n // 2)):
        X[n - 1 - k], y[n - 1 - k] = X[k], -y[k]
    return X, y


def _one_warning_per_stall(record):
    """A reference fit's record without the max_passes warning that the
    reference emits right after a stall warning; the solver warns once."""
    out, caught = record
    kept = [w for k, w in enumerate(caught)
            if not (k and caught[k - 1][1].startswith("SMO stalled")
                    and w[1].startswith("SMO hit max_passes"))]
    return out, kept


def _fit_record(train, X, y, spec, C, max_passes):
    """A fit's support set, dual coefficients and bias as bytes, or the
    error it raised, plus every warning it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            model = train(X, y, spec, C, max_passes=max_passes)
        except SolverError as exc:
            out = ("SolverError", str(exc))
        else:
            out = (model.support_idx.tolist(), model.dual_coef.tobytes(),
                   np.float64(model.bias).tobytes())
    return out, [(w.category, str(w.message)) for w in caught]


@given(n=st.integers(2, 40), d=st.integers(1, 6),
       kernel=st.sampled_from(sorted(BIT_IDENTITY_SPECS)),
       C=st.sampled_from([0.001, 1.0, 2000.0]),
       max_passes=st.sampled_from([0, 1, 200]), binary=st.booleans(),
       scale=st.sampled_from([1.0, 1e8]), n_dup=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
# one draw per exit: converged; stalled (linear Gram entries near 1e16
# shrink the first step below 1e-15); stopped at max_passes
@example(n=12, d=3, kernel="rbf", C=1.0, max_passes=200, binary=False,
         scale=1.0, n_dup=0, seed=0)
@example(n=6, d=2, kernel="linear", C=2000.0, max_passes=200, binary=True,
         scale=1e8, n_dup=2, seed=1)
@example(n=30, d=4, kernel="linear", C=2000.0, max_passes=1, binary=True,
         scale=1.0, n_dup=0, seed=2)
# no free alpha and both extreme scores -0.0: the bias must stay -0.0
@example(n=8, d=2, kernel="linear", C=1.0, max_passes=200, binary=True,
         scale=1.0, n_dup=1, seed=299)
# one draw per clip of the pair step, each onto a bound computed from the
# old alphas rather than onto 0 or C:
# aj clipped at L = aj_old - ai_old > 0, yi != yj
@example(n=3, d=1, kernel="linear", C=1.0, max_passes=200, binary=False,
         scale=1.0, n_dup=0, seed=3)
# aj clipped at H = C + aj_old - ai_old < C, yi != yj
@example(n=3, d=1, kernel="linear", C=2000.0, max_passes=200, binary=False,
         scale=1.0, n_dup=0, seed=1)
# aj clipped at L = ai_old + aj_old - C > 0, yi = yj
@example(n=4, d=1, kernel="linear", C=1.0, max_passes=200, binary=False,
         scale=1.0, n_dup=0, seed=2)
# aj clipped at H = ai_old + aj_old < C, yi = yj
@example(n=3, d=1, kernel="sigmoid", C=1.0, max_passes=200, binary=False,
         scale=1.0, n_dup=0, seed=3)
@settings(deadline=None)
def test_smo_matches_reference_bit_for_bit(n, d, kernel, C, max_passes,
                                           binary, scale, n_dup, seed):
    X, y = _bit_identity_problem(n, d, binary, scale, n_dup, seed)
    spec = BIT_IDENTITY_SPECS[kernel]
    assert (_fit_record(smo_train, X, y, spec, C, max_passes)
            == _one_warning_per_stall(_fit_record(reference_smo_train, X, y,
                                                  spec, C, max_passes)))


@pytest.mark.parametrize("kernel", sorted(BIT_IDENTITY_SPECS))
def test_smo_matches_reference_on_one_hot_rows_at_max_passes(kernel):
    # 120 rows of 4 one-hot positions x 15 categories with random labels:
    # linear C = 2000 runs all max_passes * N pair updates; the other
    # kernels converge
    rng = np.random.default_rng(11)
    X = np.zeros((120, 60))
    for pos in range(4):
        X[np.arange(120), 15 * pos + rng.integers(0, 15, 120)] = 1.0
    y = np.where(rng.random(120) < 0.5, -1, 1)
    spec = BIT_IDENTITY_SPECS[kernel]
    mine = _fit_record(smo_train, X, y, spec, 2000.0, 200)
    if kernel == "linear":
        assert [msg.startswith("SMO hit max_passes") for _, msg in mine[1]] \
            == [True]
    assert mine == _fit_record(reference_smo_train, X, y, spec, 2000.0, 200)


def _reference_alphas(monkeypatch, X, y, spec, C):
    """The reference fit's alpha at each of its pair selections, one row
    per selection."""
    seen = []
    select = _smo_reference._violating_pair

    def recording(score, yf, alpha, C, eps):
        seen.append(alpha.copy())
        return select(score, yf, alpha, C, eps)
    monkeypatch.setattr(_smo_reference, "_violating_pair", recording)
    reference_smo_train(X, y, spec, C)
    return np.array(seen)


def test_smo_matches_reference_when_an_alpha_jumps_from_zero_to_C(
        monkeypatch):
    # at C = 0.001 one pair step takes alpha 0 from 0 straight to C, so it
    # may no longer move up and may now move down: both of its entries in
    # the solver's selection array change at once. A later step moves it
    # down off C, through the entry that was just opened.
    X, y = _bit_identity_problem(4, 2, False, 1.0, 0, 22)
    spec, C = KernelSpec("linear"), 0.001
    a = _reference_alphas(monkeypatch, X, y, spec, C)[:, 0]
    jump = int(np.flatnonzero((a[:-1] == 0.0) & (a[1:] == C))[0]) + 1
    assert (a[jump:] < C).any()
    assert (_fit_record(smo_train, X, y, spec, C, 200)
            == _fit_record(reference_smo_train, X, y, spec, C, 200))


def test_smo_matches_reference_when_a_blocked_alpha_reopens(monkeypatch):
    # alpha 1 (label -1) starts at 0, where y * alpha may not move up, so
    # its "up" entry in the solver's selection array is blocked from the
    # start. A step lifts it into (0, C), which reopens that entry, and a
    # later step lowers it again, which picks it through the reopened entry.
    X, y = _bit_identity_problem(3, 2, False, 1.0, 0, 1)
    spec, C = KernelSpec("linear"), 1.0
    a = _reference_alphas(monkeypatch, X, y, spec, C)[:, 1]
    assert y[1] == -1 and a[0] == 0.0
    lift = int(np.flatnonzero((a > 0.0) & (a < C))[0])
    assert (np.diff(a[lift:]) < 0).any()
    assert (_fit_record(smo_train, X, y, spec, C, 200)
            == _fit_record(reference_smo_train, X, y, spec, C, 200))


def test_smo_matches_reference_when_an_alpha_may_move_neither_way(
        monkeypatch):
    # for C <= 2 * eps (eps = 1e-12) an alpha in [C - eps, eps] may move
    # neither up nor down; on features of size 1e5 steps are short enough
    # to leave two alphas there, free, so their scores enter the bias
    X, y = _bit_identity_problem(3, 2, False, 1e5, 0, 2)
    spec, C = KernelSpec("linear"), 1.5e-12
    a = _reference_alphas(monkeypatch, X, y, spec, C)[-1]
    stuck = (a >= C - 1e-12) & (a <= 1e-12)
    assert (stuck & (a > C * 1e-8) & (a < C * (1.0 - 1e-8))).sum() == 2
    assert (_fit_record(smo_train, X, y, spec, C, 200)
            == _fit_record(reference_smo_train, X, y, spec, C, 200))


def _grid_fold_records(X, y, kernel, c_values, max_passes):
    """Every model a 2-fold ``grid_search`` scores, in its order of fits,
    as a ``_model_record``, then the SolverError that ended the search,
    if one did, with the warnings emitted since the last model."""
    seen = []
    real_predict = svm.predict
    grid = GridConfig(kernels=(kernel,), c_values=tuple(c_values),
                      gamma_values=("scale",))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")

        def recording(model, X_te):
            seen.append((model, len(caught)))
            return real_predict(model, X_te)
        svm.predict = recording
        try:
            grid_search(X, y, grid, folds=2, seed=0, max_passes=max_passes)
        except SolverError as exc:
            seen.append((("SolverError", str(exc)), len(caught)))
        finally:
            svm.predict = real_predict
    out, start = [], 0
    for model, end in seen:
        out.append(_model_record(model, caught[start:end]))
        start = end
    return out


def _model_record(model, caught):
    """A fit's support set, dual coefficient and bias bytes and
    ``converged``, or the error it raised, plus its warnings."""
    if isinstance(model, SvmModel):
        model = (model.support_idx.tolist(), model.dual_coef.tobytes(),
                 np.float64(model.bias).tobytes(), model.converged)
    return model, [(w.category, str(w.message)) for w in caught]


def _fresh_fold_records(X, y, kernel, c_values, max_passes):
    """``_grid_fold_records`` from a fresh ``smo_train`` per fold and C."""
    assign, _ = stratified_folds(y, 2, 0)
    out = []
    for f in range(2):
        tr = assign != f
        for C in c_values:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    model = smo_train(X[tr], y[tr], BIT_IDENTITY_SPECS[kernel],
                                      C, max_passes=max_passes)
                except SolverError as exc:
                    model = ("SolverError", str(exc))
            out.append(_model_record(model, caught))
            if not isinstance(model, SvmModel):
                return out
    return out


@given(n=st.integers(4, 40), d=st.integers(1, 6),
       kernel=st.sampled_from(sorted(BIT_IDENTITY_SPECS)),
       c_values=st.lists(st.sampled_from(sorted(set(C_VALUES))), min_size=1,
                         max_size=5, unique=True).map(sorted),
       max_passes=st.sampled_from([0, 1, 200]), binary=st.booleans(),
       scale=st.sampled_from([1.0, 1e8]), n_dup=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
# one draw per exit that a fold shares, found with a copy of the pair loop
# that records which C-bound tests fired: fold 0 binds nothing at its
# smallest C and the larger ones reuse a run that reached tol (sigmoid on
# one-hot rows with duplicates), stalled (linear at scale 1e8) or stopped
# at max_passes (rbf at scale 1e8 with duplicates)
@example(n=6, d=2, kernel="sigmoid", c_values=[12.5, 14.75, 700.0],
         max_passes=1, binary=True, scale=1.0, n_dup=3, seed=540)
@example(n=30, d=1, kernel="linear", c_values=[5.0, 7.5, 1300.0],
         max_passes=1, binary=False, scale=1e8, n_dup=0, seed=355)
@example(n=29, d=6, kernel="rbf", c_values=[11.25, 12.75, 1700.0],
         max_passes=1, binary=False, scale=1e8, n_dup=4, seed=281)
@settings(deadline=None)
def test_grid_search_fits_equal_fresh_fits_along_the_c_axis(
        n, d, kernel, c_values, max_passes, binary, scale, n_dup, seed):
    # grid_search reuses one pair loop for every larger C of a fold when
    # no C bound touched it (svm module docstring); each model it scores
    # must still be a fresh smo_train at its C, bit for bit
    X, y = _bit_identity_problem(n, d, binary, scale, n_dup, seed)
    assume(min((y == 1).sum(), (y == -1).sum()) >= 2)  # 2 folds, no warning
    assert (_grid_fold_records(X, y, kernel, c_values, max_passes)
            == _fresh_fold_records(X, y, kernel, c_values, max_passes))


# (_bit_identity_problem draw, C axis), each searched for with a copy of
# the pair loop that records which C-bound tests fired, on linear 2-fold
# grids (cv seed 0)
_LOOP_RUN_DRAWS = {
    # neither fold binds anything at C = 1: one loop run per fold
    "none": ((4, 2, False, 1.0, 0, 1), (1.0, 10.0, 100.0),
             [1.0, 1.0]),
    # fold 0 at C = 1.5e-12: an alpha reaches C - eps with no clip at a
    # bound of C; fold 1 binds nothing
    "top": ((4, 1, False, 1e8, 1, 1), (1.5e-12, 3e-12),
            [1.5e-12, 3e-12, 1.5e-12]),
    # fold 0 at C = 1e6: aj clipped at H = C + aj_old - ai_old (yi != yj),
    # and rounding leaves ai below C - eps; fold 1 binds nothing
    "H": ((10, 1, False, 1.0, 3, 36), (1e6, 2e6), [1e6, 2e6, 1e6]),
    # fold 0 at C = 1e6: aj clipped at L = ai_old + aj_old - C > 0, and
    # rounding leaves ai below C - eps; fold 1 binds at both C
    "L": ((10, 2, False, 1e-3, 0, 1484), (1e6, 2e6),
          [1e6, 2e6, 1e6, 2e6]),
}


@pytest.mark.parametrize("kind", sorted(_LOOP_RUN_DRAWS))
def test_grid_search_reruns_the_pair_loop_only_after_a_c_bound(
        kind, monkeypatch):
    # an H or L clip at a bound that C sets leaves the other alpha at C up
    # to rounding, so an alpha nearly always reaches C - eps with it; the
    # H and L draws are the rare ones where rounding keeps it below
    problem, c_values, want = _LOOP_RUN_DRAWS[kind]
    X, y = _bit_identity_problem(*problem)
    runs = []
    loop = svm._smo_loop

    def counting(K, y, C, tol, max_passes):
        runs.append(C)
        return loop(K, y, C, tol, max_passes)
    monkeypatch.setattr(svm, "_smo_loop", counting)
    grid = GridConfig(kernels=("linear",), c_values=c_values,
                      gamma_values=("scale",))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid_search(X, y, grid, folds=2, seed=0)
    assert runs == want


def test_kkt_conditions_hold(rng):
    for _ in range(5):
        X, y, spec, C = _random_problem(rng, "rbf")
        model = smo_train(X, y, spec, C, tol=1e-4)
        K = kernel_matrix(X, spec, gamma=model.gamma_value)
        a = np.zeros(len(y))
        sup = np.asarray(model.support_idx)
        a[sup] = np.asarray(model.dual_coef) * y[sup]
        f = K @ (a * y) + model.bias
        margins = y * f
        for i in range(len(y)):
            if a[i] < C * 1e-6:
                assert margins[i] >= 1.0 - 1e-3
            elif a[i] > C * (1 - 1e-6):
                assert margins[i] <= 1.0 + 1e-3
            else:
                assert margins[i] == pytest.approx(1.0, abs=1e-3)


def _overlapping_problem():
    # two overlapping blobs: a converged fit has points at 0, at C and free
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(-0.5, 1.0, (20, 2)),
                   rng.normal(0.5, 1.0, (20, 2))])
    return X, np.repeat([1, -1], 20)


def _perturbed(check):
    """A stand-in for ``svm._check_solution`` that breaks one condition of
    the real solution, then runs the real check on it."""
    real = svm._check_solution

    def wrapper(alpha, yf, margins, C, slack):
        alpha, margins = alpha.copy(), margins.copy()
        at_zero, at_C = alpha <= C * 1e-8, alpha >= C * (1.0 - 1e-8)
        mask = {"equality": np.arange(len(alpha)) == 0,
                "zero-alpha": at_zero, "bound-alpha": at_C,
                "free": ~at_zero & ~at_C}[check]
        assert mask.any(), f"no {check} point to perturb"
        if check == "equality":
            alpha[mask] += 1e-3
        elif check == "zero-alpha":
            margins[mask] -= 1.0
        else:
            margins[mask] += 1.0
        return real(alpha, yf, margins, C, slack)
    return wrapper


@pytest.mark.parametrize("check",
                         ["equality", "zero-alpha", "bound-alpha", "free"])
def test_smo_broken_solution_is_solver_error(check, monkeypatch):
    X, y = _overlapping_problem()
    smo_train(X, y, KernelSpec(kind="linear"), C=1.0)  # the real fit passes
    monkeypatch.setattr(svm, "_check_solution", _perturbed(check))
    with pytest.raises(SolverError, match=check):
        smo_train(X, y, KernelSpec(kind="linear"), C=1.0)


@pytest.mark.parametrize("kinds", [("zero-alpha", "bound-alpha"),
                                   ("zero-alpha", "free"),
                                   ("bound-alpha", "free")])
def test_smo_two_broken_kinds_name_the_first_with_its_count(kinds,
                                                            monkeypatch):
    # every point of both kinds breaks its condition; the error names the
    # first kind in zero-alpha, bound-alpha, free order and its count
    X, y = _overlapping_problem()
    real = svm._check_solution
    planted = []

    def wrapper(alpha, yf, margins, C, slack):
        margins = margins.copy()
        at_zero, at_C = alpha <= C * 1e-8, alpha >= C * (1.0 - 1e-8)
        masks = {"zero-alpha": at_zero, "bound-alpha": at_C,
                 "free": ~at_zero & ~at_C}
        for kind in kinds:
            assert masks[kind].any(), f"no {kind} point to break"
            margins[masks[kind]] = 0.0 if kind == "zero-alpha" else 3.0
        planted.append(int(masks[kinds[0]].sum()))
        return real(alpha, yf, margins, C, slack)
    monkeypatch.setattr(svm, "_check_solution", wrapper)
    with pytest.raises(SolverError) as err:
        smo_train(X, y, KernelSpec(kind="linear"), C=1.0)
    assert str(err.value) == (
        f"SMO KKT condition violated on {planted[0]} {kinds[0]} point(s) "
        "of a converged fit")


def test_smo_solver_error_survives_python_O():
    # an assert would vanish under -O; the typed error must not
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from motifqk import svm
        from motifqk.errors import SolverError
        from motifqk.kernels import KernelSpec
        real = svm._check_solution

        def drifted(alpha, *rest):
            alpha = alpha.copy()
            alpha[0] += 1e-3
            return real(alpha, *rest)

        svm._check_solution = drifted
        X = np.array([[1.0], [2.0], [-1.0], [-2.0]])
        try:
            svm.smo_train(X, np.array([1, 1, -1, -1]), KernelSpec("linear"),
                          1.0)
        except SolverError:
            print("SolverError", sys.flags.optimize)
    """)
    src = str(Path(motifqk.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["SolverError", "1"]
