"""SVM trainer, scorer, and grid tests with a projected-gradient QP oracle."""

import warnings

import numpy as np
import pytest

from motifqk.errors import ConfigError, DataError
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


from _qp import dual_objective, qp_oracle


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


def test_smo_warns_when_not_converged():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 2))
    y = np.where(rng.integers(0, 2, 20) == 0, -1, 1)
    with pytest.warns(RuntimeWarning):
        smo_train(X, y, KernelSpec(kind="rbf", gamma=1.0), C=1.0, max_passes=0)


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
    # files written while KernelSpec still had a lam field load as before
    old = model.to_dict()
    old["kernel"]["lam"] = 1.0
    assert SvmModel.from_dict(old).spec == model.spec


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


def test_grid_search_matches_reference(rng):
    X = rng.normal(size=(12, 2))
    y = np.where(X[:, 0] + X[:, 1] > 0, 1, -1)
    if len(set(y.tolist())) == 1:
        y[0] = -y[0]
    grid = GridConfig(kernels=("linear", "rbf"), c_values=(0.5, 1.0),
                      gamma_values=("scale", 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = grid_search(X, y, grid, folds=3, seed=1)
        want = _reference_grid_scores(X, y, grid, folds=3, seed=1)
    assert np.allclose(result.means, want, atol=1e-12)
    assert result.best_index == int(np.argmax(want))


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


@pytest.mark.parametrize("kernel", ["linear", "rbf", "poly", "sigmoid"])
def test_smo_dual_matches_qp_oracle(kernel):
    rng = np.random.default_rng(hash(kernel) % 2**32)
    for _ in range(4):
        X, y, spec, C = _random_problem(rng, kernel)
        K = kernel_matrix(X, spec, gamma=resolve_gamma(spec, X))
        if np.linalg.eigvalsh(K).min() < -1e-8:
            continue  # indefinite sigmoid Gram: dual max not well-defined
        model = smo_train(X, y, spec, C, tol=1e-5)
        mine = _model_dual(model, X, y, spec, C)
        best = dual_objective(K, y, qp_oracle(K, y, C))
        assert abs(mine - best) <= 1e-4 * max(abs(best), 1.0)


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
