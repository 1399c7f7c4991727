"""Acceptance gate: one test per shipped guarantee, numbered and ordered.

Each test prints a single PASS line with the quantity it pinned down, so a
verbose run reads as a checklist. Criterion 9 needs the lab construct
screen, which does not ship with the repository; it is skipped unless
MOTIFQK_DATASET points at the CSV (or data/constructs.csv exists).
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from _qp import dual_objective, qp_oracle
from motifqk.circuits import (
    build_heisenberg_embedding,
    build_zz_feature_map,
    circuit_stats,
)
from motifqk.data import load_constructs, encode_dataset
from motifqk.evaluation import (
    ExperimentConfig,
    fisher_exact,
    make_splits,
    run_experiment,
    screen_advantage,
)
from motifqk.features import BackendConfig, EmbeddingConfig, project_features
from motifqk.kernels import (
    KernelSpec,
    geometric_difference,
    kernel_matrix,
    model_complexity,
    resolve_gamma,
)
from motifqk.pauliprop import ObservableSum, PauliString, backpropagate_observable, obp_expectations
from motifqk.statevector import pauli_expectation, simulate
from motifqk.svm import C_VALUES, GAMMA_VALUES, GridConfig, smo_train, \
    weighted_f1
from motifqk.synthetic import make_separable_dataset

EXPECTED_CIRCUIT_SIZES = {
    ("e1", 60, 4): (1188, 472, 16),
    ("e1", 60, 6): (1782, 708, 24),
    ("e1", 60, 8): (2376, 944, 32),
    ("e1", 60, 12): (3564, 1416, 48),
    ("e2", 61, 4): (4141, 1440, 48),
    ("e2", 61, 6): (6181, 2160, 72),
}


def _dataset_path():
    env = os.environ.get("MOTIFQK_DATASET")
    if env:
        return Path(env)
    default = Path(__file__).resolve().parent.parent / "data" / "constructs.csv"
    return default if default.exists() else None


def test_criterion_01_circuit_sizes():
    """Reference circuit sizes for both embeddings, exactly."""
    for (kind, n_qubits, reps), want in EXPECTED_CIRCUIT_SIZES.items():
        if kind == "e1":
            circuit = build_zz_feature_map(np.zeros(60), reps=reps,
                                           scale=math.pi / 2)
        else:
            circuit = build_heisenberg_embedding(np.zeros(60), steps=reps,
                                                 scale=math.pi, seed=0)
        assert circuit.n_qubits == n_qubits
        stats = circuit_stats(circuit)
        got = (stats.total_gates, stats.two_qubit_gates, stats.two_qubit_depth)
        assert got == want, (kind, reps, got, want)
    print("criterion 1 PASS: all six reference circuit sizes match exactly")


def test_criterion_02_obp_matches_statevector():
    """200 randomized circuits, every single-qubit Pauli within 1e-10."""
    worst = 0.0
    checked = 0
    for idx in range(200):
        rng = np.random.default_rng(1000 + idx)
        n = 2 + idx % 11  # 2..12
        layers = int(rng.integers(1, 3)) if n <= 8 else 1
        binary = idx % 2 == 0
        d = n if idx % 4 < 2 else n - 1  # alternate e1 (d = n) and e2 (d = n-1)
        x = (rng.integers(0, 2, max(d, 1)).astype(float) if binary
             else rng.uniform(0.0, 1.0, max(d, 1)))
        if idx % 4 < 2:
            scale = float(rng.choice([math.pi, math.pi / 2]))
            circuit = build_zz_feature_map(x, reps=layers, scale=scale)
        else:
            scale = float(rng.uniform(0.3, math.pi))
            circuit = build_heisenberg_embedding(x[: n - 1], steps=layers,
                                                 scale=scale, seed=idx)
        state = simulate(circuit)
        for q in range(circuit.n_qubits):
            for basis in ("X", "Y", "Z"):
                obs = ObservableSum({PauliString.single(q, basis): 1.0})
                back = backpropagate_observable(circuit, obs, 0.0)
                diff = abs(obp_expectations(back)[0]
                           - pauli_expectation(state, q, basis))
                worst = max(worst, diff)
                checked += 1
        assert worst <= 1e-10, (idx, worst)
    print(f"criterion 2 PASS: {checked} Pauli expectations over 200 circuits, "
          f"worst |obp - statevector| = {worst:.2e} <= 1e-10")


def test_criterion_03_bloch_vectors_valid():
    """Every projected (X, Y, Z) triple obeys X^2+Y^2+Z^2 <= 1 + 1e-9."""
    worst = -np.inf
    n_triples = 0

    def check(feats):
        nonlocal worst, n_triples
        radii = (feats.reshape(feats.shape[0], -1, 3) ** 2).sum(axis=2)
        worst = max(worst, float((radii - 1.0).max()))
        n_triples += radii.size
        assert (radii <= 1.0 + 1e-9).all()

    synth = make_separable_dataset()
    e1 = EmbeddingConfig(kind="e1", reps=6, scale=math.pi / 2)
    check(project_features(synth.bits, e1, BackendConfig(kind="exact")))

    rng = np.random.default_rng(3)
    wide = rng.integers(0, 2, (6, 60)).astype(np.uint8)
    # production truncation settings at full width; untruncated wide runs
    # are exact readouts, already tied to the statevector by criterion 2
    for threshold in (0.2, 0.1, 0.05):
        backend = BackendConfig(kind="obp", threshold=threshold)
        check(project_features(wide, EmbeddingConfig(kind="e1", reps=8,
                                                     scale=math.pi / 2),
                               backend))
        check(project_features(wide, EmbeddingConfig(kind="e2", steps=4,
                                                     scale=math.pi / 2,
                                                     seed=7), backend))

    small = rng.integers(0, 2, (8, 8)).astype(np.uint8)
    for emb in (EmbeddingConfig(kind="e1", reps=2, scale=1.1, test_mode=True),
                EmbeddingConfig(kind="e2", steps=2, scale=1.4, seed=5,
                                test_mode=True)):
        check(project_features(small, emb, BackendConfig(kind="exact")))
        check(project_features(small, emb,
                               BackendConfig(kind="obp", threshold=0.0)))

    # shots estimate each basis on its own: unprojected, every triple of
    # this row's 100-shot estimates leaves the ball (r^2 up to 1.026)
    row = np.array([[int(b) for b in "10010001"]], dtype=np.uint8)
    check(project_features(row, EmbeddingConfig(kind="e1", reps=8,
                                                scale=math.pi / 2),
                           BackendConfig(kind="shots", shots=100, seed=1)))
    print(f"criterion 3 PASS: {n_triples} Bloch triples, worst r^2 - 1 = "
          f"{worst:.2e} <= 1e-9")


def _metric_oracles(Kc, Kq, y, lam):
    n = Kc.shape[0]
    Kc = n * Kc / np.trace(Kc)
    Kq = n * Kq / np.trace(Kq)
    wq, vq = np.linalg.eigh(Kq)
    sq = vq @ np.diag(np.sqrt(np.clip(wq, 0.0, None))) @ vq.T
    inv = np.linalg.inv(Kc + lam * np.eye(n))
    m = sq @ inv @ Kc @ inv @ sq
    g = math.sqrt(max(float(np.linalg.eigvalsh((m + m.T) / 2).max()), 0.0))
    inv_q = np.linalg.inv(Kq + lam * np.eye(n))
    t1 = math.sqrt(lam * lam * float(y @ inv_q @ inv_q @ y) / n)
    t2 = math.sqrt(float(y @ inv_q @ Kq @ inv_q @ y) / n)
    return g, t1 + t2


def test_criterion_04_metric_closed_forms_and_brute_force():
    """Identity closed forms to 1e-12; dense numpy oracle to 1e-8."""
    rng = np.random.default_rng(44)
    for lam in (0.0, 0.5, 1.0, 10.0):
        got = geometric_difference(np.eye(20), np.eye(20), lam)
        assert abs(got - 1.0 / (1.0 + lam)) <= 1e-12, (lam, got)
    for n in (4, 50, 172):
        y = np.where(rng.integers(0, 2, n) == 0, -1.0, 1.0)
        got = model_complexity(np.eye(n), y, 0.0)
        assert abs(got - 1.0) <= 1e-12, (n, got)
    worst = 0.0
    for _ in range(5):
        b1 = rng.normal(size=(20, 20))
        b2 = rng.normal(size=(20, 20))
        Kc, Kq = b1 @ b1.T, b2 @ b2.T
        y = np.where(rng.integers(0, 2, 20) == 0, -1.0, 1.0)
        for lam in (0.1, 1.0, 5.0):
            g_want, s_want = _metric_oracles(Kc, Kq, y, lam)
            g_got = geometric_difference(Kc, Kq, lam)
            s_got = model_complexity(Kq, y, lam)
            worst = max(worst, abs(g_got - g_want), abs(s_got - s_want))
            assert abs(g_got - g_want) <= 1e-8
            assert abs(s_got - s_want) <= 1e-8
    print(f"criterion 4 PASS: closed forms exact to 1e-12; brute-force gap "
          f"{worst:.2e} <= 1e-8 on 20x20 PSD pairs")


def test_criterion_05_smo_matches_qp_oracle():
    """Dual objective within 1e-4 relative on 50 problems; KKT at 1e-3."""
    kernels = ("linear", "rbf", "poly", "sigmoid")
    solved = 0
    attempt = 0
    worst_rel = 0.0
    while solved < 50:
        rng = np.random.default_rng(7000 + attempt)
        attempt += 1
        assert attempt < 200, "problem generator exhausted"
        kind = kernels[attempt % 4]
        n = int(rng.integers(4, 13))
        X = rng.normal(size=(n, int(rng.integers(2, 5))))
        y = np.where(rng.integers(0, 2, n) == 0, -1, 1)
        if len(set(y.tolist())) == 1:
            y[0] = -y[0]
        C = float(rng.choice([0.1, 1.0, 10.0]))
        if kind == "sigmoid":
            spec = KernelSpec(kind="sigmoid", gamma=0.03, coef0=0.0)
        elif kind == "poly":
            spec = KernelSpec(kind="poly", gamma=0.5, degree=2, coef0=1.0)
        elif kind == "rbf":
            spec = KernelSpec(kind="rbf", gamma=float(rng.uniform(0.2, 1.5)))
        else:
            spec = KernelSpec(kind="linear")
        K = kernel_matrix(X, spec, gamma=resolve_gamma(spec, X))
        if np.linalg.eigvalsh(K).min() < -1e-8:
            continue  # indefinite Gram: the dual maximum is unbounded
        model = smo_train(X, y, spec, C, tol=1e-5)
        a = np.zeros(n)
        sup = np.asarray(model.support_idx)
        a[sup] = np.asarray(model.dual_coef) * y[sup]
        mine = dual_objective(K, y, a)
        best = dual_objective(K, y, qp_oracle(K, y, C))
        rel = abs(mine - best) / max(abs(best), 1.0)
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-4, (attempt, kind, rel)

        f = K @ (a * y) + model.bias
        margins = y * f
        for i in range(n):
            if a[i] < C * 1e-6:
                assert margins[i] >= 1.0 - 1e-3
            elif a[i] > C * (1.0 - 1e-6):
                assert margins[i] <= 1.0 + 1e-3
            else:
                assert abs(margins[i] - 1.0) <= 1e-3
        solved += 1
    print(f"criterion 5 PASS: 50 SMO solutions within {worst_rel:.2e} relative "
          f"of the QP oracle, all KKT-feasible at 1e-3")


def test_criterion_06_grid_and_weighted_f1():
    """Grid materializes 87 C x 77 gamma x 4 kernels; scorer to 1e-10."""
    assert len(C_VALUES) == 87
    assert len(GAMMA_VALUES) == 77
    grid = GridConfig()
    assert len(grid.kernels) == 4
    assert len(grid.candidates()) == 87 * 77 * 4
    cases = [
        (([1, 1, 1, 0], [1, 1, 0, 0]), 23.0 / 30.0),
        (([1, -1, 1, -1], [1, -1, 1, -1]), 1.0),
        (([1, 1, -1, -1], [-1, -1, 1, 1]), 0.0),
        (([1, 1, -1], [1, -1, -1]), 2.0 / 3.0),
    ]
    for (y_true, y_pred), want in cases:
        got = weighted_f1(y_true, y_pred)
        assert abs(got - want) <= 1e-10, (y_true, y_pred, got, want)
    print("criterion 6 PASS: grid is 87 x 77 x 4; weighted F1 matches hand "
          "values to 1e-10")


def test_criterion_07_fisher_full_enumeration():
    """Two-sided p for every table with margins <= 30, against scipy pmf."""
    worst = 0.0
    n_tables = 0
    for r1 in range(31):
        for r2 in range(31):
            n = r1 + r2
            if n == 0:
                assert fisher_exact([[0, 0], [0, 0]]) == 1.0
                n_tables += 1
                continue
            for c1 in range(n + 1):
                lo = max(0, c1 - r2)
                hi = min(r1, c1)
                ks = np.arange(lo, hi + 1)
                pmf = scipy.stats.hypergeom.pmf(ks, n, r1, c1)
                for a in range(lo, hi + 1):
                    want = float(pmf[pmf <= pmf[a - lo] * (1.0 + 1e-12)].sum())
                    got = fisher_exact([[a, r1 - a], [c1 - a, r2 - (c1 - a)]])
                    worst = max(worst, abs(got - want))
                    assert abs(got - want) <= 1e-9, (a, r1, c1, r2, got, want)
                    n_tables += 1
    print(f"criterion 7 PASS: {n_tables} tables enumerated, worst "
          f"|p - oracle| = {worst:.2e} <= 1e-9")


def test_criterion_08_split_protocol_and_determinism():
    """246 -> 172/74 split sizes; same seeds give byte-identical output."""
    plan = make_splits(246, n_splits=10, train_frac=0.7, seed=0)
    for train, test in plan.splits:
        assert (len(train), len(test)) == (172, 74)
        assert sorted(train + test) == list(range(246))
    again = make_splits(246, n_splits=10, train_frac=0.7, seed=0)
    assert plan.splits == again.splits

    config = ExperimentConfig(
        embedding=EmbeddingConfig(kind="e1", reps=6, scale=math.pi / 2),
        backend=BackendConfig(kind="exact"),
        n_splits=3, cv_folds=2,
        grid=GridConfig(kernels=("linear", "rbf"), c_values=(0.25, 1.0),
                        gamma_values=("scale",)))
    first = run_experiment(make_separable_dataset(), config).dumps()
    second = run_experiment(make_separable_dataset(), config).dumps()
    assert first == second
    print("criterion 8 PASS: split sizes 172/74 and byte-identical plans "
          "and reports under fixed seeds")


@pytest.mark.skipif(_dataset_path() is None, reason=(
    "needs the lab construct screen: set MOTIFQK_DATASET or provide "
    "data/constructs.csv (advisory targets: median F1 0.73 +/- 0.05 both "
    "arms; screening 15.777 / 6.090 / 1.527 within 30% at some lambda)"))
def test_criterion_09_reference_numbers():
    """Dataset-gated reproduction of the reference medians and screening."""
    constructs = load_constructs(_dataset_path())
    dataset = encode_dataset(constructs)
    config = ExperimentConfig(
        embedding=EmbeddingConfig(kind="e1", reps=8, scale=math.pi / 2),
        backend=BackendConfig(kind="obp", threshold=0.05),
        n_splits=10, cv_folds=10)
    report = run_experiment(dataset, config)
    med_pqk = report.median_f1["pqk"]
    med_orig = report.median_f1["original"]
    assert abs(med_pqk - 0.73) <= 0.05, med_pqk
    assert abs(med_orig - 0.73) <= 0.05, med_orig

    feats = project_features(dataset.bits, config.embedding, config.backend)
    targets = {"g_cq": 15.777, "s_classical": 6.090, "s_pqk": 1.527}
    hit = False
    for lam in (0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        out = screen_advantage(dataset.bits, dataset.y, feats,
                               KernelSpec(kind="rbf", gamma="scale"), lam=lam)
        if all(abs(out[k] - v) <= 0.3 * v for k, v in targets.items()):
            hit = True
            break
    assert hit, "no lambda reproduced the screening triple within 30%"
    print(f"criterion 9 PASS: medians {med_orig:.3f}/{med_pqk:.3f} within "
          "0.73 +/- 0.05; screening triple within 30%")


def test_criterion_10_synthetic_end_to_end():
    """Fully separable motif rule: both arms reach median F1 = 1.0."""
    dataset = make_separable_dataset()
    assert dataset.layout.n_bits == 15  # exact backend stays under 16 qubits
    # eight-point training sets make CV selection noisy, so every grid
    # candidate must separate robustly on its own; small C and rbf do not
    config = ExperimentConfig(
        embedding=EmbeddingConfig(kind="e1", reps=6, scale=math.pi / 2),
        backend=BackendConfig(kind="exact"),
        n_splits=10, cv_folds=2,
        grid=GridConfig(kernels=("linear",),
                        c_values=(1.0, 14.75),
                        gamma_values=("scale",)))
    report = run_experiment(dataset, config)
    assert report.median_f1["original"] == 1.0, report.f1["original"]
    assert report.median_f1["pqk"] == 1.0, report.f1["pqk"]
    assert min(report.f1["original"]) == 1.0
    assert min(report.f1["pqk"]) == 1.0
    print("criterion 10 PASS: F1 = 1.0 on both arms in all 10 splits "
          "with the exact backend on 15 qubits")
