"""The four benchmark workloads and the checks on their outputs.

A workload is set up from a seed, then runs rounds: one round does one
fixed unit of the program's work. ``run_round(unit, traced)`` is the timed
part and calls the program only through public ``motifqk`` functions,
looked up as module attributes so the traced run's wrappers apply; a traced
round repeats the work unit of the untraced round before it. ``check`` runs
untimed and raises ``CheckFailed`` when an output is wrong.
"""

from __future__ import annotations

import dataclasses
import math
import time
from pathlib import Path

import numpy as np

from motifqk import data, evaluation, features, kernels, svm, synthetic

import inputs

N_SAMPLES = 246  # size of the construct screen the paper's protocol runs on
BLOCH_TOL = 1e-9
ORACLE_TOL = 1e-8

E1 = features.EmbeddingConfig("e1", reps=8, scale=math.pi / 2)
E2 = features.EmbeddingConfig("e2", steps=4, scale=math.pi / 2, seed=0)
OBP = features.BackendConfig.parse("obp:0.05")

# A fixed subset of the production grid axes (svm.C_VALUES, svm.GAMMA_VALUES):
# every kernel, C from the axis minimum to its maximum, where every linear fit
# stops at max_passes, and gamma "scale" plus 1.0. Gamma "auto" is left out:
# at C = 2000 its rbf and sigmoid fits take about as long again as the rest of
# the round and stop at max_passes or not depending on the seed, so the round
# time would swing with the seed by more than the benchmark's bound.
GRID = svm.GridConfig(c_values=(0.001, 1.0, 2000.0),
                      gamma_values=("scale", 1.0))
# Three folds, not the protocol's ten: ten make one round take about 17 s,
# a single round per run, and a run's time then follows the machine's speed
# during that one round; with three a run averages 5-6 rounds.
GRID_FOLDS = 3
SMOKE_GRID = svm.GridConfig(kernels=("linear", "rbf"), c_values=(1.0,),
                            gamma_values=("scale",))

LAMBDAS = (0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)  # scripts/run_screening.py
SCREEN_SPEC = kernels.KernelSpec("rbf", "scale")
STANDIN_QUBITS = 61  # width of the E2 feature map on 60 bits

REPORT_CONFIG = evaluation.ExperimentConfig(
    embedding=features.EmbeddingConfig("e1", reps=6, scale=math.pi / 2),
    backend=features.BackendConfig("exact"),
    n_splits=10, cv_folds=2,
    grid=svm.GridConfig(kernels=("linear",), c_values=(1.0, 14.75),
                        gamma_values=("scale",)))


class CheckFailed(Exception):
    """An output of the program failed a benchmark check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Workload:
    """Set up from a seed in ``__init__``; one unit of work per round."""

    ops_per_round = 1  # operations a round attempts, for error counting

    def rate_seconds(self, round_s: float) -> float:
        """Seconds that ``rows_per_round`` rows took in the last round."""
        return round_s

    def traced_cache_bytes(self) -> int:
        """Bytes the traced rounds wrote to the feature cache."""
        return 0


class Embed(Workload):
    """Cold then warm ``project_features`` on distinct 60-bit constructs.

    A round embeds one new construct with E1 (columns in correlation order)
    and with E2, each into an initially empty on-disk cache, then reads both
    rows back from the cache. Traced rounds use a cache of their own, so
    they repeat the untraced rounds' work cold.
    """

    ops_per_round = 4

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        dataset = data.encode_dataset(inputs.make_constructs(N_SAMPLES, seed))
        order = data.correlation_order(dataset.bits)
        self.e1_bits = dataset.bits[:, order]
        self.e2_bits = dataset.bits
        self.caches = (workdir / "cache-plain", workdir / "cache-traced")
        self.cold_s = 0.0

    def rows_per_round(self) -> int:
        return 2

    def rate_seconds(self, round_s: float) -> float:
        return self.cold_s

    def run_round(self, unit: int, traced: bool):
        i = unit % N_SAMPLES
        cache = self.caches[traced]
        t0 = time.perf_counter()
        cold = (features.project_features(self.e1_bits[i:i + 1], E1, OBP,
                                          cache_dir=cache),
                features.project_features(self.e2_bits[i:i + 1], E2, OBP,
                                          cache_dir=cache))
        self.cold_s = time.perf_counter() - t0
        warm = (features.project_features(self.e1_bits[i:i + 1], E1, OBP,
                                          cache_dir=cache),
                features.project_features(self.e2_bits[i:i + 1], E2, OBP,
                                          cache_dir=cache))
        return cold, warm

    def check(self, out) -> None:
        cold, warm = out
        for c, w in zip(cold, warm):
            _require(np.isfinite(c).all(), "feature row is not finite")
            radii = np.sqrt((c.reshape(-1, 3) ** 2).sum(axis=1))
            _require(radii.max() <= 1.0 + BLOCH_TOL,
                     f"qubit triple outside the Bloch ball: {radii.max()!r}")
            _require(c.tobytes() == w.tobytes(),
                     "warm cache read differs from the cold pass")

    def traced_cache_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.caches[1].rglob("*.npy"))


class GridSearch(Workload):
    """The raw one-hot arm of one split: grid search, refit, predict, F1.

    Every round runs split 0 of ``make_splits(246, 10, 0.7, seed)``, so the
    rounds of a run repeat the same work and their mean follows the program,
    not which split a round drew (rounds on different splits of one seed
    differ by up to 2x).
    """

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        dataset = data.encode_dataset(inputs.make_constructs(N_SAMPLES, seed))
        self.X = dataset.bits.astype(np.float64)
        self.y = dataset.y
        self.plan = evaluation.make_splits(N_SAMPLES, 10, 0.7, seed)
        self.seed = seed
        self.grid = SMOKE_GRID if smoke else GRID

    def rows_per_round(self) -> int:
        return N_SAMPLES

    def run_round(self, unit: int, traced: bool):
        tr, te = (list(side) for side in self.plan.splits[0])
        gs = svm.grid_search(self.X[tr], self.y[tr], self.grid,
                             folds=GRID_FOLDS, seed=self.seed)
        spec, C = gs.best_model_inputs()
        model = svm.smo_train(self.X[tr], self.y[tr], spec, C)
        f1 = svm.weighted_f1(self.y[te], svm.predict(model, self.X[te]))
        return gs, model, f1

    def check(self, out) -> None:
        gs, model, f1 = out
        _require(gs.best in self.grid.candidates(),
                 f"chosen candidate {gs.best!r} is not in the grid")
        bound = model.C * (1 + 1e-12)
        _require(bool((np.abs(model.dual_coef) <= bound).all()),
                 "refit has |dual_coef| > C")
        _require(abs(float(model.dual_coef.sum())) <= 1e-6,
                 "refit dual coefficients do not sum to 0")
        _require(0.0 <= f1 <= 1.0, f"test F1 {f1!r} outside [0, 1]")


def _oracle_rbf_scale(X: np.ndarray) -> np.ndarray:
    gamma = 1.0 / (X.shape[1] * X.var())
    sq = np.array([((X - row) ** 2).sum(axis=1) for row in X])
    return np.exp(-gamma * sq)


def _oracle_screen(Xc, y, Fq, lam: float) -> tuple[float, float, float]:
    """g_cq, s_classical and s_pqk recomputed with ``numpy.linalg.eigh``."""
    def normalized(K):
        return K * (K.shape[0] / np.trace(K))

    def complexity(K):
        w, V = np.linalg.eigh(K)
        u = V.T @ y
        d = (w + lam) ** 2
        n = K.shape[0]
        return (math.sqrt(max(lam * lam * float((u * u / d).sum()) / n, 0.0))
                + math.sqrt(max(float((u * u * w / d).sum()) / n, 0.0)))

    Kc = normalized(_oracle_rbf_scale(Xc))
    Kq = normalized(_oracle_rbf_scale(Fq))
    wc, Vc = np.linalg.eigh(Kc)
    wq, Vq = np.linalg.eigh(Kq)
    B = (Vc * (np.clip(wc, 0, None) / (wc + lam) ** 2)) @ Vc.T
    Sq = (Vq * np.sqrt(np.clip(wq, 0, None))) @ Vq.T
    M = Sq @ B @ Sq
    g = math.sqrt(max(float(np.linalg.eigvalsh((M + M.T) / 2).max()), 0.0))
    return g, complexity(Kc), complexity(Kq)


class Screen(Workload):
    """``screen_advantage`` at N=246, one lambda of the sweep per round.

    Kq comes from a seeded stand-in for the projected features (61 qubit
    triples per row), so no circuit or propagation work is measured here.
    """

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        n = 40 if smoke else N_SAMPLES
        dataset = data.encode_dataset(inputs.make_constructs(n, seed))
        self.bits = dataset.bits
        self.y = dataset.y
        self.F = inputs.make_bloch_features(n, STANDIN_QUBITS, seed)
        radii = np.sqrt((self.F.reshape(n, -1, 3) ** 2).sum(axis=2))
        if radii.max() > 1.0 or len(np.unique(self.F, axis=0)) != n:
            raise ValueError("stand-in features left the Bloch ball or repeat")

    def rows_per_round(self) -> int:
        return len(self.y)

    def run_round(self, unit: int, traced: bool):
        lam = LAMBDAS[unit % len(LAMBDAS)]
        return lam, evaluation.screen_advantage(self.bits, self.y, self.F,
                                                SCREEN_SPEC, lam=lam)

    def check(self, out) -> None:
        lam, res = out
        want = _oracle_screen(self.bits.astype(np.float64),
                              self.y.astype(np.float64), self.F, lam)
        got = (res["g_cq"], res["s_classical"], res["s_pqk"])
        for name, a, b in zip(("g_cq", "s_classical", "s_pqk"), got, want):
            _require(abs(a - b) <= ORACLE_TOL,
                     f"{name} = {a!r} but the eigh oracle gives {b!r}")


class Report(Workload):
    """``run_experiment`` with the demo config on the separable set.

    The inputs are fixed: the separable dataset has no seed, and the demo
    config's split seed is the one both arms are known to classify fully.
    """

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.dataset = synthetic.make_separable_dataset()
        self.config = REPORT_CONFIG
        if smoke:
            self.config = dataclasses.replace(REPORT_CONFIG, n_splits=2)
        self.first_dump: str | None = None

    def rows_per_round(self) -> int:
        return len(self.dataset)

    def run_round(self, unit: int, traced: bool):
        report = evaluation.run_experiment(self.dataset, self.config)
        return report, report.dumps()

    def check(self, out) -> None:
        report, text = out
        if self.first_dump is None:
            self.first_dump = text
        _require(text == self.first_dump,
                 "two dumps() of one config differ")
        for arm, f1 in report.median_f1.items():
            _require(f1 == 1.0, f"{arm} median F1 {f1!r} != 1.0")


WORKLOADS = {"embed": Embed, "gridsearch": GridSearch, "screen": Screen,
             "report": Report}
