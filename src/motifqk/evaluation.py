"""Evaluation protocol: shared splits, dual-arm experiments, significance.

One experiment compares two arms on identical train/test splits and
identical CV folds: a kernel SVM on the raw one-hot bits ("original") and
the same machinery on projected quantum-kernel features ("pqk").

``run_experiment`` makes one ``ArmRecord`` per (split, arm), in split-then-
arm order: the split's test rows, the arm's prediction for each, and the
grid entry it chose. One reduction then computes every report field from
those records and the split plan: F1 per split, the chosen entries,
per-motif right/wrong counts from each row's correctness, and from those
an exact Fisher test per annotation cell, so per-position effects can be
called at a chosen significance level. A record keeps its rows paired, so
a later per-row statistic reads the records, not a tally.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field, fields
from math import comb
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, check_count
from .data import (ANNOTATION_AXES, EncodedDataset, annotate_category,
                   correlation_order, decode_one_hot)
from .features import BackendConfig, EmbeddingConfig, parse_scale, \
    project_features
from .kernels import KernelSpec, check_lam, check_ridge, \
    geometric_difference, kernel_matrix, model_complexity, parse_gamma, \
    spectrum
from .svm import GridConfig, check_stopping, grid_search, predict, \
    smo_train, weighted_f1

METHODS = ("original", "pqk")
FEATURE_ORDERS = ("natural", "correlation")
# how many processes compute the feature rows: it cannot change a result,
# so it stays out of the report's config
DEPLOYMENT_FIELDS = ("n_jobs",)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SplitPlan:
    """Reusable train/test index plan; both experiment arms consume it."""

    splits: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def check_split_plan(n_splits, train_frac) -> None:
    """Reject a split count that is not an int >= 1, or a train share
    outside (0, 1)."""
    check_count(n_splits, "n_splits", 1)
    if not (0.0 < train_frac < 1.0):
        raise ConfigError("train_frac must be in (0, 1)")


def make_splits(n_samples: int, n_splits: int = 10, train_frac: float = 0.7,
                seed: int = 0) -> SplitPlan:
    """Seeded random splits; indices are sorted within each side."""
    if n_samples < 2:
        raise ConfigError("need at least 2 samples to split")
    check_split_plan(n_splits, train_frac)
    check_count(seed, "split seed", 0)
    n_train = math.floor(train_frac * n_samples)
    if n_train < 1 or n_train >= n_samples:
        raise ConfigError("train_frac leaves an empty side")
    rng = np.random.default_rng(seed)
    splits = []
    for _ in range(n_splits):
        perm = rng.permutation(n_samples)
        tr = tuple(int(i) for i in np.sort(perm[:n_train]))
        te = tuple(int(i) for i in np.sort(perm[n_train:]))
        splits.append((tr, te))
    return SplitPlan(tuple(splits))


def fisher_exact(table) -> float:
    """Two-sided Fisher exact p for a 2x2 table, in exact integer arithmetic.

    Sums hypergeometric point probabilities no larger than the observed
    one (with a relative slack of 1e-12 to absorb ties).
    """
    try:
        (a, b), (c, d) = table
    except (TypeError, ValueError):
        raise DataError("fisher_exact expects a 2x2 table") from None
    cells = [a, b, c, d]
    if any(not isinstance(v, (int, np.integer)) or v < 0 for v in cells):
        raise DataError("fisher_exact needs nonnegative integer counts")
    a, b, c, d = (int(v) for v in cells)
    r1, r2, c1 = a + b, c + d, a + c
    n = r1 + r2
    if n == 0:
        return 1.0
    lo, hi = max(0, c1 - r2), min(r1, c1)
    weights = {k: comb(r1, k) * comb(r2, c1 - k) for k in range(lo, hi + 1)}
    observed = weights[a]
    slack = 10 ** 12
    num = sum(w for w in weights.values()
              if w * slack <= observed * (slack + 1))
    return num / comb(n, c1)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a dual-arm run needs beyond the dataset itself."""

    embedding: EmbeddingConfig
    backend: BackendConfig
    n_splits: int = 10
    train_frac: float = 0.7
    split_seed: int = 0
    cv_folds: int = 10
    cv_seed: int = 0
    feature_order: str = "natural"
    grid: GridConfig = field(default_factory=GridConfig)
    smo_tol: float = 1e-3
    smo_max_passes: int = 200
    n_jobs: int = 1

    def __post_init__(self):
        check_count(self.n_jobs, "n_jobs", 1)
        check_stopping(self.smo_tol, self.smo_max_passes)
        check_count(self.split_seed, "split_seed", 0)
        check_count(self.cv_seed, "cv_seed", 0)
        check_split_plan(self.n_splits, self.train_frac)
        check_count(self.cv_folds, "cv_folds", 2)
        if self.feature_order not in FEATURE_ORDERS:
            raise ConfigError(
                f"feature_order must be one of {FEATURE_ORDERS}, "
                f"got {self.feature_order!r}")

    def provenance(self) -> dict:
        """Every field but the deployment ones, JSON-ready: the embedding
        and backend as their descriptors, the grid's tuples as lists. A
        field added later reaches ``config_hash`` unless it is named in
        ``DEPLOYMENT_FIELDS``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in DEPLOYMENT_FIELDS}
        out["embedding"] = self.embedding.descriptor()
        out["backend"] = self.backend.descriptor()
        out["grid"] = {key: list(v) if isinstance(v, tuple) else v
                       for key, v in vars(self.grid).items()}
        return out


@dataclass
class EvalReport:
    """JSON-ready experiment record: F1 per split, counts, Fisher p-values."""

    config: dict
    config_hash: str
    n_samples: int
    split_sizes: list
    f1: dict
    median_f1: dict
    max_f1: dict
    chosen: dict
    counts: dict
    fisher: dict

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())


def _config_hash(config: ExperimentConfig) -> str:
    text = json.dumps(config.provenance(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_cells(table: dict):
    """Yield (axis, position, value, entry) for every cell of a counts or
    Fisher table, in report order: axis, then position as an int, then
    value."""
    for axis in sorted(table):
        for pos in sorted(table[axis], key=int):
            for value in sorted(table[axis][pos]):
                yield axis, int(pos), value, table[axis][pos][value]


def fisher_from_counts(counts: dict) -> dict:
    """Per-(axis, position, value) Fisher p comparing the two methods'
    correct/incorrect counts, plus which method looked better."""
    out: dict = {}
    for axis, pos, value, per_method in report_cells(counts):
        cp, ip = per_method["pqk"]
        co, io = per_method["original"]
        p = fisher_exact(((cp, ip), (co, io)))
        acc_p = cp / (cp + ip) if cp + ip else 0.0
        acc_o = co / (co + io) if co + io else 0.0
        better = ("pqk" if acc_p > acc_o
                  else "original" if acc_o > acc_p else "tie")
        out.setdefault(axis, {}).setdefault(str(pos), {})[value] = {
            "p_value": p, "better": better}
    return out


def check_alpha(alpha: float) -> None:
    """Reject a significance level outside (0, 1)."""
    if not (0.0 < alpha < 1.0):
        raise ConfigError("alpha must be in (0, 1)")


def per_motif_analysis(report: EvalReport, alpha: float = 0.01) -> list[dict]:
    """Flat significance table from a report, in report order."""
    check_alpha(alpha)
    return [{"axis": axis, "position": pos, "value": value,
             "p_value": cell["p_value"], "better": cell["better"],
             "significant": cell["p_value"] < alpha}
            for axis, pos, value, cell in report_cells(report.fisher)]


def screen_advantage(bits, y, pqk_features, spec: KernelSpec,
                     lam: float = 1.0) -> dict:
    """Geometry screening: can a classical kernel on the raw bits mimic the
    quantum-projected one, and do the labels look hard for it?

    The two Gram matrices use the same kernel spec, one on the raw bits and
    one on the projected features. g near sqrt(N) with a large classical
    complexity but small quantum complexity is the interesting regime. A
    bad ``lam`` is refused before either Gram is decomposed, and a singular
    Kc + lam I before Kq is; each Gram is validated and decomposed once,
    and g and both s_K read its ``spectrum``.
    """
    Xc = np.asarray(bits, dtype=np.float64)
    Fq = np.asarray(pqk_features, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if Xc.shape[0] != Fq.shape[0] or y.shape != (Xc.shape[0],):
        raise DataError("bits, features, and labels must align")
    if not ((y == 1) | (y == -1)).all():
        raise DataError("labels must be -1/+1")
    Kc = kernel_matrix(Xc, spec)
    Kq = kernel_matrix(Fq, spec)
    check_lam(lam)  # before the eigh of either Gram
    c = spectrum(Kc)
    check_ridge(c, lam)  # before the eigh of Kq
    q = spectrum(Kq)
    g = geometric_difference(c, q, lam)
    s_c = model_complexity(c, y, lam)
    s_q = model_complexity(q, y, lam)
    root_n = math.sqrt(Xc.shape[0])
    geometry_separated = g >= 0.5 * root_n
    complexity_gap = s_c >= 0.5 * root_n and s_q <= 0.5 * s_c
    if not geometry_separated:
        verdict = ("no separation: a classical kernel can match the "
                   "projected quantum geometry")
    elif complexity_gap:
        verdict = "potential for the projected quantum kernel to outperform"
    else:
        verdict = ("geometries differ but the labels look easy for both "
                   "kernels")
    return {"n": int(Xc.shape[0]), "lam": float(lam),
            "kernel": asdict(spec),
            "g_cq": float(g), "sqrt_n": root_n,
            "s_classical": float(s_c), "s_pqk": float(s_q),
            "geometry_separated": bool(geometry_separated),
            "complexity_gap": bool(complexity_gap), "verdict": verdict}


class ArmRecord(NamedTuple):
    """One arm on one split: the split's test rows (sorted), the arm's
    prediction for each, and the grid entry it chose."""

    split: int
    method: str
    test_idx: tuple[int, ...]
    preds: np.ndarray
    chosen: dict


def _run_arm(split: int, method: str, X, y, plan: SplitPlan,
             config: ExperimentConfig) -> ArmRecord:
    """Grid-search one arm on a split's training rows, refit the best
    entry, predict the test rows, and log one progress line."""
    start = time.perf_counter()
    tr, te = plan.splits[split]
    X_tr, y_tr = X[list(tr)], y[list(tr)]
    gs = grid_search(X_tr, y_tr, config.grid, folds=config.cv_folds,
                     seed=config.cv_seed, tol=config.smo_tol,
                     max_passes=config.smo_max_passes)
    spec, C = gs.best_model_inputs()
    model = smo_train(X_tr, y_tr, spec, C, tol=config.smo_tol,
                      max_passes=config.smo_max_passes)
    preds = predict(model, X[list(te)])
    kind, c_val, g_val = gs.best
    nonconverged = gs.nonconverged_fits + (not model.converged)
    chosen = {"kernel": kind, "C": c_val,
              "gamma": g_val if isinstance(g_val, str) else float(g_val),
              "mean_cv_f1": float(gs.means[gs.best_index]),
              "folds": gs.folds,
              "nonconverged_fits": nonconverged}
    logger.info("split %d/%d %s: %s C=%g gamma=%s, mean CV F1 %.4f, %.2f s",
                split + 1, len(plan.splits), method, kind, c_val,
                chosen["gamma"], chosen["mean_cv_f1"],
                time.perf_counter() - start)
    return ArmRecord(split, method, te, preds, chosen)


def _report_from_records(records: list[ArmRecord], plan: SplitPlan,
                         dataset: EncodedDataset,
                         config: ExperimentConfig) -> EvalReport:
    """Every report field from the records and the split plan. A cell of
    ``counts`` tallies, per method, the right and wrong predictions of the
    tested rows whose construct has that (axis, position, value)."""
    y = dataset.y
    per_method = {m: [r for r in records if r.method == m] for m in METHODS}
    f1 = {m: [float(weighted_f1(y[list(r.test_idx)], r.preds)) for r in rs]
          for m, rs in per_method.items()}
    categories = [decode_one_hot(row, dataset.layout)
                  for row in dataset.bits.tolist()]
    # each tested row's right and wrong marks per method, rows in the order
    # they are first tested; then each row's cells, resolved once, take its
    # marks, so cells are made in the order a per-record walk makes them
    marks: dict = {}
    for r in records:
        hits = (r.preds == y[list(r.test_idx)]).tolist()
        for i, ok in zip(r.test_idx, hits):
            row = marks.setdefault(i, {m: [0, 0] for m in METHODS})
            row[r.method][0 if ok else 1] += 1
    counts: dict = {}
    for i, row in marks.items():
        for pos, category in enumerate(categories[i]):
            for axis in ANNOTATION_AXES:
                cell = counts.setdefault(axis, {}) \
                             .setdefault(str(pos), {}) \
                             .setdefault(annotate_category(category, axis),
                                         {m: [0, 0] for m in METHODS})
                for m in METHODS:
                    cell[m][0] += row[m][0]
                    cell[m][1] += row[m][1]
    return EvalReport(
        config=config.provenance(),
        config_hash=_config_hash(config),
        n_samples=len(dataset),
        split_sizes=[[len(tr), len(te)] for tr, te in plan.splits],
        f1=f1,
        median_f1={m: float(np.median(f1[m])) for m in METHODS},
        max_f1={m: float(max(f1[m])) for m in METHODS},
        chosen={m: [r.chosen for r in rs] for m, rs in per_method.items()},
        counts=counts,
        fisher=fisher_from_counts(counts),
    )


def run_experiment(dataset: EncodedDataset,
                   config: ExperimentConfig) -> EvalReport:
    """Run both arms over every split, one ``ArmRecord`` per (split, arm),
    and reduce the records to the report; the pqk arm projects features
    once per distinct column order."""
    bits = dataset.bits
    X_bits = bits.astype(np.float64)
    y = dataset.y
    if len(np.unique(y)) < 2:
        raise DataError("experiment needs both labels present")
    plan = make_splits(len(dataset), config.n_splits, config.train_frac,
                       config.split_seed)
    features: dict[tuple[int, ...], np.ndarray] = {}
    records: list[ArmRecord] = []
    for k, (tr, _) in enumerate(plan.splits):
        order = (tuple(correlation_order(bits[list(tr)]))
                 if config.feature_order == "correlation"
                 else tuple(range(bits.shape[1])))
        if order not in features:
            features[order] = project_features(
                bits[:, order], config.embedding, config.backend,
                n_jobs=config.n_jobs)
        for method, X in zip(METHODS, (X_bits, features[order])):
            records.append(_run_arm(k, method, X, y, plan, config))
    return _report_from_records(records, plan, dataset, config)


def _listed(convert):
    return lambda text: tuple(convert(tok.strip()) for tok in text.split(","))


# every key config_from_ini reads, by section, with how its text is read;
# anything else is a typo. Keys go by name to EmbeddingConfig,
# BackendConfig.parse (backend.backend is its text), GridConfig and
# ExperimentConfig (protocol and cache.n_jobs, the worker processes), so a
# key left out keeps the default its config type holds
_INI_KEYS = {
    "dataset": {"path": str},
    "embedding": {"kind": str, "reps": int, "steps": int,
                  "scale": parse_scale, "seed": int},
    "backend": {"backend": str, "seed": int},
    "protocol": {"n_splits": int, "train_frac": float, "split_seed": int,
                 "cv_folds": int, "cv_seed": int, "feature_order": str,
                 "smo_tol": float, "smo_max_passes": int},
    "grid": {"kernels": _listed(str), "c_values": _listed(float),
             "gamma_values": _listed(parse_gamma), "degree": int,
             "coef0": float},
    "cache": {"n_jobs": int},
}
_INI_REQUIRED = ("dataset.path", "embedding.kind", "backend.backend",
                 "protocol.split_seed", "protocol.cv_seed")
_GRID_AXES = ("grid.kernels", "grid.c_values", "grid.gamma_values")


def config_from_ini(path) -> tuple[str, ExperimentConfig]:
    """Parse the flat sectioned config format used by the report command.

    Seeds are mandatory wherever randomness is consumed: split_seed and
    cv_seed always; EmbeddingConfig and BackendConfig require the e2 and
    shots seeds and reject keys their kind does not read. Unknown
    sections and keys are rejected, so a misspelt key cannot fall back to
    its default unnoticed. The grid axes come all three or not at all
    (the full grid).
    """
    cp = configparser.ConfigParser()
    if not Path(path).exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        cp.read(path, encoding="utf-8-sig")  # with or without a BOM
        for sec in ("dataset", "embedding", "backend", "protocol"):
            if sec not in cp:
                raise ConfigError(f"config is missing the [{sec}] section")
        for sec in cp.sections():
            if sec not in _INI_KEYS:
                raise ConfigError(f"unknown config section [{sec}]")
            unknown = [f"{sec}.{key}" for key in cp[sec]
                       if key not in _INI_KEYS[sec]]
            if unknown:
                raise ConfigError(
                    f"unknown config key {', '.join(unknown)}")
        given = {f"{sec}.{key}" for sec in cp.sections() for key in cp[sec]}
        axes = _GRID_AXES if given & set(_GRID_AXES) else ()
        for where in _INI_REQUIRED + axes:
            if where not in given:
                raise ConfigError(f"config is missing {where}")
        values = {sec: {key: _INI_KEYS[sec][key](text)
                        for key, text in cp[sec].items()}
                  for sec in cp.sections()}
        backend = values["backend"]
        return values["dataset"]["path"], ExperimentConfig(
            embedding=EmbeddingConfig(**values["embedding"]),
            backend=BackendConfig.parse(backend.pop("backend"), **backend),
            grid=GridConfig(**values.get("grid", {})),
            **values["protocol"], **values.get("cache", {}))
    except (ValueError, configparser.Error) as exc:
        # INI syntax (duplicate keys, bad % interpolation), or int() or
        # float() on a malformed value
        raise ConfigError(f"{path}: {exc}") from None
