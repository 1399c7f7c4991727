"""Split protocol, Fisher test, screening, and experiment-report tests."""

import configparser
import dataclasses
import hashlib
import json
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from motifqk.data import (ANNOTATION_AXES, EMPTY, MOTIF_CATALOG, TERMINAL,
                          Construct, EncodedDataset, EncodingLayout,
                          annotate_category, decode_one_hot, encode_dataset)
from motifqk import evaluation
from motifqk.errors import ConfigError, DataError
from motifqk.evaluation import (
    METHODS,
    ArmRecord,
    ExperimentConfig,
    SplitPlan,
    _config_hash,
    config_from_ini,
    fisher_exact,
    make_splits,
    per_motif_analysis,
    report_cells,
    run_experiment,
    screen_advantage,
)
from motifqk.features import BackendConfig, EmbeddingConfig, project_features
from motifqk.kernels import KernelSpec
from motifqk.svm import GridConfig, weighted_f1
from motifqk.synthetic import make_separable_dataset, separable_layout

TINY_GRID = GridConfig(kernels=("linear",), c_values=(1.0,),
                       gamma_values=("scale",))


def _synthetic_config(**overrides):
    base = dict(
        embedding=EmbeddingConfig(kind="e1", reps=6, scale=math.pi / 2),
        backend=BackendConfig(kind="exact"),
        n_splits=3,
        cv_folds=2,
        grid=TINY_GRID,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_make_splits_sizes():
    plan = make_splits(246, n_splits=10, train_frac=0.7, seed=0)
    assert len(plan.splits) == 10
    for train, test in plan.splits:
        assert len(train) == 172
        assert len(test) == 74
        assert sorted(train + test) == list(range(246))
        assert list(train) == sorted(train)
        assert list(test) == sorted(test)


def test_make_splits_deterministic():
    a = make_splits(50, n_splits=4, seed=7)
    b = make_splits(50, n_splits=4, seed=7)
    c = make_splits(50, n_splits=4, seed=8)
    assert a.splits == b.splits
    assert a.splits != c.splits


def test_make_splits_distinct_across_splits():
    plan = make_splits(40, n_splits=5, seed=1)
    assert len({split[0] for split in plan.splits}) == 5


def test_make_splits_validation():
    with pytest.raises(ConfigError):
        make_splits(10, train_frac=0.0)
    with pytest.raises(ConfigError):
        make_splits(10, train_frac=1.0)
    with pytest.raises(ConfigError):
        make_splits(10, n_splits=0)
    with pytest.raises(ConfigError):
        make_splits(1)
    with pytest.raises(ConfigError):
        make_splits(3, train_frac=0.1)  # floor leaves an empty train side
    for seed in (-3, 0.5):
        with pytest.raises(ConfigError, match="split seed must be an int"):
            make_splits(10, seed=seed)


def test_fisher_known_values():
    assert fisher_exact([[5, 0], [0, 5]]) == pytest.approx(
        2.0 / 252.0, abs=1e-15)
    assert fisher_exact([[1, 9], [11, 3]]) == pytest.approx(
        0.0027594561852200836, abs=1e-15)
    assert fisher_exact([[0, 0], [0, 0]]) == 1.0
    assert fisher_exact([[3, 1], [1, 3]]) == pytest.approx(0.4857142857142857,
                                                           abs=1e-12)


def test_fisher_symmetries():
    t = [[2, 7], [5, 1]]
    p = fisher_exact(t)
    assert fisher_exact([[7, 2], [1, 5]]) == pytest.approx(p, abs=1e-12)
    assert fisher_exact([[2, 5], [7, 1]]) == pytest.approx(p, abs=1e-12)
    assert fisher_exact([[5, 1], [2, 7]]) == pytest.approx(p, abs=1e-12)


def test_fisher_against_scipy_spot_checks(rng):
    for _ in range(25):
        table = rng.integers(0, 12, (2, 2))
        mine = fisher_exact(table.tolist())
        want = scipy.stats.fisher_exact(table, alternative="two-sided")[1]
        assert mine == pytest.approx(want, abs=1e-9)


def test_fisher_validation():
    with pytest.raises(DataError):
        fisher_exact([[1, -1], [0, 2]])
    with pytest.raises(DataError):
        fisher_exact([[1.5, 1], [0, 2]])
    with pytest.raises(DataError):
        fisher_exact([[1, 2, 3], [4, 5, 6]])


def test_screen_advantage_identical_inputs(rng):
    bits = rng.integers(0, 2, (12, 6)).astype(np.uint8)
    y = np.where(rng.integers(0, 2, 12) == 0, -1, 1)
    out = screen_advantage(bits, y, bits.astype(float),
                           KernelSpec(kind="rbf", gamma=0.5), lam=1.0)
    assert out["n"] == 12
    assert out["g_cq"] <= 1.0 + 1e-9
    assert not out["geometry_separated"]
    assert out["verdict"].startswith("no separation")
    assert out["s_classical"] == pytest.approx(out["s_pqk"], abs=1e-9)


def test_screen_advantage_shape_validation(rng):
    bits = rng.integers(0, 2, (5, 4))
    y = np.ones(5)
    with pytest.raises(DataError):
        screen_advantage(bits, y, np.zeros((4, 3)), KernelSpec(kind="linear"))
    with pytest.raises(DataError):
        screen_advantage(bits, np.ones(4), bits, KernelSpec(kind="linear"))
    # 0/1 labels would give s_K for another problem
    with pytest.raises(DataError, match="labels must be -1/\\+1"):
        screen_advantage(bits, np.array([0, 1, 1, 0, 1]), bits,
                         KernelSpec(kind="linear"))


def test_run_experiment_synthetic_perfect():
    report = run_experiment(make_separable_dataset(), _synthetic_config())
    assert report.median_f1["pqk"] == 1.0
    assert report.median_f1["original"] == 1.0
    assert report.split_sizes == [[8, 4]] * 3


def test_run_experiment_identity_features_degrade():
    # E1 reps 8 at pi/2 is the identity on every row of this set (the
    # README's collapse): all rows get the one feature row of |0...0>
    config = _synthetic_config(
        embedding=EmbeddingConfig(kind="e1", reps=8, scale=math.pi / 2))
    dataset = make_separable_dataset()
    F = project_features(dataset.bits, config.embedding, config.backend)
    assert np.abs(F - np.tile([0.0, 0.0, 1.0], 15)).max() <= 1e-12
    report = run_experiment(dataset, config)
    # constant features force a constant predictor on every split
    assert report.median_f1["pqk"] < 0.75
    assert report.median_f1["original"] == 1.0


def test_run_experiment_report_is_deterministic():
    a = run_experiment(make_separable_dataset(), _synthetic_config())
    b = run_experiment(make_separable_dataset(), _synthetic_config())
    assert a.dumps() == b.dumps()


def test_run_experiment_counts_invariant():
    report = run_experiment(make_separable_dataset(), _synthetic_config())
    test_total = sum(sizes[1] for sizes in report.split_sizes)
    for axis, by_pos in report.counts.items():
        for pos, by_value in by_pos.items():
            for method in ("original", "pqk"):
                total = sum(v[method][0] + v[method][1]
                            for v in by_value.values())
                assert total == test_total, (axis, pos, method)


def test_run_experiment_fisher_matches_counts():
    report = run_experiment(make_separable_dataset(), _synthetic_config())
    for axis, by_pos in report.fisher.items():
        for pos, by_value in by_pos.items():
            assert set(by_value) == set(report.counts[axis][pos])
            for value, entry in by_value.items():
                c = report.counts[axis][pos][value]
                table = [[c["pqk"][0], c["pqk"][1]],
                         [c["original"][0], c["original"][1]]]
                assert entry["p_value"] == pytest.approx(
                    fisher_exact(table), abs=1e-12)
                assert entry["better"] in ("pqk", "original", "tie")


def test_run_experiment_correlation_order():
    # Reordering groups correlated bits next to each other, which turns on
    # the entangling pairs; the classical arm is permutation invariant, the
    # projected arm is allowed to move. The run itself must stay valid.
    config = _synthetic_config(feature_order="correlation")
    report = run_experiment(make_separable_dataset(), config)
    assert report.median_f1["original"] == 1.0
    assert 0.0 <= report.median_f1["pqk"] <= 1.0
    assert report.config["feature_order"] == "correlation"


def test_run_experiment_chosen_structure():
    report = run_experiment(make_separable_dataset(), _synthetic_config())
    for method in ("original", "pqk"):
        assert len(report.chosen[method]) == 3
        for entry in report.chosen[method]:
            assert entry["kernel"] == "linear"
            assert entry["C"] == 1.0
            assert 0.0 <= entry["mean_cv_f1"] <= 1.0
            assert entry["nonconverged_fits"] == 0


def test_report_counts_nonconverged_fits():
    # every motif pair twice with random labels: on these one-hot rows
    # some linear C = 2000 fits stop at max_passes
    rng = np.random.default_rng(0)
    motif_sets = [(a, b) for a in ("M1", "M2", "M3")
                  for b in ("M1", "M2", "M3")]
    dataset = encode_dataset(
        [Construct(ms, float(rng.choice([0.3, 0.9])))
         for ms in motif_sets for _ in range(2)], separable_layout())
    grid = GridConfig(kernels=("linear",), c_values=(2000.0,),
                      gamma_values=("scale",))
    config = _synthetic_config(n_splits=2, grid=grid)
    with pytest.warns(RuntimeWarning, match="SMO hit max_passes"):
        report = run_experiment(dataset, config)
        again = run_experiment(dataset, config)
    for method in ("original", "pqk"):
        counts = [e["nonconverged_fits"] for e in report.chosen[method]]
        # 2 CV folds + 1 refit per split
        assert all(0 <= c <= 3 for c in counts)
        assert sum(counts) > 0
    assert report.dumps() == again.dumps()


def test_per_motif_analysis_rows():
    report = run_experiment(make_separable_dataset(), _synthetic_config())
    rows = per_motif_analysis(report, alpha=0.05)
    assert all(set(r) == {"axis", "position", "value", "p_value", "better",
                          "significant"} for r in rows)
    for row in rows:
        assert row["significant"] == (row["p_value"] < 0.05)
    keys = [(r["axis"], r["position"], r["value"]) for r in rows]
    assert keys == sorted(keys)
    with pytest.raises(ConfigError):
        per_motif_analysis(report, alpha=0.0)


def _write_ini(path, **overrides):
    cp = configparser.ConfigParser()
    cp["dataset"] = {"path": str(overrides.get("constructs", "raw.csv"))}
    cp["embedding"] = {"kind": "e1", "reps": "6", "scale": "pi2"}
    cp["backend"] = {"backend": "exact"}
    cp["protocol"] = {"n_splits": "3", "train_frac": "0.7", "split_seed": "0",
                      "cv_folds": "2", "cv_seed": "0"}
    for section, vals in overrides.get("sections", {}).items():
        cp[section] = vals
    for section, key in overrides.get("drop", []):
        cp[section].pop(key, None)
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def test_config_from_ini_round_trip(tmp_path):
    path = _write_ini(tmp_path / "exp.ini")
    constructs, config = config_from_ini(path)
    assert constructs == "raw.csv"
    assert config.embedding.kind == "e1"
    assert config.embedding.reps == 6
    assert config.embedding.scale == pytest.approx(math.pi / 2)
    assert config.backend.kind == "exact"
    assert config.n_splits == 3
    assert config.cv_folds == 2
    assert len(config.grid.c_values) == 87


def test_config_from_ini_full_grid_reads_degree_and_coef0(tmp_path):
    # no grid axes: the full grid, with degree and coef0 still read
    path = _write_ini(tmp_path / "exp.ini", sections={
        "grid": {"degree": "5", "coef0": "2.5"}})
    _, config = config_from_ini(path)
    assert (config.grid.degree, config.grid.coef0) == (5, 2.5)
    assert len(config.grid.c_values) == 87


def test_config_from_ini_custom_grid(tmp_path):
    path = _write_ini(tmp_path / "exp.ini", sections={
        "grid": {"kernels": "linear,rbf", "c_values": "0.5,1.0",
                 "gamma_values": "scale,0.25"}})
    _, config = config_from_ini(path)
    assert config.grid.kernels == ("linear", "rbf")
    assert config.grid.c_values == (0.5, 1.0)
    assert config.grid.gamma_values == ("scale", 0.25)


def test_config_from_ini_requires_seeds(tmp_path):
    path = _write_ini(tmp_path / "a.ini", drop=[("protocol", "split_seed")])
    with pytest.raises(ConfigError):
        config_from_ini(path)
    path = _write_ini(tmp_path / "b.ini", drop=[("protocol", "cv_seed")])
    with pytest.raises(ConfigError):
        config_from_ini(path)


def test_config_from_ini_requires_embedding_seed_for_e2(tmp_path):
    path = _write_ini(tmp_path / "exp.ini", sections={
        "embedding": {"kind": "e2", "steps": "4", "scale": "pi"}})
    with pytest.raises(ConfigError):
        config_from_ini(path)
    path = _write_ini(tmp_path / "ok.ini", sections={
        "embedding": {"kind": "e2", "steps": "4", "scale": "pi", "seed": "3"}})
    _, config = config_from_ini(path)
    assert config.embedding.seed == 3


def test_config_from_ini_requires_backend_seed_for_shots(tmp_path):
    path = _write_ini(tmp_path / "exp.ini", sections={
        "backend": {"backend": "shots:100"}})
    with pytest.raises(ConfigError):
        config_from_ini(path)
    path = _write_ini(tmp_path / "ok.ini", sections={
        "backend": {"backend": "shots:100", "seed": "5"}})
    _, config = config_from_ini(path)
    assert (config.backend.kind, config.backend.shots, config.backend.seed) \
        == ("shots", 100, 5)


def test_config_from_ini_missing_section(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[dataset]\nconstructs = raw.csv\n")
    with pytest.raises(ConfigError):
        config_from_ini(path)


def test_config_from_ini_bad_scale(tmp_path):
    # malformed numbers, out-of-range grid axes, INI syntax errors, a
    # [screening] section or a [grid] preset (report reads neither), a
    # partial axis list, and unknown keys or sections are config errors,
    # not a traceback or a silently ignored setting
    bad_inputs = [
        {"embedding": {"kind": "e1", "reps": "6", "scale": "tau"}},
        {"embedding": {"kind": "e1", "reps": "six", "scale": "pi2"}},
        {"grid": {"kernels": "rbf", "c_values": "1.0",
                  "gamma_values": "fast"}},
        {"grid": {"kernels": "rbf", "c_values": "1.0",
                  "gamma_values": "-1"}},
        {"grid": {"kernels": "laplace", "c_values": "1.0",
                  "gamma_values": "scale"}},
        {"grid": {"preset": "quick"}},
        {"grid": {"preset": "quick", "kernels": "rbf", "c_values": "1.0",
                  "gamma_values": "scale"}},
        {"grid": {"preset": "full", "kernels": "rbf", "c_values": "1.0",
                  "gamma_values": "scale"}},
        {"grid": {"c_values": "1.0"}},
        {"protocol": {"n_splits": "ten", "split_seed": "0", "cv_seed": "0"}},
        {"screening": {"lam": "1.0"}},
        {"embedding": {"kind": "e1", "reps": "6", "scale": "pi2",
                       "entanglement": "linear"}},
    ]
    typos = [
        ({"protocol": {"cv_fold": "3", "split_seed": "0", "cv_seed": "0"}},
         "protocol.cv_fold"),
        ({"protocol": {"feature_ordr": "correlation", "split_seed": "0",
                       "cv_seed": "0"}}, "protocol.feature_ordr"),
        ({"cache": {"directory": "cache"}}, "cache.directory"),
        # feature rows are not cached between runs
        ({"cache": {"dir": "cache"}}, "unknown config key cache.dir"),
        ({"caches": {"dir": "cache"}}, r"\[caches\]"),
        ({"grid": {"preset": "full"}}, "unknown config key grid.preset"),
        ({"screening": {"lam": "1.0"}},
         r"unknown config section \[screening\]"),
        ({"grid": {"kernels": "rbf", "c_values": "1.0"}},
         "config is missing grid.gamma_values"),
        # keys the chosen kind does not read
        ({"embedding": {"kind": "e1", "reps": "8", "steps": "4"}},
         "embedding kind e1 does not read steps"),
        ({"embedding": {"kind": "e1", "reps": "8", "seed": "7"}},
         "embedding kind e1 does not read seed"),
        ({"embedding": {"kind": "e2", "steps": "4", "seed": "0",
                        "reps": "8"}}, "embedding kind e2 does not read reps"),
        ({"backend": {"backend": "obp:0.05", "seed": "3"}},
         "seed apply to the shots backend, not obp"),
        ({"backend": {"backend": "exact", "seed": "3"}},
         "seed apply to the shots backend, not exact"),
        ({"cache": {"n_jobs": "0"}}, "n_jobs"),
    ]
    for i, (sections, where) in enumerate(typos):
        path = _write_ini(tmp_path / f"typo{i}.ini", sections=sections)
        with pytest.raises(ConfigError, match=where):
            config_from_ini(path)
    paths = [_write_ini(tmp_path / f"exp{i}.ini", sections=sections)
             for i, sections in enumerate(bad_inputs)]
    good = _write_ini(tmp_path / "good.ini").read_text()
    for name, text in (
            ("duplicate.ini", good.replace("path = raw.csv",
                                           "path = raw.csv\npath = b.csv")),
            ("percent.ini", good.replace("path = raw.csv",
                                         "path = a%.csv"))):
        paths.append(tmp_path / name)
        paths[-1].write_text(text)
    for path in paths:
        with pytest.raises(ConfigError):
            config_from_ini(path)


def test_config_from_ini_restates_no_default(tmp_path):
    # only the required keys: everything else is the config types' default
    path = tmp_path / "exp.ini"
    path.write_text("[dataset]\npath = raw.csv\n"
                    "[embedding]\nkind = e1\nreps = 8\n"
                    "[backend]\nbackend = exact\n"
                    "[protocol]\nsplit_seed = 3\ncv_seed = 4\n")
    _, config = config_from_ini(path)
    assert config == ExperimentConfig(EmbeddingConfig("e1", reps=8),
                                      BackendConfig("exact"),
                                      split_seed=3, cv_seed=4)


def test_readme_ini_block_names_every_key():
    # the block is the INI reference: every key the reader takes appears
    # in its section, as a key or in a comment
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### INI format", 1)[1]
    ini = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    blocks = dict(re.findall(r"^\[(\w+)\]\n(.*?)(?=^\[|\Z)", ini,
                             re.S | re.M))
    missing = [f"{sec}.{key}" for sec, keys in evaluation._INI_KEYS.items()
               for key in keys
               if not re.search(rf"\b{key}\b", blocks.get(sec, ""))]
    assert not missing, f"README INI block does not name {missing}"


def test_readme_production_ini_parses(tmp_path):
    # the README's INI block is the documented production run: E1 reps 8 at
    # pi/2, obp:0.05, 10 splits of 70/30, 10 CV folds, the full grid
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### INI format", 1)[1]
    ini = tmp_path / "experiment.ini"
    ini.write_text(re.search(r"```ini\n(.*?)```", section, re.S).group(1))
    dataset_path, config = config_from_ini(ini)
    assert dataset_path == "data/constructs.csv"
    assert config.embedding == EmbeddingConfig("e1", reps=8,
                                               scale=math.pi / 2)
    assert config.backend == BackendConfig.parse("obp:0.05")
    assert (config.n_splits, config.train_frac, config.cv_folds) \
        == (10, 0.7, 10)
    assert (config.split_seed, config.cv_seed) == (0, 0)
    assert config.feature_order == "natural"
    assert config.grid == GridConfig()
    assert _config_hash(config) == "6fd7a75877c211bc"


def test_experiment_config_rejects_nonpositive_n_jobs():
    for n_jobs in (0, -4, 2.5, True, np.int64(2)):
        with pytest.raises(ConfigError,
                           match=re.escape(f"n_jobs must be an int >= 1, "
                                           f"got {n_jobs!r}")):
            _synthetic_config(n_jobs=n_jobs)
    assert _synthetic_config(n_jobs=2).n_jobs == 2


@pytest.mark.parametrize("field, value, match", [
    ("cv_folds", 1, "cv_folds"), ("smo_tol", -1.0, "tol"),
    ("smo_tol", math.nan, "tol"), ("smo_max_passes", -5, "max_passes"),
    ("split_seed", -3, "split_seed must be an int >= 0"),
    ("cv_seed", -2, "cv_seed must be an int >= 0"),
    # a count that is no int is refused, not rounded down or run as 1
    ("cv_folds", 2.5, "cv_folds must be an int >= 2, got 2.5"),
    ("n_splits", 2.5, "n_splits must be an int >= 1, got 2.5"),
    ("n_splits", True, "n_splits must be an int >= 1, got True"),
    ("smo_max_passes", True, "max_passes must be an int >= 0, got True"),
    # a seed or count that is a numpy integer has no JSON spelling in the
    # config hash, and a bool is no seed
    pytest.param("split_seed", np.int64(0), re.escape(
        f"split_seed must be an int >= 0, got {np.int64(0)!r}"),
        id="split_seed-np.int64"),
    ("cv_seed", True, "cv_seed must be an int >= 0, got True"),
    pytest.param("cv_folds", np.int64(3), re.escape(
        f"cv_folds must be an int >= 2, got {np.int64(3)!r}"),
        id="cv_folds-np.int64"),
    ("n_splits", 0, "n_splits must be an int >= 1, got 0"),
    ("train_frac", 1.0, "train_frac"), ("train_frac", 0.0, "train_frac"),
    ("train_frac", math.nan, "train_frac")])
def test_experiment_config_rejects_a_bad_protocol(field, value, match):
    with pytest.raises(ConfigError, match=match):
        _synthetic_config(**{field: value})


def test_experiment_config_hash_changes_with_config():
    a = run_experiment(make_separable_dataset(), _synthetic_config())
    b = run_experiment(make_separable_dataset(),
                       _synthetic_config(n_splits=2))
    assert a.config_hash != b.config_hash
    # grids of one size that search other values are other configs
    for other in (dataclasses.replace(TINY_GRID, c_values=(2.0,)),
                  dataclasses.replace(TINY_GRID, gamma_values=(0.5,))):
        assert _config_hash(_synthetic_config(grid=other)) != a.config_hash


def test_deployment_fields_stay_out_of_the_config_hash():
    # how many processes compute the rows cannot change a result; every
    # other field is part of the config
    base = _synthetic_config()
    moved = _synthetic_config(n_jobs=2)
    assert moved.provenance() == base.provenance()
    assert _config_hash(moved) == _config_hash(base)
    assert set(base.provenance()) == (
        {f.name for f in dataclasses.fields(base)} - {"n_jobs"})


def test_real_fields_of_every_spelling_hash_alike():
    # real values are stored as floats: int, float and numpy spellings of
    # one value are one config, and no numpy scalar reaches the hash's JSON
    def config(num, frac):
        return _synthetic_config(
            embedding=EmbeddingConfig("e1", reps=6, scale=frac(math.pi / 2)),
            backend=BackendConfig("obp", threshold=num(1)),
            train_frac=frac(0.5), smo_tol=frac(0.25),
            grid=GridConfig(kernels=("poly",), c_values=(num(2),),
                            gamma_values=("scale", num(3)), coef0=num(1)))

    want = _config_hash(config(float, float))
    for num in (int, np.int64, np.float32, np.float64):
        for frac in (float, np.float64):
            assert _config_hash(config(num, frac)) == want
    assert _config_hash(_synthetic_config(grid=dataclasses.replace(
        TINY_GRID, c_values=(1,)))) == _config_hash(_synthetic_config())
    spec = KernelSpec("poly", np.int64(2), coef0=np.float32(0.5))
    assert (type(spec.gamma), type(spec.coef0)) == (float, float)


def test_demo_report_bytes_are_pinned():
    # the demo config on the 15-bit separable layout (the benchmark's report
    # workload; examples/demo/demo.ini runs the same keys at 60 bits); a
    # change that moves these bytes updates the pin and says why
    config = _synthetic_config(
        n_splits=10, grid=GridConfig(kernels=("linear",),
                                     c_values=(1.0, 14.75),
                                     gamma_values=("scale",)))
    text = run_experiment(make_separable_dataset(), config).dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6a92208da632d34fd6b462ec9e20ff158033cc9113f03e6b6dfe85047641ddef")


def test_run_experiment_projects_once_per_column_order(monkeypatch):
    projected = []

    def spy(bits, *args, **kwargs):
        projected.append(bits.tobytes())
        return project_features(bits, *args, **kwargs)

    monkeypatch.setattr(evaluation, "project_features", spy)
    dataset = make_separable_dataset()
    run_experiment(dataset, _synthetic_config())
    assert projected == [dataset.bits.tobytes()]
    # here the three training sets give three correlation orders
    projected.clear()
    run_experiment(dataset, _synthetic_config(feature_order="correlation"))
    assert len(set(projected)) == len(projected) == 3
    # an order that every split shares is projected once
    projected.clear()
    monkeypatch.setattr(evaluation, "correlation_order",
                        lambda bits: list(range(bits.shape[1]))[::-1])
    run_experiment(dataset, _synthetic_config(feature_order="correlation"))
    assert projected == [dataset.bits[:, ::-1].tobytes()]


def test_report_is_one_reduction_of_the_arm_records(monkeypatch):
    records = []
    run_arm = evaluation._run_arm

    def spy(*args):
        records.append(run_arm(*args))
        return records[-1]

    monkeypatch.setattr(evaluation, "_run_arm", spy)
    # two flipped labels, so both arms get some test rows wrong
    separable = make_separable_dataset()
    y = separable.y.copy()
    y[[0, 5]] *= -1
    dataset = EncodedDataset(separable.bits, y, separable.layout)
    config = _synthetic_config()
    report = run_experiment(dataset, config)
    plan = make_splits(len(dataset), config.n_splits, config.train_frac,
                       config.split_seed)
    assert [(r.split, r.method) for r in records] == [
        (k, m) for k in range(config.n_splits) for m in METHODS]
    for r in records:
        assert r.test_idx == plan.splits[r.split][1]
        assert r.preds.shape == (len(r.test_idx),)
    assert report.f1 == {
        m: [weighted_f1(y[list(r.test_idx)], r.preds)
            for r in records if r.method == m] for m in METHODS}
    # every (axis, position, value) of a tested row, per method: one right
    # or wrong mark per record that tested the row
    tallies: dict = {}
    for r in records:
        for i, pred in zip(r.test_idx, r.preds):
            cats = decode_one_hot(dataset.bits[i].tolist(), dataset.layout)
            for pos, category in enumerate(cats):
                for axis in ANNOTATION_AXES:
                    cell = (axis, pos, annotate_category(category, axis))
                    marks = tallies.setdefault(
                        cell, {m: [0, 0] for m in METHODS})
                    marks[r.method][0 if pred == y[i] else 1] += 1
    assert {(axis, pos, value): entry for axis, pos, value, entry
            in report_cells(report.counts)} == tallies
    assert any(marks[m][1] for marks in tallies.values() for m in METHODS)


def _reference_counts(records, dataset):
    """The counts table as the report tallied it record by record,
    annotating each tested row again for every record that tests it; kept
    as the oracle of the per-row tally."""
    y = dataset.y
    categories = [decode_one_hot(row, dataset.layout)
                  for row in dataset.bits.tolist()]
    counts: dict = {}
    for r in records:
        for i, ok in zip(r.test_idx, r.preds == y[list(r.test_idx)]):
            for pos, category in enumerate(categories[i]):
                for axis in ANNOTATION_AXES:
                    value = annotate_category(category, axis)
                    cell = counts.setdefault(axis, {}) \
                                 .setdefault(str(pos), {}) \
                                 .setdefault(value,
                                             {m: [0, 0] for m in METHODS})
                    cell[r.method][0 if ok else 1] += 1
    return counts


@st.composite
def _records_on_the_default_layout(draw):
    """A screen on the default 60-bit layout, a split plan over it and one
    record per (split, arm) with drawn predictions."""
    n = draw(st.integers(2, 12))
    motifs = st.lists(st.sampled_from(sorted(MOTIF_CATALOG)), min_size=1,
                      max_size=3)
    dataset = encode_dataset(
        [Construct(tuple(draw(motifs)), draw(st.sampled_from((0.1, 0.9))))
         for _ in range(n)])
    splits, records = [], []
    for k in range(draw(st.integers(1, 4))):
        te = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
        splits.append((tuple(i for i in range(n) if i not in te), te))
        for method in METHODS:
            preds = draw(st.lists(st.sampled_from((-1, 1)), min_size=len(te),
                                  max_size=len(te)))
            records.append(ArmRecord(k, method, te,
                                     np.array(preds, dtype=np.int64), {}))
    return dataset, SplitPlan(tuple(splits)), records


@given(_records_on_the_default_layout())
@settings(deadline=None)
def test_counts_match_the_per_record_tally(drawn):
    dataset, plan, records = drawn
    report = evaluation._report_from_records(records, plan, dataset,
                                             _synthetic_config())
    want = _reference_counts(records, dataset)
    assert report.counts == want
    # cells are made in the order the per-record walk makes them
    assert json.dumps(report.counts) == json.dumps(want)


def test_run_experiment_logs_one_line_per_record(caplog):
    with caplog.at_level(logging.INFO, logger="motifqk.evaluation"):
        run_experiment(make_separable_dataset(),
                       _synthetic_config(n_splits=2))
    lines = [r.getMessage() for r in caplog.records
             if r.name == "motifqk.evaluation"]
    assert len(lines) == 4
    for line, (k, method) in zip(lines, [(1, "original"), (1, "pqk"),
                                         (2, "original"), (2, "pqk")]):
        assert re.fullmatch(
            rf"split {k}/2 {method}: linear C=1 gamma=scale, "
            r"mean CV F1 \d\.\d{4}, \d+\.\d\d s", line), line


def test_run_experiment_rejects_label_collapse():
    layout = EncodingLayout(categories=("M1", "M2", TERMINAL, EMPTY),
                            n_positions=2)
    constructs = [Construct(motifs=("M1",), cytotoxicity=0.1),
                  Construct(motifs=("M2",), cytotoxicity=0.2),
                  Construct(motifs=("M1",), cytotoxicity=0.3),
                  Construct(motifs=("M2",), cytotoxicity=0.15)]
    dataset = encode_dataset(constructs, layout)
    with pytest.raises(DataError):
        run_experiment(dataset, _synthetic_config())
