"""End-to-end CLI tests driving main() in-process."""

import configparser
import dataclasses
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from motifqk import features
from motifqk.cli import build_parser, main
from motifqk.data import load_encoded_csv
from motifqk.features import load_feature_csv
from motifqk.kernels import KernelSpec
from motifqk.svm import SvmModel, predict, smo_train


@pytest.fixture
def encoded_csv(tmp_path, raw_csv):
    out = tmp_path / "encoded.csv"
    assert main(["encode", "--input", str(raw_csv), "--output", str(out)]) == 0
    return out


@pytest.fixture
def feature_csv(tmp_path, encoded_csv):
    out = tmp_path / "features.csv"
    rc = main(["embed", "--input", str(encoded_csv), "--output", str(out),
               "--embedding", "e1", "--reps", "6", "--scale", "pi2",
               "--backend", "obp:0.05", "--seed", "0"])
    assert rc == 0
    return out


def test_encode_output(encoded_csv):
    bits, y = load_encoded_csv(encoded_csv)
    assert bits.shape == (10, 60)
    assert set(np.unique(y)) == {-1, 1}


def test_encode_missing_input(tmp_path):
    rc = main(["encode", "--input", str(tmp_path / "nope.csv"),
               "--output", str(tmp_path / "out.csv")])
    assert rc == 3


def test_encode_malformed_input(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("pos1,pos2,pos3,cytotoxicity\nM1,,M2,0.5\n")
    rc = main(["encode", "--input", str(bad),
               "--output", str(tmp_path / "out.csv")])
    assert rc == 3


def test_encode_refuses_an_empty_screen(tmp_path, capsys):
    # every reader of an encoded screen refuses one without rows, so the
    # encoder refuses it too rather than write a header alone
    empty = tmp_path / "empty.csv"
    empty.write_text("pos1,pos2,pos3,cytotoxicity\n")
    out = tmp_path / "out.csv"
    assert main(["encode", "--input", str(empty), "--output", str(out)]) == 3
    assert f"{empty}: no data rows" in capsys.readouterr().err
    assert not out.exists()


def test_embed_output_width(feature_csv):
    feats, labels = load_feature_csv(feature_csv)
    assert feats.shape == (10, 180)
    assert labels is not None
    radii = (feats.reshape(10, -1, 3) ** 2).sum(axis=2)
    assert (radii <= 1.0 + 1e-9).all()


def test_embed_bad_reps(tmp_path, encoded_csv):
    rc = main(["embed", "--input", str(encoded_csv),
               "--output", str(tmp_path / "f.csv"),
               "--embedding", "e1", "--reps", "5", "--scale", "pi2",
               "--backend", "obp:0.05", "--seed", "0"])
    assert rc == 2


@pytest.mark.parametrize("flags", [
    ["--embedding", "e1", "--reps", "6", "--steps", "4"],
    ["--embedding", "e2", "--steps", "4", "--reps", "6"],
    ["--embedding", "e1", "--reps", "6", "--jobs", "0"],
])
def test_embed_rejects_unread_flag_and_bad_jobs(tmp_path, encoded_csv, flags,
                                                monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(features, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "f.csv"
    rc = main(["embed", "--input", str(encoded_csv), "--output", str(out),
               "--scale", "pi2", "--backend", "obp:0.05", "--seed", "0"]
              + flags)
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--embedding", "e2", "--steps", "4", "--backend", "shots:100",
     "--seed", "5"],
    ["--embedding", "e1", "--reps", "6", "--backend", "obp:0.05",
     "--seed", "0"],
])
def test_embed_takes_the_shared_seed_for_any_kind(tmp_path, encoded_csv,
                                                  flags):
    # --seed is required on every line; e1 and obp read none of it
    out = tmp_path / "f.csv"
    rc = main(["embed", "--input", str(encoded_csv), "--output", str(out),
               "--scale", "pi2"] + flags)
    assert rc == 0
    assert load_feature_csv(out)[0].shape[0] == 10


def test_embed_exact_backend_over_cap(tmp_path):
    # all 60 bits set: every chain pair entangles, one 60-qubit cluster
    dense = tmp_path / "dense.csv"
    dense.write_text(",".join([f"b{i}" for i in range(60)] + ["label"])
                     + "\n" + ",".join(["1"] * 60 + ["1"]) + "\n")
    rc = main(["embed", "--input", str(dense),
               "--output", str(tmp_path / "f.csv"),
               "--embedding", "e1", "--reps", "6", "--scale", "pi2",
               "--backend", "exact", "--seed", "0"])
    assert rc == 4


def test_embed_exact_backend_one_hot_rows(tmp_path, encoded_csv):
    # one-hot rows split into small clusters, so 60 bits are served exactly
    out = tmp_path / "f.csv"
    rc = main(["embed", "--input", str(encoded_csv), "--output", str(out),
               "--embedding", "e1", "--reps", "6", "--scale", "pi2",
               "--backend", "exact", "--seed", "0"])
    assert rc == 0
    feats, _ = load_feature_csv(out)
    assert feats.shape == (10, 180)


def test_embed_cache_flag_is_unknown(tmp_path, encoded_csv, capsys):
    # no command caches feature rows, so --cache is a usage error
    out = tmp_path / "f.csv"
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--input", str(encoded_csv), "--output", str(out),
              "--embedding", "e1", "--reps", "6", "--scale", "pi2",
              "--backend", "obp:0.05", "--seed", "0",
              "--cache", str(tmp_path / "cache")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache" in capsys.readouterr().err
    assert not out.exists()


def test_train_evaluate_round_trip(tmp_path, feature_csv):
    model = tmp_path / "model.json"
    rc = main(["train", "--features", str(feature_csv),
               "--output", str(model),
               "--kernel", "rbf", "--c", "2.0", "--gamma", "scale"])
    assert rc == 0
    assert json.loads(model.read_text())["format"] == "motifqk-svm-v1"

    metrics = tmp_path / "metrics.json"
    rc = main(["evaluate", "--model", str(model),
               "--features", str(feature_csv), "--output", str(metrics)])
    assert rc == 0
    data = json.loads(metrics.read_text())
    assert 0.0 <= data["weighted_f1"] <= 1.0
    assert data["n"] == 10
    assert 0.0 <= data["accuracy"] <= 1.0


def test_model_without_support_vectors_round_trips(tmp_path, feature_csv):
    # --max-passes 0 stops before the first pair update: every alpha is 0,
    # so the saved model holds "support_vectors": [] and predicts the sign
    # of its bias
    model = tmp_path / "model.json"
    assert main(["train", "--features", str(feature_csv),
                 "--output", str(model), "--kernel", "rbf", "--c", "1.0",
                 "--max-passes", "0"]) == 0
    assert json.loads(model.read_text())["support_vectors"] == []
    metrics = tmp_path / "metrics.json"
    assert main(["evaluate", "--model", str(model),
                 "--features", str(feature_csv),
                 "--output", str(metrics)]) == 0
    F, y = load_feature_csv(feature_csv)
    with pytest.warns(RuntimeWarning, match="max_passes"):
        fitted = smo_train(F, y, KernelSpec("rbf", "scale"), 1.0,
                           max_passes=0)
    assert np.array_equal(predict(SvmModel.load(model), F),
                          predict(fitted, F))
    expected = float((predict(fitted, F) == y).mean())
    assert json.loads(metrics.read_text())["accuracy"] == expected


def test_train_solver_error_exits_5(tmp_path, feature_csv, monkeypatch):
    from motifqk import svm
    from motifqk.errors import SolverError

    def broken(*args):
        raise SolverError("KKT condition violated")

    monkeypatch.setattr(svm, "_check_solution", broken)
    model = tmp_path / "model.json"
    rc = main(["train", "--features", str(feature_csv), "--output",
               str(model), "--kernel", "rbf", "--c", "2.0"])
    assert rc == 5
    assert not model.exists()


def test_train_grid_flag_runs_search(tmp_path, feature_csv, monkeypatch,
                                     capsys):
    import motifqk.cli as cli_mod
    from motifqk.svm import GridConfig, grid_search

    seen = {}

    def spy(X, y, grid, folds=10, seed=0, tol=1e-3, max_passes=200):
        seen["grid"] = grid
        small = GridConfig(kernels=("linear",), c_values=(1.0,),
                           gamma_values=("scale",))
        return grid_search(X, y, small, folds=2, seed=seed, tol=tol,
                           max_passes=max_passes)

    monkeypatch.setattr(cli_mod, "grid_search", spy)
    model = tmp_path / "model.json"
    rc = main(["train", "--features", str(feature_csv),
               "--output", str(model), "--grid", "--folds", "2"])
    assert rc == 0
    assert len(seen["grid"].c_values) == 87
    assert len(seen["grid"].gamma_values) == 77
    assert (seen["grid"].degree, seen["grid"].coef0) == (3, 0.0)
    # --degree and --coef0 reach the full grid's poly and sigmoid kernels
    rc = main(["train", "--features", str(feature_csv), "--output",
               str(model), "--grid", "--folds", "2", "--degree", "2",
               "--coef0", "1.5"])
    assert rc == 0
    assert seen["grid"] == GridConfig(degree=2, coef0=1.5)
    # the grid sweeps kernel, C and gamma itself; a flag it would not read
    # is refused before any search starts
    seen.clear()
    capsys.readouterr()
    for flag, value in (("--kernel", "linear"), ("--c", "1.0"),
                        ("--gamma", "1.0")):
        rc = main(["train", "--features", str(feature_csv), "--output",
                   str(tmp_path / "other.json"), "--grid", flag, value])
        assert rc == 2
        assert f"train --grid does not read {flag}" in capsys.readouterr().err
    assert seen == {}
    assert not (tmp_path / "other.json").exists()
    # without --grid the kernel and gamma fall back to rbf and scale
    assert main(["train", "--features", str(feature_csv), "--output",
                 str(model), "--c", "1.0"]) == 0
    assert SvmModel.load(model).spec == KernelSpec("rbf", "scale")


def test_train_refuses_a_flag_its_kernel_does_not_read(tmp_path, feature_csv,
                                                       monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("smo_train called with a refused flag")

    model = tmp_path / "model.json"
    argv = ["train", "--features", str(feature_csv), "--output", str(model),
            "--c", "1.0"]
    monkeypatch.setattr("motifqk.cli.smo_train", fail)
    for flags, named in (
            (["--degree", "7", "--coef0", "3"],
             "train --kernel rbf does not read --degree, --coef0"),
            (["--kernel", "linear", "--gamma", "5"],
             "train --kernel linear does not read --gamma"),
            (["--kernel", "sigmoid", "--degree", "2"],
             "train --kernel sigmoid does not read --degree"),
            # only the grid reads the CV flags
            (["--kernel", "poly", "--folds", "3"],
             "train without --grid does not read --folds"),
            (["--cv-seed", "1"],
             "train without --grid does not read --cv-seed")):
        assert main(argv + flags) == 2
        assert named in capsys.readouterr().err
    assert not model.exists()
    monkeypatch.undo()
    # a field the kind reads reaches the model
    assert main(argv + ["--kernel", "poly", "--degree", "2",
                        "--coef0", "1.5"]) == 0
    assert SvmModel.load(model).spec == KernelSpec("poly", "scale", 2, 1.5)


@pytest.mark.parametrize("damage", [
    lambda saved: "not json",
    lambda saved: json.dumps({"format": saved["format"]}),
    lambda saved: json.dumps({**saved, "C": "large"}),
    lambda saved: json.dumps({**saved, "dual_coef": saved["dual_coef"][1:]}),
    lambda saved: json.dumps({**saved, "support_vectors": [
        1.0 for _ in saved["dual_coef"]]}),
], ids=["not-json", "missing-key", "non-numeric-C", "short-dual-coef",
        "flat-support-vectors"])
def test_evaluate_malformed_model_exits_3(tmp_path, feature_csv, damage):
    model = tmp_path / "model.json"
    assert main(["train", "--features", str(feature_csv),
                 "--output", str(model), "--kernel", "linear",
                 "--c", "1.0"]) == 0
    model.write_text(damage(json.loads(model.read_text())))
    rc = main(["evaluate", "--model", str(model),
               "--features", str(feature_csv)])
    assert rc == 3


@pytest.mark.parametrize("damage", [
    lambda saved: {**saved, "bias": float("nan")},
    lambda saved: {**saved, "dual_coef": [float("inf")]
                   + saved["dual_coef"][1:]},
    lambda saved: {**saved, "support_idx": saved["support_idx"][1:]},
], ids=["nan-bias", "infinite-dual-coef", "short-support-idx"])
def test_evaluate_model_with_bad_numbers_exits_3(tmp_path, feature_csv,
                                                 damage, capsys):
    # json reads NaN and Infinity; such a model would predict one class
    # for every row instead of failing
    model = tmp_path / "model.json"
    assert main(["train", "--features", str(feature_csv),
                 "--output", str(model), "--kernel", "linear",
                 "--c", "1.0"]) == 0
    model.write_text(json.dumps(damage(json.loads(model.read_text()))))
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(model),
               "--features", str(feature_csv)])
    assert rc == 3
    assert str(model) in capsys.readouterr().err


def test_feature_labels_must_be_plus_minus_one(tmp_path, feature_csv,
                                               capsys):
    lines = feature_csv.read_text().splitlines()
    relabeled = tmp_path / "relabeled.csv"
    relabeled.write_text("".join(
        [lines[0] + "\n"] + [line.rsplit(",", 1)[0]
                             + (",0\n" if i % 2 else ",2\n")
                             for i, line in enumerate(lines[1:])]))
    model = tmp_path / "model.json"
    assert main(["train", "--features", str(feature_csv),
                 "--output", str(model), "--kernel", "linear",
                 "--c", "1.0"]) == 0
    capsys.readouterr()
    for argv in (["evaluate", "--model", str(model),
                  "--features", str(relabeled)],
                 ["train", "--features", str(relabeled),
                  "--output", str(tmp_path / "other.json"), "--c", "1.0"]):
        assert main(argv) == 3
        assert f"{relabeled}:2: label must be -1/+1" in capsys.readouterr().err
    assert not (tmp_path / "other.json").exists()


def test_non_utf8_input_exits_3(tmp_path, capsys):
    # one command per CSV reader: constructs, features, encoded bits
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe,pos2,pos3,cytotoxicity\n")
    out = tmp_path / "out"
    for argv in (["encode", "--input", str(bad), "--output", str(out)],
                 ["train", "--features", str(bad), "--output", str(out),
                  "--c", "1.0"],
                 ["embed", "--input", str(bad), "--output", str(out),
                  "--embedding", "e1", "--reps", "8", "--scale", "pi2",
                  "--backend", "obp:0.05", "--seed", "0"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(bad) in err
    assert not out.exists()


def test_evaluate_needs_labels(tmp_path, feature_csv, capsys):
    # the labeled file without its last column
    lines = feature_csv.read_text().splitlines()
    unlabeled = tmp_path / "unlabeled.csv"
    unlabeled.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                 for line in lines))
    model = tmp_path / "model.json"
    assert main(["train", "--features", str(feature_csv),
                 "--output", str(model), "--kernel", "linear",
                 "--c", "1.0"]) == 0
    capsys.readouterr()
    for argv in (["train", "--features", str(unlabeled),
                  "--output", str(tmp_path / "other.json"), "--c", "1.0"],
                 ["evaluate", "--model", str(model),
                  "--features", str(unlabeled)]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{unlabeled} has no label column" in err
    assert not (tmp_path / "other.json").exists()


def test_screen_writes_metrics(tmp_path, encoded_csv):
    out = tmp_path / "screen.json"
    rc = main(["screen", "--input", str(encoded_csv), "--output", str(out),
               "--kernel", "rbf", "--gamma", "scale", "--lam", "1.0",
               "--embedding", "e1", "--reps", "6", "--scale", "pi2",
               "--backend", "obp:0.05", "--seed", "0"])
    assert rc == 0
    data = json.loads(out.read_text())
    for key in ("g_cq", "s_classical", "s_pqk", "sqrt_n", "verdict"):
        assert key in data
    assert data["n"] == 10


def test_screen_reads_the_kernel_fields_of_its_kind(tmp_path, encoded_csv):
    # screen has --gamma only; poly and sigmoid keep KernelSpec's degree and
    # coef0
    out = tmp_path / "screen.json"
    argv = ["screen", "--input", str(encoded_csv), "--output", str(out),
            "--embedding", "e1", "--reps", "6", "--scale", "pi2",
            "--backend", "obp:0.05", "--seed", "0", "--lam", "1.0"]
    for flags, spec in ((["--kernel", "poly"], KernelSpec("poly")),
                        (["--kernel", "sigmoid", "--gamma", "0.5"],
                         KernelSpec("sigmoid", 0.5)),
                        ([], KernelSpec())):
        assert main(argv + flags) == 0
        assert json.loads(out.read_text())["kernel"] == dataclasses.asdict(
            spec)


@pytest.mark.parametrize("flag", [["--lam", "-1"], ["--gamma", "-1"],
                                  ["--kernel", "linear", "--gamma", "5"]])
def test_screen_rejects_bad_flag_before_projecting(tmp_path, encoded_csv,
                                                   monkeypatch, flag):
    calls = []
    monkeypatch.setattr("motifqk.cli.project_features",
                        lambda *args, **kwargs: calls.append(args))
    rc = main(["screen", "--input", str(encoded_csv),
               "--embedding", "e1", "--reps", "6", "--scale", "pi2",
               "--backend", "obp:0.05", "--seed", "0"] + flag)
    assert rc == 2
    assert calls == []


def _report_ini(tmp_path, raw_csv, **protocol):
    cp = configparser.ConfigParser()
    cp["dataset"] = {"path": str(raw_csv)}
    cp["embedding"] = {"kind": "e1", "reps": "6", "scale": "pi2"}
    cp["backend"] = {"backend": "obp:0.0"}
    cp["protocol"] = {"n_splits": "3", "split_seed": "0", "cv_folds": "2",
                      "cv_seed": "0", **protocol}
    cp["grid"] = {"kernels": "linear,rbf", "c_values": "1.0",
                  "gamma_values": "scale"}
    ini = tmp_path / "exp.ini"
    with open(ini, "w") as fh:
        cp.write(fh)
    return ini


def test_report_full_run(tmp_path, raw_csv):
    ini = _report_ini(tmp_path, raw_csv)
    outdir = tmp_path / "out"
    rc = main(["report", "--config", str(ini), "--output-dir", str(outdir)])
    assert rc == 0
    report = json.loads((outdir / "report.json").read_text())
    assert set(report["median_f1"]) == {"original", "pqk"}
    for name in ("f1.csv", "counts.csv", "fisher.csv"):
        assert (outdir / name).exists()
    f1_lines = (outdir / "f1.csv").read_text().strip().splitlines()
    assert f1_lines[0] == "split,original_f1,pqk_f1"
    assert len(f1_lines) == 4


@pytest.mark.parametrize("alpha", ["0", "1"])
def test_report_rejects_bad_alpha_before_running(tmp_path, raw_csv,
                                                 monkeypatch, alpha):
    def fail(*args, **kwargs):
        raise AssertionError("run_experiment called with a bad --alpha")

    monkeypatch.setattr("motifqk.cli.run_experiment", fail)
    outdir = tmp_path / "out"
    rc = main(["report", "--config", str(_report_ini(tmp_path, raw_csv)),
               "--output-dir", str(outdir), "--alpha", alpha])
    assert rc == 2
    assert not outdir.exists()


@pytest.mark.parametrize("protocol", [
    {"cv_folds": "1"}, {"smo_tol": "-1"}, {"smo_tol": "nan"},
    {"smo_max_passes": "-5"}])
def test_report_rejects_bad_protocol_before_projecting(tmp_path, raw_csv,
                                                       monkeypatch, protocol):
    calls = []
    monkeypatch.setattr("motifqk.evaluation.project_features",
                        lambda *args, **kwargs: calls.append(args))
    ini = _report_ini(tmp_path, raw_csv, **protocol)
    rc = main(["report", "--config", str(ini),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert calls == []


@pytest.mark.parametrize("case", ["embed", "screen", "report split_seed",
                                  "report cv_seed", "train --grid"])
def test_negative_seed_is_a_config_error_before_projecting(
        tmp_path, raw_csv, encoded_csv, feature_csv, monkeypatch, capsys,
        case):
    # numpy takes seeds >= 0 only: a negative one is refused where its
    # config is built, not as numpy's ValueError after the projection
    calls = []
    for where in ("motifqk.cli.project_features",
                  "motifqk.evaluation.project_features"):
        monkeypatch.setattr(where, lambda *args, **kwargs: calls.append(args))
    out = str(tmp_path / "out")
    e2 = ["--input", str(encoded_csv), "--embedding", "e2", "--steps", "4",
          "--backend", "exact", "--seed", "-1"]
    report = ["report", "--output-dir", out, "--config"]
    argv = {
        "embed": ["embed", "--output", out] + e2,
        "screen": ["screen"] + e2,
        "report split_seed": report + [
            str(_report_ini(tmp_path, raw_csv, split_seed="-3"))],
        "report cv_seed": report + [
            str(_report_ini(tmp_path, raw_csv, cv_seed="-2"))],
        "train --grid": ["train", "--features", str(feature_csv),
                         "--output", out, "--grid", "--cv-seed", "-1"],
    }[case]
    assert main(argv) == 2
    assert calls == []
    assert "seed must be an int >= 0" in capsys.readouterr().err


def test_no_switch_admits_settings_outside_production(tmp_path, raw_csv,
                                                       encoded_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--input", str(encoded_csv),
              "--output", str(tmp_path / "f.csv"), "--embedding", "e1",
              "--reps", "3", "--backend", "exact", "--seed", "0",
              "--test-mode"])
    assert exc.value.code == 2
    ini = _report_ini(tmp_path, raw_csv)
    cp = configparser.ConfigParser()
    cp.read(ini)
    cp["embedding"]["test_mode"] = "true"
    with open(ini, "w") as fh:
        cp.write(fh)
    capsys.readouterr()
    rc = main(["report", "--config", str(ini),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "unknown config key embedding.test_mode" in capsys.readouterr().err


def test_report_unusable_output_dir_fails_before_running(tmp_path, raw_csv,
                                                         monkeypatch):
    # the output directory is made before the experiment, which at full
    # width runs for hours
    def fail(*args, **kwargs):
        raise AssertionError("run_experiment ran")

    monkeypatch.setattr("motifqk.cli.run_experiment", fail)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    rc = main(["report", "--config", str(_report_ini(tmp_path, raw_csv)),
               "--output-dir", str(taken)])
    assert rc == 3


def test_report_missing_config(tmp_path):
    rc = main(["report", "--config", str(tmp_path / "nope.ini"),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2


def test_report_non_utf8_config_names_the_file(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(b"[dataset]\npath = \xff\xfe.csv\n")
    rc = main(["report", "--config", str(ini),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert str(ini) in capsys.readouterr().err


def test_report_malformed_number(tmp_path, raw_csv):
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[dataset]\npath = {raw_csv}\n"
                   "[embedding]\nkind = e1\nreps = six\n"
                   "[backend]\nbackend = obp:0.05\n"
                   "[protocol]\nsplit_seed = 0\ncv_seed = 0\n")
    rc = main(["report", "--config", str(ini),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2


def test_report_duplicate_key(tmp_path, raw_csv):
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[dataset]\npath = {raw_csv}\npath = {raw_csv}\n"
                   "[embedding]\nkind = e1\nreps = 6\n"
                   "[backend]\nbackend = obp:0.05\n"
                   "[protocol]\nsplit_seed = 0\ncv_seed = 0\n")
    rc = main(["report", "--config", str(ini),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2


def test_readme_command_lines_parse():
    # every documented `motifqk ...` invocation must name real flags
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.replace("\\\n", " ").replace("$lam", "1.0")
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    commands = [shlex.split(ln) for ln in lines if ln.startswith("motifqk ")]
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_bad_subcommand_usage():
    with pytest.raises(SystemExit):
        main(["embed", "--input", "x.csv"])  # missing required flags
