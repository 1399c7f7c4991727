"""Command-line entry points for each pipeline stage.

Exit codes: 0 on success, 2 for configuration problems, 3 for data
problems, 4 when a backend cannot serve the request, 5 when the SVM solver
ends in a state that breaks its optimality checks.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

from .errors import BackendError, ConfigError, DataError, SolverError
from . import data as dataio
from .features import (BackendConfig, EmbeddingConfig, load_feature_csv,
                       parse_scale, project_features, write_feature_csv)
from .kernels import KERNEL_FIELDS, KERNEL_KINDS, KernelSpec, check_lam, \
    parse_gamma
from .svm import GridConfig, SvmModel, grid_search, predict, smo_train, \
    weighted_f1
from .evaluation import (FEATURE_ORDERS, METHODS, check_alpha,
                         config_from_ini, per_motif_analysis, report_cells,
                         run_experiment, screen_advantage)

logger = logging.getLogger(__name__)


def _add_embedding_flags(sub) -> None:
    sub.add_argument("--embedding", required=True, choices=("e1", "e2"))
    sub.add_argument("--reps", type=int, default=None,
                     help="feature-map repetitions (e1)")
    sub.add_argument("--steps", type=int, default=None,
                     help="Trotter steps (e2)")
    sub.add_argument("--scale", default="pi2",
                     help="rotation scale: pi or pi2")
    sub.add_argument("--backend", required=True,
                     help="exact, shots:<n>, or obp:<threshold>")
    sub.add_argument("--order", choices=FEATURE_ORDERS,
                     default="natural",
                     help="feed bit columns as-is or in clustered order")
    sub.add_argument("--seed", type=int, required=True,
                     help="seed for the e2 init layer / shot sampling")
    sub.add_argument("--jobs", type=int, default=1)


def _refuse_unread(args, command: str, flags) -> None:
    """Exit 2 naming each of ``flags`` (argparse dests, None when left out)
    that the command line gave: ``command`` does not read them."""
    given = ["--" + f.replace("_", "-") for f in flags
             if getattr(args, f, None) is not None]
    if given:
        raise ConfigError(f"{command} does not read {', '.join(given)}")


def _given(args, **fields) -> dict:
    """Each field whose flag (argparse dest) the command has and was given."""
    return {field: getattr(args, dest) for field, dest in fields.items()
            if getattr(args, dest, None) is not None}


def _kernel_spec(args, command: str) -> KernelSpec:
    """KernelSpec of --kernel and of the field flags its kind reads; a
    field flag that ``KERNEL_FIELDS`` does not list for the kind exits 2."""
    kind = args.kernel or KernelSpec.kind
    read = KERNEL_FIELDS[kind]
    _refuse_unread(args, f"{command} --kernel {kind}",
                   [f for f in ("gamma", "degree", "coef0") if f not in read])
    fields = _given(args, **{f: f for f in read})
    if "gamma" in fields:
        fields["gamma"] = parse_gamma(fields["gamma"])
    return KernelSpec(kind, **fields)


def _features_from_args(args):
    """(bits in the requested column order, projected features, labels)."""
    X, y = dataio.load_encoded_csv(args.input)
    if args.order == "correlation":
        X = X[:, dataio.correlation_order(X)]
    # --seed is required on every embedding command line, whatever the
    # kinds; it reaches only the configs that read it: e2 (its RY layer)
    # and shots
    embedding = EmbeddingConfig(
        args.embedding, reps=args.reps, steps=args.steps,
        scale=parse_scale(args.scale),
        seed=args.seed if args.embedding == "e2" else None)
    backend = BackendConfig.parse(
        args.backend,
        seed=args.seed if args.backend.startswith("shots:") else None)
    F = project_features(X, embedding, backend, n_jobs=args.jobs)
    return X, F, y


def cmd_encode(args) -> int:
    constructs = dataio.load_constructs(args.input)
    dataset = dataio.encode_dataset(constructs)
    dataio.write_encoded_csv(args.output, dataset)
    print(f"encoded {len(dataset)} constructs "
          f"({dataset.layout.n_bits} bits each) -> {args.output}")
    return 0


def cmd_embed(args) -> int:
    _, F, y = _features_from_args(args)
    write_feature_csv(args.output, F, labels=y)
    print(f"projected {F.shape[0]} samples to {F.shape[1]} features "
          f"-> {args.output}")
    return 0


def cmd_screen(args) -> int:
    spec = _kernel_spec(args, "screen")
    check_lam(args.lam)  # before the projection, which is the slow part
    X, F, y = _features_from_args(args)
    result = screen_advantage(X, y, F, spec, lam=args.lam)
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    print(f"g_cq={result['g_cq']:.3f} sqrt(N)={result['sqrt_n']:.3f} "
          f"s_classical={result['s_classical']:.3f} "
          f"s_pqk={result['s_pqk']:.3f}")
    print(result["verdict"])
    return 0


def cmd_train(args) -> int:
    if args.grid:  # the grid sweeps kernel, C and gamma itself
        _refuse_unread(args, "train --grid", ("kernel", "c", "gamma"))
    else:  # only the grid reads the CV flags
        _refuse_unread(args, "train without --grid", ("folds", "cv_seed"))
        if args.c is None:
            raise ConfigError("train needs --c unless --grid is set")
        spec, C = _kernel_spec(args, "train"), args.c
    F, y = load_feature_csv(args.features)
    if args.grid:
        grid = GridConfig(**_given(args, degree="degree", coef0="coef0"))
        result = grid_search(F, y, grid, tol=args.tol,
                             max_passes=args.max_passes,
                             **_given(args, folds="folds", seed="cv_seed"))
        spec, C = result.best_model_inputs()
        kind, c_val, g_val = result.best
        print(f"grid best: kernel={kind} C={c_val} gamma={g_val} "
              f"(mean CV F1 {result.means[result.best_index]:.4f} over "
              f"{result.folds} folds)")
    model = smo_train(F, y, spec, C, tol=args.tol,
                      max_passes=args.max_passes)
    model.save(args.output)
    print(f"trained on {F.shape[0]} samples, "
          f"{len(model.support_idx)} support vectors -> {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    model = SvmModel.load(args.model)
    F, y = load_feature_csv(args.features)
    preds = predict(model, F)
    metrics = {
        "n": int(F.shape[0]),
        "weighted_f1": weighted_f1(y, preds),
        "accuracy": float((preds == y).mean()),
    }
    if args.output:
        Path(args.output).write_text(
            json.dumps(metrics, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    print(f"weighted F1 {metrics['weighted_f1']:.4f} on {metrics['n']} "
          f"samples (accuracy {metrics['accuracy']:.4f})")
    return 0


def _write_report_tables(report, outdir: Path, alpha: float) -> None:
    with open(outdir / "f1.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["split", "original_f1", "pqk_f1"])
        for i, (fo, fq) in enumerate(zip(report.f1["original"],
                                         report.f1["pqk"])):
            writer.writerow([i, f"{fo:.6f}", f"{fq:.6f}"])
    with open(outdir / "counts.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "position", "value", "method",
                         "correct", "incorrect"])
        for axis, pos, value, per_method in report_cells(report.counts):
            for method in METHODS:
                writer.writerow([axis, pos, value, method,
                                 *per_method[method]])
    with open(outdir / "fisher.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "position", "value", "p_value", "better",
                         "significant"])
        for row in per_motif_analysis(report, alpha=alpha):
            writer.writerow([row["axis"], row["position"], row["value"],
                             f"{row['p_value']:.6g}", row["better"],
                             row["significant"]])


def cmd_report(args) -> int:
    check_alpha(args.alpha)  # before the experiment, which is the slow part
    dataset_path, config = config_from_ini(args.config)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)  # before the experiment too
    constructs = dataio.load_constructs(dataset_path)
    dataset = dataio.encode_dataset(constructs)
    report = run_experiment(dataset, config)
    report.save(outdir / "report.json")
    _write_report_tables(report, outdir, args.alpha)
    print(f"median F1: original {report.median_f1['original']:.4f}, "
          f"pqk {report.median_f1['pqk']:.4f}; "
          f"max: original {report.max_f1['original']:.4f}, "
          f"pqk {report.max_f1['pqk']:.4f}")
    print(f"wrote report.json, f1.csv, counts.csv, fisher.csv to {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motifqk",
        description="Projected quantum kernels for motif cytotoxicity data")
    subs = parser.add_subparsers(dest="command", required=True)

    enc = subs.add_parser("encode", help="one-hot encode a construct screen")
    enc.add_argument("--input", required=True,
                     help="CSV with pos1,pos2,pos3,cytotoxicity columns")
    enc.add_argument("--output", required=True)
    enc.set_defaults(func=cmd_encode)

    emb = subs.add_parser("embed", help="compute 1-RDM feature vectors")
    emb.add_argument("--input", required=True, help="encoded CSV")
    emb.add_argument("--output", required=True)
    _add_embedding_flags(emb)
    emb.set_defaults(func=cmd_embed)

    scr = subs.add_parser("screen",
                          help="geometry screening of quantum advantage")
    scr.add_argument("--input", required=True, help="encoded CSV")
    scr.add_argument("--output", default=None, help="JSON output path")
    scr.add_argument("--kernel", choices=KERNEL_KINDS)
    scr.add_argument("--gamma")
    scr.add_argument("--lam", type=float, default=1.0)
    _add_embedding_flags(scr)
    scr.set_defaults(func=cmd_screen)

    tr = subs.add_parser("train", help="train a kernel SVM on features")
    tr.add_argument("--features", required=True)
    tr.add_argument("--output", required=True, help="model JSON path")
    tr.add_argument("--grid", action="store_true",
                    help="run the full hyperparameter sweep")
    tr.add_argument("--kernel", default=None, choices=KERNEL_KINDS,
                    help="kernel kind (default rbf; not with --grid)")
    tr.add_argument("--c", type=float, default=None,
                    help="SVM C (required; not with --grid)")
    tr.add_argument("--gamma", default=None,
                    help="kernel gamma (default scale; not with --grid)")
    tr.add_argument("--degree", type=int)
    tr.add_argument("--coef0", type=float)
    tr.add_argument("--folds", type=int)
    tr.add_argument("--cv-seed", type=int)
    tr.add_argument("--tol", type=float, default=1e-3)
    tr.add_argument("--max-passes", type=int, default=200)
    tr.set_defaults(func=cmd_train)

    ev = subs.add_parser("evaluate", help="score a saved model on features")
    ev.add_argument("--model", required=True)
    ev.add_argument("--features", required=True)
    ev.add_argument("--output", default=None, help="metrics JSON path")
    ev.set_defaults(func=cmd_evaluate)

    rep = subs.add_parser("report", help="run the full dual-arm experiment")
    rep.add_argument("--config", required=True, help="INI experiment config")
    rep.add_argument("--output-dir", required=True)
    rep.add_argument("--alpha", type=float, default=0.01)
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 4
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
