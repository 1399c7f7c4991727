#!/usr/bin/env python3
"""Benchmark of the motifqk pipeline: four seeded workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload embed --seed 1 --seconds 25 --trace 0

``--workload all`` (the default) runs every workload with tracing and
prints every metric. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. The exit code is 0 only when every output check passed.

A run sets its workload up several times (``SETUP_*``), then runs rounds
(one fixed unit of work each, see ``workloads.py``) until the next round
would end after ``--seconds``; at least one round always runs. End-to-end
metrics:

- ``setup_s``: median set-up time.
- ``wall_s``: mean round time (measured time over rounds), tracing off.
- ``samples_per_s``: input rows per second of the rounds; on ``embed`` the
  rows embedded per second of the cold passes.
- ``peak_rss_mb``: peak resident memory of the process.

Round times are averaged, not taken as a median: on a shared host whose
speed flips between a fast and a slow state every few seconds, the median
of a run's rounds jumps with the share of rounds that fell in one state,
while the mean moves with it smoothly. On a 2-vCPU shared Xeon VM the mean
of 10 s windows of a fixed loop spread about 10% from window to window and
their median about 17%.

A traced run alternates untraced and traced rounds. Per-layer times and
counts are per traced round (``data.*`` per set-up); ``*_self_s`` and
``*.self_s`` subtract the time of nested layer spans; a ``_tail`` value is the
highest percentile with at least 10 samples beyond it, or the maximum when
there are fewer than 11 samples (``*_samples`` gives the count). A ratio
whose base is zero, because the workload never reaches that layer, reads 0.
``trace.overhead_s`` is the traced minus the untraced mean round time and
``trace.coverage`` the share of traced round time spent inside layer spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_MIN_REPS = 5  # set-ups per run: at least this many, and more until
SETUP_BUDGET_S = 1.0  # this much set-up time is spent, so that short set-ups
SETUP_MAX_REPS = 5000  # get a steady median
NAMES = ("embed", "gridsearch", "screen", "report")
SMO_WARNINGS = ("SMO hit max_passes", "SMO stalled")
FULL_PROTOCOL = {"samples": 246, "folds": 10, "splits": 10, "arms": 2}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "samples_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def _blas_threads():
    """Thread count the bundled OpenBLAS reports, or None when not found."""
    import ctypes
    import numpy
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs")
                      .glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _tail(values: list[float]) -> float:
    v = sorted(values)
    if not v:
        return 0.0
    return v[len(v) - 11] if len(v) >= 11 else v[-1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, setup_end: int, setup_reps: int,
                  traced_rounds: list[int],
                  nonconverged: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the spans of the set-ups and traced rounds.

    ``nonconverged`` counts the SMO fits of the traced rounds that warned.
    """
    spans = tracer.spans
    kids = tracer.children()

    def self_time(i: int) -> float:
        return spans[i].duration - sum(spans[k].duration
                                       for k in kids.get(i, ()))

    def child_count(i: int, name: str) -> int:
        return sum(spans[k].name == name for k in kids.get(i, ()))

    setup_by: dict[str, list[int]] = defaultdict(list)
    by: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        (setup_by if i < setup_end else by)[s.name].append(i)
    n = max(len(traced_rounds), 1)

    def per_round(name: str) -> float:
        return sum(spans[i].duration for i in by[name]) / n

    def calls(name: str) -> float:
        return len(by[name]) / n

    def self_per_round(*names: str) -> float:
        return sum(self_time(i) for name in names for i in by[name]) / n

    samples: dict[str, list[float]] = {"e1": [], "e2": []}
    rows_req = rows_done = 0
    cache_read = 0.0
    for i in by["features.project"]:
        done = child_count(i, "circuits.build")
        rows_req += spans[i].note["rows"]
        rows_done += done
        if done:
            samples[spans[i].note["kind"]].append(spans[i].duration / done)
        else:
            cache_read += spans[i].duration

    smo = [spans[i].duration for i in by["svm.smo"]]
    distinct = sum(child_count(i, "svm.smo") / spans[i].note["folds"]
                   for i in by["svm.grid_search"])
    declared = sum(spans[i].note["declared"] for i in by["svm.grid_search"])
    round_time = sum(spans[i].duration for i in traced_rounds)
    in_layers = sum(spans[k].duration for i in traced_rounds
                    for k in kids.get(i, ()))

    m = {
        "circuits.build_calls": (calls("circuits.build"), "count"),
        "circuits.build_s": (per_round("circuits.build"), "s"),
        "pauliprop.backprop_calls": (calls("pauliprop.backprop"), "count"),
        "pauliprop.backprop_s": (per_round("pauliprop.backprop"), "s"),
        "pauliprop.terms_out": (sum(spans[i].note["terms_out"]
                                    for i in by["pauliprop.backprop"]) / n,
                                "count"),
        "statevector.simulate_calls": (calls("statevector.simulate"), "count"),
        "statevector.simulate_s": (per_round("statevector.simulate"), "s"),
        "statevector.expectation_s": (per_round("statevector.expectation"),
                                      "s"),
        "features.project_s": (per_round("features.project"), "s"),
        "features.self_s": (self_per_round("features.project"), "s"),
        "features.rows_computed": (rows_done / n, "count"),
        "features.cache_hit_ratio": (_ratio(rows_req - rows_done, rows_req),
                                     "ratio"),
        "features.cache_read_s": (cache_read / n, "s"),
        "kernels.jacobi_eigh_calls": (calls("kernels.jacobi_eigh"), "count"),
        "kernels.jacobi_eigh_s": (per_round("kernels.jacobi_eigh"), "s"),
        "kernels.geometric_difference_s": (
            per_round("kernels.geometric_difference"), "s"),
        "kernels.model_complexity_s": (per_round("kernels.model_complexity"),
                                       "s"),
        "kernels.kernel_matrix_calls": (calls("kernels.kernel_matrix"),
                                        "count"),
        "kernels.kernel_matrix_s": (per_round("kernels.kernel_matrix"), "s"),
        "svm.grid_search_s": (per_round("svm.grid_search"), "s"),
        "svm.smo_calls": (calls("svm.smo"), "count"),
        "svm.smo_s": (per_round("svm.smo"), "s"),
        "svm.smo_self_s": (self_per_round("svm.smo"), "s"),
        "svm.smo_p50_s": (statistics.median(smo) if smo else 0.0, "s"),
        "svm.smo_tail_s": (_tail(smo), "s"),
        "svm.predict_s": (per_round("svm.predict"), "s"),
        "svm.dedup_ratio": (_ratio(distinct, declared), "ratio"),
        "svm.nonconverged_fits": (nonconverged / n, "count"),
        "svm.converged_ratio": (_ratio(len(smo) - nonconverged, len(smo)),
                                "ratio"),
        "nonconverged_frac": (_ratio(nonconverged, len(smo)), "ratio"),
        "evaluation.run_experiment_s": (per_round("evaluation.run_experiment"),
                                        "s"),
        "evaluation.self_s": (self_per_round(
            "evaluation.run_experiment", "evaluation.fisher",
            "evaluation.screen_advantage"), "s"),
        "evaluation.fisher_s": (per_round("evaluation.fisher"), "s"),
        "evaluation.screen_advantage_s": (
            per_round("evaluation.screen_advantage"), "s"),
        "data.encode_s": (
            sum(spans[i].duration for i in setup_by["data.encode"])
            / setup_reps, "s"),
        "data.correlation_order_s": (
            sum(spans[i].duration for i in setup_by["data.correlation_order"])
            / setup_reps, "s"),
        "trace.coverage": (_ratio(in_layers, round_time), "ratio"),
    }
    for kind, times in samples.items():
        m[f"features.{kind}_sample_p50_s"] = (
            statistics.median(times) if times else 0.0, "s")
        m[f"features.{kind}_sample_tail_s"] = (_tail(times), "s")
        m[f"features.{kind}_samples"] = (float(len(times)), "count")
    return m


def measure(name: str, seed: int, seconds: float, traced: bool,
            smoke: bool = False) -> dict:
    """Set up and run one workload; returns its counts and metrics.

    With ``traced`` the rounds alternate between untraced and traced, so one
    run yields both the end-to-end and the per-layer numbers.
    """
    from spans import Tracer
    from workloads import WORKLOADS, CheckFailed

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    tracer = Tracer()
    try:
        setup_times: list[float] = []
        while len(setup_times) < SETUP_MIN_REPS or (
                sum(setup_times) < SETUP_BUDGET_S
                and len(setup_times) < SETUP_MAX_REPS):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                workload = WORKLOADS[name](seed, smoke, workdir)
            finally:
                setup_times.append(time.perf_counter() - t0)
                tracer.uninstall()
        setup_end = tracer.mark()

        plain_s, traced_s, rate_s, traced_rounds = [], [], [], []
        attempted = failed = fits_nonconverged = 0
        start = time.perf_counter()
        r = 0
        while True:
            # a traced round repeats the work unit of the untraced one before
            unit, tracing = (r // 2, r % 2 == 1) if traced else (r, False)
            run = workload.run_round
            if tracing:
                traced_rounds.append(tracer.mark())
                run = tracer.wrap("bench.round", run)
                tracer.install()
            out = None
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                try:
                    out = run(unit, tracing)
                except Exception:  # a failed operation is counted, not fatal
                    traceback.print_exc()
                finally:
                    dt = time.perf_counter() - t0
                    tracer.uninstall()
            if tracing:
                fits_nonconverged += sum(
                    str(w.message).startswith(SMO_WARNINGS) for w in caught)
            (traced_s if tracing else plain_s).append(dt)
            if not tracing:
                rate_s.append(workload.rate_seconds(dt))
            attempted += workload.ops_per_round
            if out is None:
                failed += workload.ops_per_round
            else:
                try:
                    workload.check(out)
                except CheckFailed as exc:
                    print(f"check failed ({name}, round {r}): {exc}",
                          file=sys.stderr)
                    failed += workload.ops_per_round
            r += 1
            elapsed = time.perf_counter() - start
            enough = r >= (2 if traced else 1)
            if enough and elapsed + statistics.fmean(plain_s) > seconds:
                break

        end_to_end = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.fmean(plain_s),
            "samples_per_s": workload.rows_per_round()
            / statistics.fmean(rate_s),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        per_layer = {}
        if traced:
            per_layer = layer_metrics(tracer, setup_end, len(setup_times),
                                      traced_rounds, fits_nonconverged)
            per_layer.update({
                "features.cache_bytes": (
                    workload.traced_cache_bytes() / len(traced_rounds), "B"),
                "error_frac": (failed / attempted, "ratio"),
                "trace.overhead_s": (statistics.fmean(traced_s)
                                     - statistics.fmean(plain_s), "s"),
            })
        return {"attempted": attempted, "failed": failed,
                "end_to_end": {k: (v, END_TO_END_UNITS[k])
                               for k, v in end_to_end.items()},
                "per_layer": per_layer}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's directory is still there
            pass


def full_protocol_estimate_h(embed: dict, grid: dict) -> float:
    """Single-core hours for the paper's full protocol, from layer numbers.

    246 cold E1 samples, plus every effective candidate of the full grid
    fitted once per fold, split and arm at the median SMO fit time.
    """
    from motifqk import svm
    keys = {(k, c) if k == "linear" else (k, c, g)
            for k, c, g in svm.GridConfig().candidates()}
    p = FULL_PROTOCOL
    seconds = (p["samples"] * embed["features.e1_sample_p50_s"][0]
               + len(keys) * p["folds"] * p["splits"] * p["arms"]
               * grid["svm.smo_p50_s"][0])
    return seconds / 3600.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)
    if not (SRC / "motifqk" / "__init__.py").is_file():
        print(f"error: no motifqk source tree under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread: every workload is single-process, single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import motifqk
    import numpy
    if Path(motifqk.__file__).resolve().parent != SRC / "motifqk":
        print(f"error: imported motifqk from {motifqk.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    print("env: " + json.dumps({
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas_threads": _blas_threads()},
        sort_keys=True))

    everything = args.workload == "all"
    names = NAMES if everything else (args.workload,)
    results = {n: measure(n, args.seed, args.seconds,
                          traced=everything or args.trace == 1)
               for n in names}
    metrics = {}
    for n, res in results.items():
        if everything:
            for group in ("end_to_end", "per_layer"):
                metrics.update({f"{n}/{k}": v for k, v in res[group].items()})
        else:
            metrics.update(res["per_layer" if args.trace else "end_to_end"])
    for key, (value, unit) in metrics.items():
        print(f"{key:<44} {value:>16.6g} {unit}")
    if everything:
        est = full_protocol_estimate_h(results["embed"]["per_layer"],
                                       results["gridsearch"]["per_layer"])
        print(f"estimate, ungated: full_protocol_est_h = {est:.4g} h "
              "(246 cold E1 samples at the E1 p50, plus the full grid's "
              "effective candidates x 10 folds x 10 splits x 2 arms at the "
              "median SMO fit)")
    attempted = sum(res["attempted"] for res in results.values())
    failed = sum(res["failed"] for res in results.values())
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
