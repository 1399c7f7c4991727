"""Smoke test of the benchmark: every workload at minimal size.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", run.NAMES)
def test_workload_emits_every_metric_with_a_unit(name):
    res = run.measure(name, seed=3, seconds=0.0, traced=True, smoke=True)
    assert res["attempted"] >= 1 and res["failed"] == 0
    for group in ("end_to_end", "per_layer"):
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        got = res[group]
        assert set(got) == set(want)
        for metric, (value, unit) in got.items():
            assert unit == want[metric], metric
            assert isinstance(value, float), metric
    assert all(v > 0 for v, _ in res["end_to_end"].values())


def test_workload_names_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.NAMES


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "report",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
