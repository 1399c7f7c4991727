"""The traced benchmark's span table still matches the package's call sites.

``perfbench/spans.py`` wraps functions under the names their callers look
them up by. A renamed or removed call site would otherwise only show up in
a ``perfbench/run.py --trace 1`` run.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

from motifqk.features import BackendConfig, EmbeddingConfig
from motifqk.kernels import KernelSpec

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves_and_is_restored(monkeypatch):
    spans = _load_spans(monkeypatch)
    originals = {}
    for sites in spans.WRAPPED.values():
        for module_name, attr in sites:
            module = importlib.import_module(module_name)
            assert hasattr(module, attr), f"{module_name}.{attr} is gone"
            originals[module_name, attr] = getattr(module, attr)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module_name, attr), original in originals.items():
            wrapped = getattr(importlib.import_module(module_name), attr)
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
        features = importlib.import_module("motifqk.features")
        emb = EmbeddingConfig("e1", reps=6, scale=math.pi / 2)
        features.project_features(np.array([[1, 0, 1]]), emb,
                                  BackendConfig.parse("obp:0"))
        obp_end = tracer.mark()
        features.project_features(np.array([[1, 0, 1]]), emb,
                                  BackendConfig.parse("exact"))
    finally:
        tracer.uninstall()
    for (module_name, attr), original in originals.items():
        assert getattr(importlib.import_module(module_name), attr) \
            is original
    # one build and one propagation pass per obp sample
    names = [s.name for s in tracer.spans]
    assert names[:obp_end] == ["features.project", "circuits.build",
                               "pauliprop.backprop"]
    assert tracer.spans[2].note["terms_out"] > 0
    # one build per exact sample and one simulation per distinct
    # non-trivial cluster: on [1, 0, 1] qubits 0 and 2 each run (H·RZ)^6
    # alone and qubit 1's H^6 cancels, so one cluster circuit is read
    exact = names[obp_end:]
    assert exact[:2] == ["features.project", "circuits.build"]
    assert exact.count("circuits.build") == 1
    assert exact.count("statevector.simulate") == 1
    assert exact.count("statevector.expectation") == 3


def test_screen_spans_nest_under_screen_advantage(monkeypatch):
    # the screen workload's per-layer g and s_K times come from these spans
    spans = _load_spans(monkeypatch)
    evaluation = importlib.import_module("motifqk.evaluation")
    rng = np.random.default_rng(3)
    bits = np.unique(rng.integers(0, 2, (30, 12)), axis=0)
    y = np.where(np.arange(len(bits)) % 2 == 0, -1.0, 1.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        evaluation.screen_advantage(bits, y, rng.normal(size=(len(bits), 6)),
                                    KernelSpec(kind="rbf"), lam=1.0)
    finally:
        tracer.uninstall()
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("evaluation.screen_advantage", -1), ("kernels.kernel_matrix", 0),
        ("kernels.kernel_matrix", 0), ("kernels.geometric_difference", 0),
        ("kernels.model_complexity", 0), ("kernels.model_complexity", 0)]
    assert all(s.duration > 0 for s in tracer.spans)
