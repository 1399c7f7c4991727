"""The traced benchmark's span table still matches the package's call sites.

``perfbench/spans.py`` wraps functions under the names their callers look
them up by. A renamed or removed call site would otherwise only show up in
a ``perfbench/run.py --trace 1`` run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from motifqk.features import BackendConfig, EmbeddingConfig

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
        emb = EmbeddingConfig("e1", reps=1, scale=1.0, test_mode=True)
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
    # one build per exact sample and one simulation per non-trivial
    # cluster: [1, 0, 1] leaves three one-qubit clusters (H·RZ, H, H·RZ)
    exact = names[obp_end:]
    assert exact[:2] == ["features.project", "circuits.build"]
    assert exact.count("circuits.build") == 1
    assert exact.count("statevector.simulate") == 3
    assert exact.count("statevector.expectation") == 9
