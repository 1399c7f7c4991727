"""Span tracing for the traced benchmark run, installed from outside motifqk.

The package imports its collaborators with ``from .x import y``, so a caller
looks a function up in its own module's namespace. Every function is
therefore wrapped under each name its callers use (``WRAPPED``), not only
where it is defined. Nothing under ``src/motifqk`` is modified on disk; the
wrappers are set as module attributes and removed again by ``uninstall``.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

# span name -> every (module, attribute) a caller resolves it through
WRAPPED: dict[str, tuple[tuple[str, str], ...]] = {
    "data.encode": (("motifqk.data", "encode_dataset"),
                    ("motifqk.synthetic", "encode_dataset")),
    "data.correlation_order": (("motifqk.data", "correlation_order"),
                               ("motifqk.evaluation", "correlation_order")),
    "circuits.build": (("motifqk.features", "build_zz_feature_map"),
                       ("motifqk.features", "build_heisenberg_embedding")),
    "statevector.simulate": (("motifqk.statevector", "simulate"),),
    "statevector.expectation": (("motifqk.statevector", "pauli_expectation"),),
    "pauliprop.backprop": (("motifqk.features", "backpropagate_observable"),),
    "features.project": (("motifqk.features", "project_features"),
                         ("motifqk.evaluation", "project_features")),
    "kernels.kernel_matrix": (("motifqk.svm", "kernel_matrix"),
                              ("motifqk.evaluation", "kernel_matrix")),
    "kernels.jacobi_eigh": (("motifqk.kernels", "jacobi_eigh"),),
    "kernels.geometric_difference": (
        ("motifqk.evaluation", "geometric_difference"),),
    "kernels.model_complexity": (("motifqk.evaluation", "model_complexity"),),
    "svm.grid_search": (("motifqk.svm", "grid_search"),
                        ("motifqk.evaluation", "grid_search")),
    "svm.smo": (("motifqk.svm", "smo_train"),
                ("motifqk.evaluation", "smo_train")),
    "svm.predict": (("motifqk.svm", "predict"),
                    ("motifqk.evaluation", "predict")),
    "evaluation.run_experiment": (("motifqk.evaluation", "run_experiment"),),
    "evaluation.fisher": (("motifqk.evaluation", "fisher_from_counts"),),
    "evaluation.screen_advantage": (
        ("motifqk.evaluation", "screen_advantage"),),
}


def _note(name: str, args, result) -> dict:
    """What a span records beyond its times, read from arguments and result."""
    if name == "pauliprop.backprop":
        return {"terms_out": len(result)}
    if name == "features.project":
        return {"kind": args[1].kind, "rows": len(args[0])}
    if name == "svm.grid_search":
        return {"folds": result.folds, "declared": len(result.candidates)}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    note: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans (name, start, end, parent) in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, parent=parent)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.note = _note(name, args, result)
            return result
        return traced

    def install(self) -> None:
        for name, sites in WRAPPED.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def mark(self) -> int:
        """Index of the next span, to select the spans of one phase later."""
        return len(self.spans)

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            kids.setdefault(s.parent, []).append(i)
        return kids
