"""Every name the package exports has a caller outside the tests.

A caller is a reference in ``src/motifqk`` (other than ``__init__.py`` and
the name's own definition) or in ``perfbench/``: a name, an attribute, or
a string equal to the name (``perfbench/spans.py`` wraps functions by
name). An export that only tests reach repeats a production path or
keeps an unused field alive, so it needs a reason to stay.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# exports with no caller outside the tests, each with the reason it stays
# (CircuitStats needs no entry: circuit_stats returns it)
ALLOWED = {
    "circuit_stats": "acceptance criterion 1 sizes the embedding circuits "
                     "with it",
}


def _exported() -> set[str]:
    tree = ast.parse((ROOT / "src" / "motifqk" / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _references(node, own):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            name = sub.value
        else:
            continue
        if name != own:
            yield name


def _referenced_outside_tests() -> set[str]:
    paths = [p for p in sorted((ROOT / "src" / "motifqk").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").rglob("*.py"))
    used = set()
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            # a def or class does not count as a caller of itself
            used.update(_references(node, getattr(node, "name", None)))
    return used


def test_every_export_has_a_caller_outside_the_tests():
    unused = _exported() - _referenced_outside_tests() - set(ALLOWED)
    assert not unused, f"exported, but only tests use: {sorted(unused)}"


def test_allowlist_names_only_test_only_exports():
    assert set(ALLOWED) <= _exported()
    assert not set(ALLOWED) & _referenced_outside_tests()
