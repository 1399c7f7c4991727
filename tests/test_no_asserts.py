"""No ``assert`` statement in the package source.

``python -O`` strips asserts, so an invariant written as one goes
unchecked there; the package raises typed errors instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "motifqk"


def test_package_source_has_no_assert():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/motifqk: {found}"
