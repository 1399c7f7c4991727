"""No module imports a name it never uses.

Checked over ``src/motifqk`` and ``perfbench/``. An import left behind
by a deletion hides what the module still depends on. The package's
``__init__.py`` is exempt: its imports are its exports, which
``test_public_api`` checks for callers instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _modules():
    paths = sorted((ROOT / "src" / "motifqk").glob("*.py"))
    paths += sorted((ROOT / "perfbench").rglob("*.py"))
    return [p for p in paths if p.name != "__init__.py"]


def _unused_imports(tree) -> list[tuple[str, int]]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in _modules()
             for name, line in _unused_imports(ast.parse(path.read_text()))]
    assert not found, f"imported but never used: {found}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom a import b, c\n"
                     "np.zeros(b)\n")
    assert _unused_imports(tree) == [("c", 3), ("os", 1)]
