"""Static checks on the source tree: no module imports a name it never uses,
and the package exports only names it has, each once."""
import ast
from pathlib import Path

import pytest

import chest

ROOT = Path(__file__).resolve().parents[1]
# Package __init__ modules import names to re-export them, so they are exempt.
MODULES = sorted(p for p in (ROOT / "src" / "chest").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in ``source`` that nothing reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\n"
              "import a.b\n"
              "from x import y, z as w\n"
              "print(np.pi, a.b, w)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: y"]


def test_every_export_resolves_once():
    names = chest.__all__
    assert len(set(names)) == len(names), "a name is exported twice"
    assert [n for n in names if not hasattr(chest, n)] == []
