"""Static checks on the source tree: no module or test file imports a name it
never uses, no module rebinds a module-level name from a function but the pool worker's
initializer, and the package exports only names it has, each once."""
import ast
from pathlib import Path

import pytest

import chest

ROOT = Path(__file__).resolve().parents[1]
# Package __init__ modules import names to re-export them, so they are exempt.
MODULES = sorted(p for p in (ROOT / "src" / "chest").glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\n"
              "import a.b\n"
              "from x import y, z as w\n"
              "print(np.pi, a.b, w)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: y"]


def global_statements(source: str) -> list[str]:
    """``global`` statements in ``source``, each with its innermost enclosing
    function, or ``<module>``."""
    tree = ast.parse(source)
    owner = {}
    for func in ast.walk(tree):     # outer functions come first
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    owner[node] = func.name
    return sorted(f"line {node.lineno}: {owner.get(node, '<module>')}"
                  for node in ast.walk(tree) if isinstance(node, ast.Global))


# A pool worker receives the run's environments once, through its
# initializer, which keeps them in a module-level name.
GLOBALS_ALLOWED = {"experiments.py": {"_init_worker"}}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_hidden_module_state(path):
    """A ``global`` statement keeps process-wide state that a caller cannot
    see or reset; only the pool worker's initializer may have one."""
    allowed = GLOBALS_ALLOWED.get(path.name, set())
    found = global_statements(path.read_text())
    assert [g for g in found if g.split(": ")[1] not in allowed] == []


def test_detects_global_statements():
    source = ("global a\n"
              "def f():\n"
              "    global b\n"
              "    def g():\n"
              "        global c\n"
              "def h():\n"
              "    return 1\n")
    assert global_statements(source) == ["line 1: <module>", "line 3: f", "line 5: g"]


def test_every_export_resolves_once():
    names = chest.__all__
    assert len(set(names)) == len(names), "a name is exported twice"
    assert [n for n in names if not hasattr(chest, n)] == []
