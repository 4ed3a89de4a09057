"""Static checks on the source tree: no module or test file imports a name it
never uses, no module rebinds a module-level name from a function, no module forms
a dense Kronecker product or identity outside the two checks that need one or turns
path geometry into responses outside the two places that own it, no module imports
the process-pool machinery, and the package exports only names it has, each once."""
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


def _owners(tree: ast.AST) -> dict:
    """Each node inside a function mapped to its innermost enclosing
    function's name."""
    owner = {}
    for func in ast.walk(tree):     # outer functions come first
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner[node] = func.name
    return owner


def global_statements(source: str) -> list[str]:
    """``global`` statements in ``source``, each with its innermost enclosing
    function, or ``<module>``."""
    tree = ast.parse(source)
    owner = _owners(tree)
    return sorted(f"line {node.lineno}: {owner.get(node, '<module>')}"
                  for node in ast.walk(tree) if isinstance(node, ast.Global))


# Forked workers inherit the run's environments, so no module keeps any.
GLOBALS_ALLOWED: dict[str, set[str]] = {}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_hidden_module_state(path):
    """A ``global`` statement keeps process-wide state that a caller cannot
    see or reset; no module has one."""
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


DENSE = ("kron", "eye")
RESPONSES = ("steering_matrix", "frequency_response")


def _dense_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "np" and node.attr in DENSE:
        return f"np.{node.attr}"
    if isinstance(node, ast.Name) and node.id in RESPONSES:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in RESPONSES:
        return node.attr
    return None


def dense_builders(source: str) -> list[str]:
    """``np.kron`` and ``np.eye``, and every reference to ``steering_matrix``
    or ``frequency_response``, in ``source``, each with its innermost enclosing
    function, or ``<module>``."""
    tree = ast.parse(source)
    owner = _owners(tree)
    return sorted(f"line {node.lineno}: {owner.get(node, '<module>')}: {name}"
                  for node in ast.walk(tree) if (name := _dense_name(node)))


# The library forms no dense Kronecker product or identity: the vectorization
# check holds a small pair against np.kron, and the orthonormality check
# compares a basis's Gram matrix with the identity.  Path geometry becomes
# steering and frequency responses in two places: the sweeps' environment,
# and the fixed small instances of chest validate.  Every other function takes
# responses.
DENSE_ALLOWED = {"validate.py": {("check_vec_kron", "np.kron"),
                                 ("_small_responses", "steering_matrix"),
                                 ("_small_responses", "frequency_response")},
                 "subspaces.py": {("_check_orthonormal", "np.eye")},
                 "experiments.py": {("build_environment", "steering_matrix"),
                                    ("build_environment", "frequency_response")}}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dense_kronecker_or_identity(path):
    allowed = DENSE_ALLOWED.get(path.name, set())
    found = dense_builders(path.read_text())
    assert [d for d in found if tuple(d.split(": ")[1:]) not in allowed] == []


def test_detects_dense_builders():
    source = ("import numpy as np\n"
              "q = np.kron(a, b)\n"
              "def f():\n"
              "    return np.eye(3) + other.eye(2)\n"
              "def g():\n"
              "    k = np.kron\n"
              "    return steering_matrix(p, 4, 0.5), propagation.frequency_response\n")
    assert dense_builders(source) == ["line 2: <module>: np.kron", "line 4: f: np.eye",
                                      "line 6: g: np.kron", "line 7: g: frequency_response",
                                      "line 7: g: steering_matrix"]


# The pool machinery costs about 2 MB resident and tens of ms at start-up, and
# sweep workers are plain forks, so no module imports it, not even in a function.
POOL_MODULES = ("concurrent.futures", "multiprocessing")


def _imported(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        return [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def pool_imports(source: str) -> list[str]:
    """Imports of ``concurrent.futures`` or ``multiprocessing``, or of a name
    or submodule of either, anywhere in ``source``."""
    return sorted(f"line {node.lineno}: {name}" for node in ast.walk(ast.parse(source))
                  for name in _imported(node)
                  if any(name == m or name.startswith(m + ".") for m in POOL_MODULES))


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "chest").glob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_level_pool_import(path):
    """No import of the pool machinery, at module level or in a function."""
    assert pool_imports(path.read_text()) == []


def test_detects_module_level_pool_imports():
    source = ("import concurrent.futures\n"
              "from concurrent import futures\n"
              "from multiprocessing import Pool\n"
              "from concurrent.futures import ProcessPoolExecutor as P\n"
              "import concurrent, multiprocessing.pool\n"
              "class A:\n"
              "    import multiprocessing\n"
              "def f():\n"
              "    from concurrent.futures import ProcessPoolExecutor\n"
              "from .multiprocessing import x\n")
    assert pool_imports(source) == [
        "line 1: concurrent.futures", "line 2: concurrent.futures",
        "line 3: multiprocessing.Pool", "line 4: concurrent.futures.ProcessPoolExecutor",
        "line 5: multiprocessing.pool", "line 7: multiprocessing",
        "line 9: concurrent.futures.ProcessPoolExecutor"]


def test_every_export_resolves_once():
    names = chest.__all__
    assert len(set(names)) == len(names), "a name is exported twice"
    assert [n for n in names if not hasattr(chest, n)] == []
