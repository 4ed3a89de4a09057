"""Static checks on the source tree: no module or test file imports a name it
never uses, no module rebinds a module-level name from a function, no module forms
a dense Kronecker product or identity outside the two checks that need one or turns
path geometry into responses outside the two places that own it, no sweep builds an
environment outside the per-process builder that owns it, no module imports
the process-pool machinery, no function writes ``out=`` into an array it was
handed, the package defines nothing it never references, bar three names kept for
a stated reason, it exports only names it has, each once, the sweep table
holds plain data, no reducer, and no line of the package or its tests runs past
99 characters."""
import ast
from functools import partial
from pathlib import Path

import pytest

import chest
from chest.experiments import SWEEPS

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


# A sweep keeps the environments a process builds in its own closure, so no
# module keeps any.
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
RESPONSES = ("steering_matrix", "frequency_response", "build_environment")


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
    """``np.kron`` and ``np.eye``, and every reference to ``steering_matrix``,
    ``frequency_response`` or ``build_environment``, in ``source``, each with
    its innermost enclosing function, or ``<module>``."""
    tree = ast.parse(source)
    owner = _owners(tree)
    return sorted(f"line {node.lineno}: {owner.get(node, '<module>')}: {name}"
                  for node in ast.walk(tree) if (name := _dense_name(node)))


# The library forms no dense Kronecker product or identity: the vectorization
# check holds a small pair against np.kron, and the orthonormality check
# compares a basis's Gram matrix with the identity.  Path geometry becomes
# steering and frequency responses in two places: the sweeps' environment,
# and the fixed small instances of chest validate.  Every other function takes
# responses.  A sweep builds its environments only in the per-process builder
# of _sweep, ``environment``, where each forked worker builds those of its own
# tasks.  A build anywhere else in a sweep would run in the parent of a pooled
# run, whose peak would then hold the linear-algebra and FFT code pages the
# build touches (3.2 MB on the desk config) for an environment it never reads.
# chest validate builds the environments its checks take directly.
DENSE_ALLOWED = {"validate.py": {("check_vec_kron", "np.kron"),
                                 ("_small_responses", "steering_matrix"),
                                 ("_small_responses", "frequency_response"),
                                 ("_chunk_bases", "build_environment"),
                                 ("check_noise_calibration", "build_environment")},
                 "subspaces.py": {("_check_orthonormal", "np.eye")},
                 "experiments.py": {("build_environment", "steering_matrix"),
                                    ("build_environment", "frequency_response"),
                                    ("environment", "build_environment")}}


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
              "    return steering_matrix(p, 4, 0.5), propagation.frequency_response\n"
              "def h(bundle):\n"
              "    return experiments.build_environment(bundle)\n")
    assert dense_builders(source) == ["line 2: <module>: np.kron", "line 4: f: np.eye",
                                      "line 6: g: np.kron", "line 7: g: frequency_response",
                                      "line 7: g: steering_matrix",
                                      "line 9: h: build_environment"]


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


def _is_parameter_view(node: ast.AST, params: set[str]) -> bool:
    """Whether ``node`` is one of ``params``, an attribute or subscript of one
    (``x.real``, ``x[...]``), or a conditional or tuple that holds one."""
    if isinstance(node, ast.Name):
        return node.id in params
    if isinstance(node, (ast.Attribute, ast.Subscript)):
        return _is_parameter_view(node.value, params)
    if isinstance(node, ast.IfExp):
        return any(_is_parameter_view(n, params) for n in (node.body, node.orelse))
    if isinstance(node, ast.Tuple):
        return any(_is_parameter_view(n, params) for n in node.elts)
    return False


def parameter_writes(source: str) -> list[str]:
    """Calls in ``source`` that pass ``out=`` a parameter of their innermost
    enclosing function or a view of one, each with that function's name."""
    found = []

    def visit(node: ast.AST, func: str, params: set[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [p for p in (a.vararg, a.kwarg) if p]}
            func = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Call):
            found.extend((node.lineno, func) for kw in node.keywords
                         if kw.arg == "out" and _is_parameter_view(kw.value, params))
        for child in ast.iter_child_nodes(node):
            visit(child, func, params)
    visit(ast.parse(source), "<module>", set())
    return [f"line {line}: {func}" for line, func in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_writes_into_parameters(path):
    """No function writes its results into an array it was handed: a caller
    never has to hand over an array, or know which of its arrays a call
    spends."""
    assert parameter_writes(path.read_text()) == []


def test_detects_writes_into_parameters():
    source = ("def f(x, y, *rest, z=None, **kw):\n"
              "    e = np.abs(x)\n"
              "    np.square(e, out=e)\n"
              "    np.conjugate(x, out=x)\n"
              "    np.multiply(x.real, y.real, out=x.real if z else None)\n"
              "    np.add(x, y, out=y[..., 0])\n"
              "    np.add(x, y, out=(rest[0].imag,))\n"
              "    def g(w):\n"
              "        np.negative(w, out=w)\n"
              "        np.negative(x, out=x)\n"
              "    np.sqrt(e, out=kw['buf'])\n"
              "np.exp(v, out=v)\n")
    assert parameter_writes(source) == ["line 4: f", "line 5: f", "line 6: f", "line 7: f",
                                        "line 9: g", "line 11: f"]


def _definitions(module: str, tree: ast.Module):
    """``(qualified name, node)`` of the top-level functions and classes of
    ``tree``, and of the methods of its classes bar dunders, which Python
    calls itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{module}.{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (m.name.startswith("__") and m.name.endswith("__")))


def unreferenced(sources: dict[str, str]) -> list[str]:
    """The definitions (:func:`_definitions`) of the modules ``sources``, by
    module name, whose name no ``ast.Name`` or ``ast.Attribute`` of any of them
    reads outside the definition itself; an import does not count."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(node)
    found = []
    for module, tree in trees.items():
        for qualname, definition in _definitions(module, tree):
            inside = set(ast.walk(definition))
            if all(node in inside for node in refs.get(definition.name, [])):
                found.append(qualname)
    return sorted(found)


# Definitions the package never references, each kept for its reason.
UNREFERENCED_ALLOWED = {
    "streams._SeedState.generate_state": "numpy calls it to seed PCG64 from the state",
    "propagation.save_paths_csv": "the README documents it as a library entry point",
    "experiments.measure_projection_floor": "the README documents it as a library "
                                            "entry point",
}


def test_every_definition_is_referenced():
    """A function, class or method that nothing in the package calls is a
    test-only helper or dead code: it belongs in the tests or nowhere."""
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unreferenced(sources) == sorted(UNREFERENCED_ALLOWED)


def test_detects_unreferenced_definitions():
    sources = {"a": ("def lone():\n"
                     "    return lone()\n"
                     "def called():\n"
                     "    return 1\n"
                     "class Box:\n"
                     "    def __init__(self):\n"
                     "        self.size = 0\n"
                     "    def grow(self):\n"
                     "        return self.shrink()\n"
                     "    def shrink(self):\n"
                     "        return 0\n"
                     "    def spare(self):\n"
                     "        return Box\n"),
               "b": ("from a import called, lone\n"
                     "def run(box):\n"
                     "    box.grow()\n"
                     "    return called()\n")}
    assert unreferenced(sources) == ["a.Box", "a.Box.spare", "a.lone", "b.run"]


def test_every_export_resolves_once():
    names = chest.__all__
    assert len(set(names)) == len(names), "a name is exported twice"
    assert [n for n in names if not hasattr(chest, n)] == []


def plain_data(value) -> bool:
    """Whether ``value`` is a string, a number or a bool, or a tuple or
    frozenset of plain data: nothing that can be called."""
    if isinstance(value, (tuple, frozenset)):
        return all(plain_data(v) for v in value)
    return isinstance(value, (str, int, float, bool))


@pytest.mark.parametrize("kind", SWEEPS)
def test_sweep_entries_are_plain_data(kind):
    """Each sweep kind names the outputs it keeps and the one reducer picks
    its work from them, so no entry holds a reducer or any other callable."""
    entry = SWEEPS[kind]
    assert [f for f in entry._fields if not plain_data(getattr(entry, f))] == []


def test_detects_non_plain_data():
    assert plain_data(("ls", (1, 2.5), frozenset({"rate"}), True))
    assert not any(plain_data(v) for v in (len, partial(len), ("ls", len),
                                           frozenset({len}), lambda: 0, None, [1]))


# Longest line, in characters, of any file in src/chest/ or tests/.
MAX_LINE = 99


def long_lines(source: str) -> list[str]:
    """The lines of ``source`` longer than ``MAX_LINE``, with their lengths."""
    return [f"line {i}: {len(line)} characters"
            for i, line in enumerate(source.splitlines(), 1) if len(line) > MAX_LINE]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "chest").glob("*.py")) + TESTS,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_long_lines(path):
    assert long_lines(path.read_text()) == []


def test_detects_long_lines():
    source = "a = 1\n" + "#" * MAX_LINE + "\n" + "b" * (MAX_LINE + 1) + "\n"
    assert long_lines(source) == [f"line 3: {MAX_LINE + 1} characters"]
