"""Every imported name is used: a walk over the syntax trees of the package,
the tests and the benchmark harness, in place of a linter. ``from
__future__`` imports and the package's re-exports in ``qcflow/__init__.py``
are exempt. Every public function and every module-level name (constants,
private ones included) of the package is read by the package or
re-exported, so no public wrapper or constant is kept for the tests
alone."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "qcflow").glob("*.py")) + \
    sorted((ROOT / "tests").glob("*.py")) + \
    sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source):
    """(line, name) of every name an import binds that the module never
    reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).partition(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("path", [p for p in FILES if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_walk():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from a import b, c as d\n"
              "def f():\n    return np.pi + os.sep + d\n")
    assert unused_imports(source) == [(4, "b")]


def unread_names(sources):
    """(module, name) of every public top-level function and every name a
    module-level assignment binds in the modules ``sources`` (module name
    -> source) that none of them reads, by name or as an attribute, and
    that ``__init__`` does not re-export."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined += [(module, n.id) for t in targets
                            for n in ast.walk(t)
                            if isinstance(n, ast.Name)
                            and isinstance(n.ctx, ast.Store)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and module == "__init__":
                read.update(a.name for a in node.names)
    return [(module, name) for module, name in defined if name not in read]


def test_every_public_function_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in (ROOT / "src" / "qcflow").glob("*.py")}
    assert unread_names(sources) == []


def test_unread_function_walk():
    sources = {
        "__init__": "from .a import f\n",
        "a": "_SLACK = 1e-9\n_LIMIT: int = 3\nX, _Y = 1, 2\n_T = {}\n"
             "_T['key'] = 0\n"
             "def f():\n    pass\ndef g():\n    return _Y\n"
             "def _h():\n    pass\ndef k():\n    return g()\n",
        "b": "import a\ndef m():\n    return a.k, a._LIMIT\n"
             "def n():\n    pass\n",
    }
    assert unread_names(sources) == [("a", "_SLACK"), ("a", "X"),
                                     ("b", "m"), ("b", "n")]


def import_time_modules(source):
    """(line, module) of every import statement that runs when the module is
    imported: top-level and class-body statements, not function bodies."""
    found = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "qcflow").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_scipy_import_at_module_level(path):
    # ``qcflow.flow`` imports SciPy at the first Newton system, so commands
    # that build none (estimate-mu, compose-mu, compare, check) run on NumPy
    # alone
    found = import_time_modules(path.read_text(encoding="utf-8"))
    assert [(line, name) for line, name in found
            if name.partition(".")[0] == "scipy"] == []


def test_import_time_walk():
    source = ("import scipy.sparse as sp\nfrom scipy import linalg\n"
              "from . import flow\ntry:\n    import os\nexcept ImportError:\n"
              "    pass\nclass A:\n    import scipy.fft\n"
              "def f():\n    import scipy.signal\n")
    assert import_time_modules(source) == [
        (1, "scipy.sparse"), (2, "scipy"), (5, "os"), (9, "scipy.fft")]
