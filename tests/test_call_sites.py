"""One build path for halfedge meshes: a walk over the syntax trees of the
package. Every :class:`~qcflow.mesh.HalfedgeMesh` is constructed by
``mesh.build_mesh``, which searches for the twin pairing and checks the mesh
is manifold, and nothing in the package calls ``dataclasses.replace``, the
one other way to make a mesh: surgery flips edges on the mesh's arrays and
builds the result through ``build_mesh``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qcflow"

# callee -> the functions of the package that may call it
ALLOWED = {
    "qcflow.mesh.HalfedgeMesh": {"mesh.build_mesh"},
    "dataclasses.replace": set(),
}


def call_sites(source, module):
    """(callee, enclosing scope) of every call whose callee resolves through
    the module's imports or top-level definitions to a dotted name; scopes
    read ``module.function``, nested ones ``module.outer.inner``."""
    tree = ast.parse(source)
    names = {node.name: f"qcflow.{module}.{node.name}" for node in tree.body
             if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.partition(".")[0]
                names[a.asname or top] = a.name if a.asname else top
        elif isinstance(node, ast.ImportFrom):
            base = node.module if node.level == 0 else \
                ".".join(["qcflow"] + ([node.module] if node.module else []))
            for a in node.names:
                names[a.asname or a.name] = f"{base}.{a.name}"

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return names.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = resolve(expr.value)
            return owner and f"{owner}.{expr.attr}"
        return None

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                callee = resolve(child.func)
                if callee:
                    found.append((callee, scope))
            visit(child, inner)

    visit(tree, module)
    return found


@pytest.mark.parametrize("callee", sorted(ALLOWED))
def test_only_one_function_calls(callee):
    scopes = {scope for path in sorted(SRC.glob("*.py"))
              for name, scope in call_sites(path.read_text(encoding="utf-8"),
                                            path.stem)
              if name == callee}
    assert scopes == ALLOWED[callee]


def test_call_site_walk():
    source = ("import os\nimport dataclasses as dc\n"
              "from dataclasses import replace as swap\n"
              "from .mesh import HalfedgeMesh\nfrom . import mesh\n"
              "class Box:\n    pass\n"
              "def f(x):\n    os.replace(x, x)\n    x.replace()\n"
              "    HalfedgeMesh.prev(x)\n    return dc.replace(x)\n"
              "def g(x):\n    def h():\n        return swap(x)\n"
              "    return mesh.HalfedgeMesh(Box(), h())\n")
    assert sorted(call_sites(source, "m")) == [
        ("dataclasses.replace", "m.f"),
        ("dataclasses.replace", "m.g.h"),
        ("os.replace", "m.f"),
        ("qcflow.m.Box", "m.g"),
        ("qcflow.mesh.HalfedgeMesh", "m.g"),
        ("qcflow.mesh.HalfedgeMesh.prev", "m.f"),
    ]
