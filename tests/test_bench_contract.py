"""The benchmark's tracer wraps qcflow functions by name from outside the
program (``perfbench/spans.py``). Every name it wraps must still resolve, so
that a rename or deletion in ``qcflow`` fails here and not only in the slow
``python3 -m pytest perfbench`` run, and the edge swaps it counts must all
go through the names it wraps."""

import ast
import functools
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import meshes
import qcflow.flow as flow_module
import qcflow.pipeline as pipeline_module
import sequential
from qcflow.errors import FlowError
from qcflow.flow import FlowOptions, run_flow
from qcflow.metric import Geometry, induced_metric
from qcflow.pipeline import PresetKind, TargetPreset, cmd_flatten, cmd_qcmap

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _tracer_spans():
    return [(module, name, span)
            for module, names in _load_spans()._CALLS.items()
            for name, span in names.items()]


def _tracer_calls():
    return [(module, name) for module, name, _ in _tracer_spans()]


@pytest.mark.parametrize("module, name", _tracer_calls(),
                         ids=lambda x: x)
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"qcflow.{module}"),
                            name, None))


@pytest.mark.parametrize("module, name, span", _tracer_spans(),
                         ids=lambda x: x)
def test_traced_name_is_home_object(module, name, span):
    # a wrapped name a module imports must be the object its home module
    # defines (``qcflow.flow.build_mesh is qcflow.mesh.build_mesh``), so that
    # the span named after the home measures the real function. A span named
    # after a use (``pipeline.pre_swap``) takes the home the object records.
    obj = getattr(importlib.import_module(f"qcflow.{module}"), name)
    layer, _, func = span.partition(".")
    home = importlib.import_module(f"qcflow.{layer}")
    if not hasattr(home, func):
        home, func = importlib.import_module(obj.__module__), obj.__name__
    assert getattr(home, func) is obj


def test_traced_linalg_resolves():
    assert hasattr(importlib.import_module("qcflow.flow"), "spla")


def test_flow_linalg_goes_through_spla():
    # the tracer counts CG iterations by replacing ``qcflow.flow.spla`` with
    # a counting stand-in, so ``flow.py`` must reach ``splu`` and ``cg`` only
    # as ``spla.<name>``: a bare or differently qualified name bypasses it
    names = {"splu", "cg"}
    path = Path(importlib.import_module("qcflow.flow").__file__)
    seen = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not names & {alias.name.rpartition(".")[2]
                                for alias in node.names}
        elif isinstance(node, ast.Name):
            assert node.id not in names, f"bare {node.id} at line {node.lineno}"
        elif isinstance(node, ast.Attribute) and node.attr in names:
            assert isinstance(node.value, ast.Name), node.lineno
            assert node.value.id == "spla", node.lineno
            seen.add(node.attr)
    assert seen == names


@pytest.mark.parametrize("max_iterations", [50, 1],
                         ids=["converged", "flow-error"])
def test_flow_hook_reads_report_counts(max_iterations):
    # the tracer's ``flow.run_flow`` hook adds the report's iteration and
    # halving counts, from the result of a converged flow or from the
    # report a FlowError carries
    mesh = meshes.grid_mesh(7, 5, w=30.0, h=1.0)
    target = np.zeros(mesh.n_vertices)
    target[2 * 7 + 3] = -5.5
    for c in meshes.grid_corners(7, 5):
        target[c] = np.pi / 2 + 5.5 / 4
    args = (mesh, induced_metric(mesh), target, Geometry.EUCLIDEAN,
            FlowOptions(max_iterations=max_iterations))
    result = exc = None
    try:
        result = run_flow(*args)
        report = result.report
    except FlowError as err:
        exc, report = err, err.report
    assert (exc is None) == (max_iterations == 50)
    counts = Counter()
    _load_spans()._HOOKS["flow.run_flow"](counts, args, result, exc)
    assert report.halvings > 0
    assert counts["flow.newton_iters"] == report.iterations
    assert counts["flow.halvings"] == report.halvings


def _count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls.append(args[-1])
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_pre_flow_swaps_go_through_traced_name(monkeypatch):
    # ``pipeline.pre_swap`` counts the calls of ``qcflow.pipeline.edge_swap``:
    # a qcmap run must attempt each pre-flow swap through it, as many as the
    # sequential surgery loop attempts on the same chart
    mesh = meshes.grid_mesh(33, 33, bump=0.3)
    preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(33, 33))
    x, y = mesh.positions[:, 0], mesh.positions[:, 1]
    mu = 0.85 * np.sin(np.pi * x) * np.sin(np.pi * y) * np.exp(2j * np.pi * x)
    traced = _count_calls(monkeypatch, pipeline_module, "edge_swap")
    cmd_qcmap(mesh, mu, Geometry.EUCLIDEAN, preset)
    chart = cmd_flatten(mesh, Geometry.EUCLIDEAN, preset).param.coords
    oracle = _count_calls(monkeypatch, sequential, "edge_swap")
    sequential._aux_metric_with_surgery(mesh, induced_metric(mesh),
                                        chart[mesh.faces], mu)
    assert len(traced) == len(oracle) > 30


def test_flow_swaps_go_through_traced_name(monkeypatch):
    # ``flow.edge_swap`` counts the calls of ``qcflow.flow.edge_swap``: the
    # in-flow surgery must attempt each swap through it, as many as the
    # sequential loop attempts
    mesh = meshes.grid_mesh(7, 5, w=30.0, h=1.0)
    target = np.zeros(mesh.n_vertices)
    target[2 * 7 + 3] = -5.5
    for c in meshes.grid_corners(7, 5):
        target[c] = np.pi / 2 + 5.5 / 4
    args = (mesh, induced_metric(mesh), target, Geometry.EUCLIDEAN,
            FlowOptions(max_iterations=120))
    traced = _count_calls(monkeypatch, flow_module, "edge_swap")
    swaps = run_flow(*args).report.swaps
    oracle = _count_calls(monkeypatch, sequential, "edge_swap")
    assert sequential.run_flow(*args).report.swaps == swaps > 0
    assert len(traced) == len(oracle) >= swaps
