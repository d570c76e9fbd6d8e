"""Span tracing of qcflow from outside the program.

The tracer replaces module attributes with timing wrappers while it is
installed and puts the originals back when it is removed. A wrapper must sit
on the namespace where the caller looks the name up: ``qcflow.cli`` imports
``load_obj`` with ``from .mesh import``, so the CLI's calls go through
``qcflow.cli.load_obj`` and a wrapper on ``qcflow.mesh.load_obj`` alone
would miss them. Spans stay in memory, each with its parent's id, until
:meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter

# module -> attribute -> span name. The span name is the layer and public
# function the call lands in; ``pipeline.pre_swap`` is the edge swap the
# pipeline makes before the flow, ``flow.edge_swap`` the one inside it.
_CALLS = {
    "cli": {
        "main": "cli.main",
        "load_obj": "mesh.load_obj",
        "save_obj": "mesh.save_obj",
        "cmd_flatten": "pipeline.cmd_flatten",
        "cmd_qcmap": "pipeline.cmd_qcmap",
        "cmd_estimate_mu": "pipeline.cmd_estimate_mu",
        "cmd_compose": "pipeline.cmd_compose",
        "cmd_compare": "pipeline.cmd_compare",
        "csv_text": "pipeline.csv_text",
        "field_from_json": "beltrami.field_from_json",
        "field_to_json": "beltrami.field_to_json",
    },
    "pipeline": {
        "cmd_flatten": "pipeline.cmd_flatten",
        "target_curvature": "pipeline.target_curvature",
        "normalize_rectangle": "pipeline.normalize_rectangle",
        "run_flow": "flow.run_flow",
        "edge_swap": "pipeline.pre_swap",
        "layout_euclidean": "embed.layout_euclidean",
        "layout_hyperbolic": "embed.layout_hyperbolic",
        "torus_periods": "embed.torus_periods",
        "cut_to_disk": "mesh.cut_to_disk",
        "slice_along_edges": "mesh.slice_along_edges",
        "auxiliary_metric": "beltrami.auxiliary_metric",
        "estimate_beltrami": "beltrami.estimate_beltrami",
        "compose_beltrami": "beltrami.compose_beltrami",
        "map_distance": "beltrami.map_distance",
        "induced_metric": "metric.induced_metric",
        "check_triangle_inequality": "metric.check_triangle_inequality",
        "corner_angles": "metric.corner_angles",
    },
    "flow": {
        "assemble_hessian": "flow.assemble_hessian",
        "newton_step": "flow.newton_step",
        "edge_swap": "flow.edge_swap",
        "build_mesh": "mesh.build_mesh",
        "check_triangle_inequality": "metric.check_triangle_inequality",
        "corner_angles": "metric.corner_angles",
        "deform_metric": "metric.deform_metric",
    },
    "mesh": {
        "build_mesh": "mesh.build_mesh",
        "slice_along_edges": "mesh.slice_along_edges",
    },
    "embed": {
        "check_triangle_inequality": "metric.check_triangle_inequality",
        "corner_angles": "metric.corner_angles",
    },
}


class _CountingLinalg:
    """Stands in for ``scipy.sparse.linalg`` inside ``qcflow.flow`` and
    counts conjugate-gradient iterations through the ``cg`` callback."""

    def __init__(self, linalg, counts):
        self._linalg = linalg
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._linalg, name)

    def cg(self, *args, callback=None, **kwargs):
        def count(xk):
            self._counts["flow.cg_iters"] += 1
            if callback is not None:
                callback(xk)
        return self._linalg.cg(*args, callback=count, **kwargs)


class Tracer:
    """Records ``[id, parent, name, start, end, error]`` spans and counters
    for every call made through the wrapped names."""

    def __init__(self, qcflow_modules):
        self.modules = qcflow_modules
        self.spans = []
        self.counts = Counter()
        self.first = {}  # span name -> duration of its first call in the process
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(self.spans), self._stack[-1] if self._stack else -1,
                   name, time.perf_counter(), 0.0, None]
            self.spans.append(rec)
            self._stack.append(rec[0])
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                rec[5] = type(e).__name__
                raise
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()
                self.first.setdefault(name, rec[4] - rec[3])
                if hook is not None:
                    hook(self.counts, args, result, exc)
        return wrapper

    def install(self):
        for mod_name, names in _CALLS.items():
            mod = self.modules[mod_name]
            for attr, span in names.items():
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(span, fn))
        flow = self.modules["flow"]
        self._saved.append((flow, "spla", flow.spla))
        flow.spla = _CountingLinalg(flow.spla, self.counts)

    def remove(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "error"],
                       "spans": self.spans, "counts": self.counts}, fh)


def _file_mb(path):
    return os.path.getsize(path) / 1e6


def _on_load(counts, args, result, exc):
    counts["mesh.read_mb"] += _file_mb(args[0])


def _on_save(counts, args, result, exc):
    if exc is None:
        counts["mesh.write_mb"] += _file_mb(args[1])


def _on_flow(counts, args, result, exc):
    report = result.report if exc is None else getattr(exc, "report", None)
    if report is not None:
        counts["flow.newton_iters"] += report.iterations
        counts["flow.halvings"] += report.halvings


def _swap_counter(prefix):
    def hook(counts, args, result, exc):
        counts[prefix + ".ok"] += exc is None
    return hook


_HOOKS = {
    "mesh.load_obj": _on_load,
    "mesh.save_obj": _on_save,
    "flow.run_flow": _on_flow,
    "flow.edge_swap": _swap_counter("flow.edge_swap"),
    "pipeline.pre_swap": _swap_counter("pipeline.pre_swap"),
}


def layer_metrics(spans, counts, first, passes):
    """Per-pass busy time ``.s``, call count ``.calls`` and self time
    ``.self_s`` of every span name, plus the counters."""
    busy, calls, child = Counter(), Counter(), Counter()
    for sid, parent, name, start, end, _ in spans:
        busy[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[spans[parent][2]] += end - start
    out = {}
    for name in busy:
        out[name + ".s"] = busy[name] / passes
        out[name + ".calls"] = calls[name] / passes
        out[name + ".self_s"] = (busy[name] - child[name]) / passes
    for name, value in counts.items():
        out[name] = value / passes
    out["flow.newton_step.first_s"] = first.get("flow.newton_step", 0.0)
    return out
