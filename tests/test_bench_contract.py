"""The benchmark's tracer wraps qcflow functions by name from outside the
program (``perfbench/spans.py``). Every name it wraps must still resolve, so
that a rename or deletion in ``qcflow`` fails here and not only in the slow
``python3 -m pytest perfbench`` run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _tracer_calls():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, name) for module, names in spans._CALLS.items()
            for name in names]


@pytest.mark.parametrize("module, name", _tracer_calls(),
                         ids=lambda x: x)
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"qcflow.{module}"),
                            name, None))


def test_traced_linalg_resolves():
    assert hasattr(importlib.import_module("qcflow.flow"), "spla")
