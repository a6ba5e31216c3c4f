"""The spincat names the benchmark's traced run reads must exist.

`perfbench/run.py` looks its per-layer metrics up by span name and
`perfbench/tracer.py` wraps a fixed list of methods, so a renamed or deleted
function there fails `--trace 1` with a KeyError.  Both files are loaded by
path and only read.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
tracer = _load("tracer")
METHOD_SPANS = {span for *_, span in tracer.METHODS}
FUNCTION_SPANS = sorted({span for span, _, _ in run.SPAN_METRICS.values()} - METHOD_SPANS | set(tracer.HOOKS))


@pytest.mark.parametrize("span", FUNCTION_SPANS)
def test_span_names_a_public_layer_function(span):
    # The tracer wraps exactly the public functions each layer module defines.
    layer, attr = span.split(".", 1)
    assert layer in tracer.LAYERS
    module = importlib.import_module(f"spincat.{layer}")
    obj = getattr(module, attr, None)
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_")


@pytest.mark.parametrize("layer,cls,attr,span", tracer.METHODS)
def test_traced_method_exists(layer, cls, attr, span):
    owner = getattr(importlib.import_module(f"spincat.{layer}"), cls)
    assert inspect.isfunction(owner.__dict__.get(attr))
    assert span.startswith(f"{layer}.{cls}.")
