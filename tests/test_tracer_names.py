"""The names the benchmark tracer wraps still exist in multlab.

``bench/tracer.py`` wraps each ``(module, function)`` of its ``TRACED``
list by name, and reads some arguments by parameter name; a rename or a
deletion in multlab would otherwise show only in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
)
tracer = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def test_every_traced_function_exists_in_multlab():
    missing = [
        f"multlab.{module}.{function}"
        for module, function, _ in tracer.TRACED
        if not callable(getattr(importlib.import_module(f"multlab.{module}"), function, None))
    ]
    assert missing == []


def test_every_counted_argument_is_a_parameter_of_its_traced_function():
    for module, function, layer in tracer.TRACED:
        if layer in tracer.ELEMS_ARG:
            fn = getattr(importlib.import_module(f"multlab.{module}"), function)
            assert tracer.ELEMS_ARG[layer] in inspect.signature(fn).parameters, layer
