"""Every (module, function) the benchmark's tracer wraps names a library function.

bench/tracing.py is read with ast, not imported, so none of the benchmark's
code runs here.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


def traced_names() -> tuple[tuple[str, str], ...]:
    for node in ast.parse(TRACING.read_text()).body:
        if [getattr(t, "id", None) for t in getattr(node, "targets", ())] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{TRACING} assigns no TRACED")


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_name_resolves(module, name):
    obj = importlib.import_module(f"mtqsim.{module}")
    for part in name.split("."):  # Class.method is read through the class
        obj = getattr(obj, part)
    assert callable(obj)
