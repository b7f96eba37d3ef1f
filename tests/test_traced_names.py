"""Every function the benchmark traces still exists in biximp.

perfbench/run.py names the traced functions in its TRACED table; a name
that no longer resolves is reported only as `trace.absent` in a traced
benchmark run.  This test reads the table from the file, without
importing or running the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def traced_names():
    """The first element of every TRACED entry in perfbench/run.py."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return [name for name, _ in ast.literal_eval(node.value)]
    raise AssertionError("no TRACED table in perfbench/run.py")


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves(name):
    """<module>.<function> or <module>.<Class>[.<method>] is a callable of biximp."""
    module, *path = name.split(".")
    obj = importlib.import_module(f"biximp.{module}")
    for attr in path:
        obj = getattr(obj, attr)
    assert callable(obj)
