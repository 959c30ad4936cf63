"""Every per-layer metric of ``BENCHMARK.json`` names a function that exists.

The benchmark's tracer wraps the public functions defined in each layer
module and reads one metric per ``<module>.<function>.<stat>`` name, so a
renamed or deleted function makes a traced run fail on a missing key.
``cli.*`` names are subcommands and ``run.*`` names whole runs, not
functions.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def traced_functions():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    parts = [name.split(".") for name in names]
    return sorted({(p[0], p[1]) for p in parts if len(p) == 3 and p[0] not in ("cli", "run")})


@pytest.mark.parametrize("module, function", traced_functions())
def test_traced_name_is_a_public_function(module, function):
    mod = importlib.import_module(f"cauchylab.{module}")
    obj = getattr(mod, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(obj) and obj.__module__ == mod.__name__, (
        f"BENCHMARK.json traces {module}.{function}, which cauchylab.{module} does not define"
    )
