"""The names the benchmark's tracer patches exist in td2g.

`bench/tracer.py` wraps td2g functions and methods by module and
attribute name.  A renamed or deleted name would crash a traced
benchmark run; here it fails the test suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("td2g_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
TRACED = tracer.SPANS + tracer.COUNTERS


@pytest.mark.parametrize("name, modname, attr", TRACED, ids=[name for name, _, _ in TRACED])
def test_traced_name_resolves(name, modname, attr):
    importlib.import_module(modname)
    owner, binding, original = tracer._resolve(modname, attr)
    assert callable(original) and getattr(owner, binding) is original
