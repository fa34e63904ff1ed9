"""The benchmark's traced run wraps ``viewflux`` functions by name.

``bench/tracer.py`` lists them in three tables; a name that no longer exists
makes ``Tracer.install`` fail, and only in the traced run.  These tests read
the tables and the benchmark definition, without changing them, and look
every name up in ``viewflux``.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from viewflux import suites

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
BENCHMARK = ROOT / "BENCHMARK.json"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("viewflux_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_are_live_attributes(tracer):
    names = list(tracer.TIMED) + list(tracer.COUNTED)
    assert names
    for mod, attr in names:
        module = importlib.import_module(f"viewflux.{mod}")
        assert callable(getattr(module, attr, None)), f"viewflux.{mod}.{attr}"


def test_counted_methods_are_live_attributes(tracer):
    assert tracer.COUNTED_METHODS
    for mod, cls, method in tracer.COUNTED_METHODS:
        klass = getattr(importlib.import_module(f"viewflux.{mod}"), cls, None)
        assert isinstance(klass, type), f"viewflux.{mod}.{cls}"
        # The class defines the method itself: every class inherits a __repr__.
        assert callable(vars(klass).get(method)), f"viewflux.{mod}.{cls}.{method}"


def test_law_names_match_the_benchmark_per_layer_metrics(tracer):
    # The traced run times each law of SUITES as one per-layer metric; a
    # renamed, merged or added law would fail only there.
    names = tracer._law_names(suites)
    traced = [
        tracer.LAW_PREFIX + names[id(fn)] + "_s"
        for fns in suites.SUITES.values()
        for fn in fns
    ]
    declared = [
        metric["name"]
        for metric in json.loads(BENCHMARK.read_text())["per_layer"]
        if metric["name"].startswith(tracer.LAW_PREFIX)
    ]
    assert len(traced) == len(set(traced)) == 52
    assert sorted(traced) == sorted(declared)
