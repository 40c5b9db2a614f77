"""The benchmark's tracer names layers of the package by module and
attribute; a rename in the package must fail here, not only under
``sectorbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "sectorbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("sectorbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_function_resolves(tracing):
    for name, mod, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"sectorcalc.{mod}"), attr, None)), name


def test_every_traced_method_resolves(tracing):
    for name, mod, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"sectorcalc.{mod}"), cls_name, None)
        assert cls is not None and attr in vars(cls), name


def test_every_layer_metric_names_traced_spans(tracing):
    spans = {f[0] for f in tracing.FUNCTIONS} | {m[0] for m in tracing.METHODS}
    for metric, _, _, group, _, _ in tracing.LAYER_METRICS:
        assert group <= spans, metric
