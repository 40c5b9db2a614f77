"""The benchmark's tracer names layers of the package by module and
attribute, and each workload must call every layer it reports on; a
rename in the package, or a layer a workload no longer reaches, must fail
here, not only under ``sectorbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "sectorbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"sectorbench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


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


@pytest.mark.parametrize("name", ["calculus-grid", "orbit-pairing", "boundary-scalar"])
def test_every_workload_reaches_the_layers_it_reports(tracing, workloads, name):
    # as the traced benchmark run does: one warm pass, then one traced pass
    w = workloads.build(name, 0)
    for op in w.ops:  # stored as they come: later operations read earlier results
        w.warm[op.name] = op.fn()
    tracer = tracing.Tracer(extra_modules=(workloads,))
    tracer.install()
    try:
        for op in w.ops:
            tracer.record(f"op:{op.name}", op.fn)
    finally:
        tracer.uninstall()
    _, observed = tracing.layer_metrics(tracer.spans, 0, len(tracer.spans))
    tracing.assert_observed(name, observed)
