"""The benchmark's own checks, run once per workload: a renamed public
name or a wrong value must fail here, not only under ``sectorbench/run.py``."""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "sectorbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("sectorbench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", ["calculus-grid", "orbit-pairing", "boundary-scalar"])
def test_every_check_passes_on_one_pass(workloads, name):
    w = workloads.build(name, 0)
    for op in w.ops:  # stored as they come: later operations read earlier results
        w.warm[op.name] = op.fn()
    errors = workloads.evaluate_checks(w.checks, w.warm)
    assert set(errors) == {c.name for c in w.checks}
    assert not {c: err for c, (err, ok) in errors.items() if not ok}


def test_self_test_rejects_every_wrong_result(workloads):
    cases = workloads.self_test()
    assert cases and all(passed for _, _, passed in cases), cases
