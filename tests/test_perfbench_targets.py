"""The benchmark's tracer wraps library functions by name, and its workloads
call the library directly; renaming or deleting either would otherwise only
fail when a benchmark run starts."""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, *_ in tracer.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_tracer_target_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def _perfbench():
    # perfbench's modules import each other by bare name, as run.py does.
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("checks")


@pytest.mark.parametrize("name", ["train-depth-k4", "train-chains-k16", "eval-ancestors-k4"])
def test_workload_runs_one_op(name, tmp_path):
    # The benchmark's calls into the library (set-up, checkpoint, one op and
    # the isolation check) work, so deleting one fails here first.
    workloads, checks = _perfbench()
    wl = workloads.WORKLOADS[name]
    state = wl.setup(wl.generate(0), 0, tmp_path)
    count, value = wl.op(state)
    assert count > 0 and math.isfinite(value)
    assert checks.batch_isolation(*wl.isolation_case(state)) is None
