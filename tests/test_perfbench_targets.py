"""The benchmark's tracer wraps library functions by name; renaming one
would otherwise only fail when a traced benchmark run starts."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
