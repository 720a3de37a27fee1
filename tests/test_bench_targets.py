"""The benchmark's trace harness wraps digitop functions by name; a renamed
or deleted target would only show up as a crash of a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, func) for module, func, *_ in spans.TARGETS]


@pytest.mark.parametrize("module,func", _targets())
def test_trace_target_exists(module, func):
    assert callable(getattr(importlib.import_module(f"digitop.{module}"), func, None))
