"""The benchmark's trace harness wraps digitop functions by name; a renamed
or deleted target would only show up as a crash of a traced run, and so
would a counter that reads a complex it no longer understands."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from digitop.adjacency import AdjacencyPair, axis_adjacency, full_adjacency
from digitop.simplicial import build_complex, reduce_complex

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _targets():
    return [(module, func) for module, func, *_ in _spans().TARGETS]


@pytest.mark.parametrize("module,func", _targets())
def test_trace_target_exists(module, func):
    assert callable(getattr(importlib.import_module(f"digitop.{module}"), func, None))


def test_complex_counters_read_a_built_complex():
    # three corners of a unit square: K cones the two edges at the square's
    # center, which K' drops (its background is one corner)
    m = {(0, 0), (1, 0), (1, 1)}
    pair = AdjacencyPair(full_adjacency(2), axis_adjacency(2))
    k = build_complex(m, pair)
    reduced = reduce_complex(k, m, pair)
    spans = _spans()
    assert (len(k), len(reduced)) == (19, 9)
    assert spans._length((m, pair), k) == (19,)
    assert spans._removed((k, m, pair), reduced) == (10,)
    assert spans._pairs((reduced,), (True, None)) == (36,)
    assert spans._top_simplices((k, 2), None) == (4,)
    assert spans._top_simplices((reduced, 1), None) == (4,)
