"""Run-time spans around the public functions of each digitop module.

``Tracer.install`` replaces each target function by a wrapper in *every*
``digitop`` module namespace that holds it, so calls through names imported
with ``from .x import f`` are caught as well as calls inside the defining
module.  ``Tracer.remove`` puts the originals back.  Spans stay in memory
until ``Tracer.reset`` clears them before the next traced pass.

A span is ``(id, parent, job, name, start, end, post, counts)`` in
nanoseconds; ``post`` is taken after the wrapper's own counting, so a
parent's self time (its duration minus the ``start..post`` intervals of its
children) does not include the counting done for its children.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from collections import defaultdict


def _len_labels(args, result):
    return (len(result.labels),)


def _length(args, result):
    return (len(result),)


def _removed(args, result):
    return (len(args[0]) - len(result),)


def _pairs(args, result):
    return (len(args[0]) * (len(args[0]) - 1) // 2,)


def _top_simplices(args, result):
    return (sum(1 for s in args[0].simplices if len(s) == args[1] + 1),)


def _hit(args, result):
    return (int(result),)


def _file_bytes(args, result):
    return (os.stat(args[0]).st_size,)


# (module, function, span name, counter names, counter function); the counters
# of simplicial.bary come from Tracer._bary_counts
TARGETS = (
    ("adjacency", "components", "adjacency.components", ("points",), _len_labels),
    ("adjacency", "complement_components", "adjacency.complement", ("cells",), _len_labels),
    ("adjacency", "n_simply_connected_bounded", "adjacency.contract", (), None),
    ("lattice", "cubes_meeting_box", "lattice.cubes", ("count",), _length),
    ("lattice", "subcubes", "lattice.subcubes", (), None),
    ("lattice", "completing_translations", "lattice.translations", (), None),
    ("lattice", "barycenter", "lattice.barycenter", (), None),
    ("manifold", "check_manifold", "manifold.check", (), None),
    ("manifold", "is_simple_point", "manifold.simple", (), None),
    ("manifold", "local_components", "manifold.local", (), None),
    ("manifold", "is_good_pair", "manifold.goodpair", (), None),
    ("separation", "has_separation_property", "separation.scan", (), None),
    ("separation", "not_separated_in_cube", "separation.cube", (), None),
    ("jordan", "jordan_check", "jordan", (), None),
    ("simplicial", "build_complex", "simplicial.build", ("simplices",), _length),
    ("simplicial", "barycenter_test", "simplicial.bary", ("passed", "distinct"), None),
    ("simplicial", "reduce_complex", "simplicial.reduce", ("removed",), _removed),
    ("simplicial", "euler_characteristic", "simplicial.euler", (), None),
    ("simplicial", "complex_to_json", "simplicial.json", (), None),
    ("simplicial", "verify_complex_axioms", "simplicial.axioms", ("pairs",), _pairs),
    ("simplicial", "lattice_correspondence", "simplicial.correspondence", (), None),
    ("pseudomanifold", "is_pseudomanifold", "pseudomanifold", ("top_simplices",), _top_simplices),
    ("_exact", "open_simplices_intersect", "exact.lp", ("hits",), _hit),
    ("_exact", "integer_rank", "exact.rank", (), None),
    ("_exact", "point_in_closed_simplex", "exact.point_in", (), None),
    ("fileio", "load_points", "fileio.load", ("bytes",), _file_bytes),
    ("fileio", "parse_adjacency_arg", "fileio.adjacency", (), None),
    ("cli", "main", "cli", (), None),
)

COUNTERS = {name: counters for _, _, name, counters, _ in TARGETS}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.job = 0
        self._stack = [0]
        self._ids = itertools.count(1)
        self._tested: set = set()
        self._patches: list[tuple] = []

    def _bary_counts(self, args, result):
        key = (self.job, args[0])
        new = key not in self._tested
        self._tested.add(key)
        return (int(result), int(new))

    def _wrap(self, fn, name, count):
        spans, stack, ids, tracer = self.spans, self._stack, self._ids, self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, parent, tracer.job, name, start, end, end, None))
                raise
            end = clock()
            stack.pop()
            counts = count(args, result) if count else None
            spans.append((sid, parent, tracer.job, name, start, end, clock(), counts))
            return result

        return wrapper

    def install(self) -> None:
        namespaces = [
            m for k, m in sys.modules.items() if k == "digitop" or k.startswith("digitop.")
        ]
        for module, func, name, _, count in TARGETS:
            original = getattr(sys.modules[f"digitop.{module}"], func)
            if name == "simplicial.bary":
                count = self._bary_counts
            wrapper = self._wrap(original, name, count)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def remove(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._tested.clear()

    def table(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, summed counters."""
        covered: dict[int, int] = defaultdict(int)
        for sid, parent, _, _, start, _, post, _ in self.spans:
            covered[parent] += post - start
        rows: dict[str, dict] = {}
        for sid, _, _, name, start, end, _, counts in self.spans:
            row = rows.setdefault(
                name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, **{c: 0 for c in COUNTERS[name]}}
            )
            row["calls"] += 1
            row["incl_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - covered[sid]) / 1e9
            for c, v in zip(COUNTERS[name], counts or ()):
                row[c] += v
        return rows

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tjob\tname\tstart_ns\tend_ns\tcounts\n")
            for sid, parent, job, name, start, end, _, counts in self.spans:
                counted = ",".join(map(str, counts or ()))
                fh.write(f"{sid}\t{parent}\t{job}\t{name}\t{start}\t{end}\t{counted}\n")
