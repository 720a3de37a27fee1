"""Combinatorial pseudomanifold validation: homogeneity, exactly-two
cofaces, strong connectivity of the dual graph.  The checks read id rows,
which sort as the simplices they name, so witnesses are as on points."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .adjacency import AdjacencyPair, label
from .simplicial import Row, SimplicialComplex, build_reduced_complex
from .verdict import Checks, Verdict


@dataclass(frozen=True)
class PseudomanifoldReport(Checks, conjunction="all_hold"):
    dimension: int
    homogeneous: Verdict
    nondegenerate: Verdict
    strongly_connected: Verdict


def _simplex_json(k: SimplicialComplex, row: Row) -> list[list[int]]:
    return [list(v) for v in k.points(row)]


def is_pseudomanifold(k: SimplicialComplex, d: int) -> PseudomanifoldReport:
    """Homogeneity (every simplex is a face of some d-simplex),
    nondegeneracy (every (d-1)-simplex has exactly two d-dimensional
    cofaces) and strong connectivity (the dual graph on d-simplices, whose
    edges are shared (d-1)-faces, is connected), each with its first
    witness in row order.  The last two read one table of the d-simplices
    on each (d-1)-face."""
    top = [t for t in k.rows if len(t) == d + 1]
    # rows are sorted tuples, so the faces of t are its combinations
    faces = {f for t in top for r in range(1, d + 2) for f in itertools.combinations(t, r)}
    stray = next((s for s in k.rows if s not in faces), None)
    del faces  # freed before the coface table is built
    cofaces: dict[Row, list[int]] = {}
    for i, t in enumerate(top):
        for face in itertools.combinations(t, d):
            cofaces.setdefault(face, []).append(i)
    thin = next(((s, c) for s in k.rows if len(s) == d and (c := len(cofaces.get(s, ()))) != 2), None)
    ids, _ = label(
        bytearray(b"\1") * len(top),
        lambda fr: [o for i in fr for face in itertools.combinations(top[i], d) for o in cofaces[face]],
    )
    stranded = next((t for t, c in zip(top, ids) if c), None)  # top[0]'s component has id 0
    homogeneous = nondegenerate = strongly_connected = Verdict(True)
    if stray is not None:
        homogeneous = Verdict(False, {"kind": "homogeneity", "simplex": _simplex_json(k, stray)})
    if thin is not None:
        s, count = thin
        nondegenerate = Verdict(False, {"kind": "nondegeneracy", "simplex": _simplex_json(k, s), "cofaces": count})
    if stranded is not None:
        witness = {"kind": "strong-connectivity", "simplex": _simplex_json(k, top[0]), "other": _simplex_json(k, stranded)}
        strongly_connected = Verdict(False, witness)
    return PseudomanifoldReport(d, homogeneous, nondegenerate, strongly_connected)


@lru_cache(maxsize=1)
def _fresh_witnesses(mset: frozenset, pair: AdjacencyPair) -> tuple[dict, ...]:
    """The witnesses of K'(M), built once for all the witnesses of a report."""
    return tuple(is_pseudomanifold(build_reduced_complex(mset, pair), pair.n - 1).witnesses())


def _replay(w: dict, mset, pair: AdjacencyPair, region) -> bool:
    """True iff the recorded witness is one the check of K'(M) finds."""
    return w in _fresh_witnesses(frozenset(mset), pair)


REPLAYS = dict.fromkeys(("homogeneity", "nondegeneracy", "strong-connectivity"), _replay)
