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


def is_homogeneous(k: SimplicialComplex, d: int) -> Verdict:
    """Every simplex must be a face of some d-simplex."""
    # rows are sorted tuples, so the faces of t are its combinations
    top = (t for t in k.rows if len(t) == d + 1)
    faces = {f for t in top for r in range(1, d + 2) for f in itertools.combinations(t, r)}
    stray = next((s for s in k.rows if s not in faces), None)
    if stray is None:
        return Verdict(True)
    return Verdict(False, {"kind": "homogeneity", "simplex": _simplex_json(k, stray)})


def is_nondegenerate(k: SimplicialComplex, d: int) -> Verdict:
    """Every (d-1)-simplex must have exactly two d-dimensional cofaces."""
    cofaces: dict[Row, int] = {s: 0 for s in k.rows if len(s) == d}
    for t in k.rows:
        if len(t) != d + 1:
            continue
        for face in itertools.combinations(t, d):
            if face in cofaces:
                cofaces[face] += 1
    for s, count in cofaces.items():
        if count != 2:
            return Verdict(False, {"kind": "nondegeneracy", "simplex": _simplex_json(k, s), "cofaces": count})
    return Verdict(True)


def is_strongly_connected(k: SimplicialComplex, d: int) -> Verdict:
    """The dual graph on d-simplices (edges: shared (d-1)-faces) is connected."""
    top = [s for s in k.rows if len(s) == d + 1]
    if len(top) <= 1:
        return Verdict(True)
    by_face: dict[Row, list[int]] = {}
    for i, t in enumerate(top):
        for face in itertools.combinations(t, d):
            by_face.setdefault(face, []).append(i)
    ids = label(
        bytearray(b"\1") * len(top),
        lambda fr: [o for i in fr for face in itertools.combinations(top[i], d) for o in by_face[face]],
    )
    stranded = next((t for t, c in zip(top, ids) if c), None)  # top[0]'s component has id 0
    if stranded is None:
        return Verdict(True)
    witness = {"kind": "strong-connectivity", "simplex": _simplex_json(k, top[0]), "other": _simplex_json(k, stranded)}
    return Verdict(False, witness)


def is_pseudomanifold(k: SimplicialComplex, d: int) -> PseudomanifoldReport:
    """Conjunction of the three checks, with witnesses."""
    return PseudomanifoldReport(
        dimension=d,
        homogeneous=is_homogeneous(k, d),
        nondegenerate=is_nondegenerate(k, d),
        strongly_connected=is_strongly_connected(k, d),
    )


@lru_cache(maxsize=1)
def _fresh_witnesses(mset: frozenset, pair: AdjacencyPair) -> tuple[dict, ...]:
    """The witnesses of K'(M), built once for all the witnesses of a report."""
    return tuple(is_pseudomanifold(build_reduced_complex(mset, pair), pair.n - 1).witnesses())


def _replay(w: dict, mset, pair: AdjacencyPair, region) -> bool:
    """True iff the recorded witness is one the check of K'(M) finds."""
    return w in _fresh_witnesses(frozenset(mset), pair)


REPLAYS = dict.fromkeys(("homogeneity", "nondegeneracy", "strong-connectivity"), _replay)
