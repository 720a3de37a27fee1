"""Combinatorial pseudomanifold validation: homogeneity, exactly-two
cofaces, strong connectivity of the dual graph."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .adjacency import AdjacencyPair
from .simplicial import Simplex, SimplicialComplex, build_complex, reduce_complex
from .verdict import Verdict


@dataclass(frozen=True)
class PseudomanifoldReport:
    dimension: int
    homogeneous: Verdict
    nondegenerate: Verdict
    strongly_connected: Verdict

    @property
    def all_hold(self) -> bool:
        return (
            self.homogeneous.holds
            and self.nondegenerate.holds
            and self.strongly_connected.holds
        )

    def witnesses(self) -> list[dict]:
        return [
            v.witness
            for v in (self.homogeneous, self.nondegenerate, self.strongly_connected)
            if not v.holds and v.witness
        ]

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "all_hold": self.all_hold,
            "homogeneous": self.homogeneous.to_json(),
            "nondegenerate": self.nondegenerate.to_json(),
            "strongly_connected": self.strongly_connected.to_json(),
        }


def _simplex_json(s: Simplex) -> list[list[int]]:
    return [list(v) for v in s]


def is_homogeneous(k: SimplicialComplex, d: int) -> Verdict:
    """Every simplex must be a face of some d-simplex."""
    top = [s for s in k.simplices if len(s) == d + 1]
    by_vertex: dict = {}
    for t in top:
        for v in t:
            by_vertex.setdefault(v, []).append(t)
    for s in sorted(k.simplices):
        if len(s) - 1 > d:
            return Verdict(
                False, {"kind": "homogeneity", "simplex": _simplex_json(s)}
            )
        vset = set(s)
        candidates = by_vertex.get(s[0], [])
        if not any(vset <= set(t) for t in candidates):
            return Verdict(
                False, {"kind": "homogeneity", "simplex": _simplex_json(s)}
            )
    return Verdict(True)


def is_nondegenerate(k: SimplicialComplex, d: int) -> Verdict:
    """Every (d-1)-simplex must have exactly two d-dimensional cofaces."""
    cofaces: dict[Simplex, int] = {s: 0 for s in k.simplices if len(s) == d}
    for t in k.simplices:
        if len(t) != d + 1:
            continue
        for face in itertools.combinations(t, d):
            if face in cofaces:
                cofaces[face] += 1
    for s in sorted(cofaces):
        if cofaces[s] != 2:
            return Verdict(
                False,
                {
                    "kind": "nondegeneracy",
                    "simplex": _simplex_json(s),
                    "cofaces": cofaces[s],
                },
            )
    return Verdict(True)


def is_strongly_connected(k: SimplicialComplex, d: int) -> Verdict:
    """The dual graph on d-simplices (edges: shared (d-1)-faces) is connected."""
    top = sorted(s for s in k.simplices if len(s) == d + 1)
    if len(top) <= 1:
        return Verdict(True)
    by_face: dict[Simplex, list[Simplex]] = {}
    for t in top:
        for face in itertools.combinations(t, d):
            by_face.setdefault(face, []).append(t)
    seen = {top[0]}
    stack = [top[0]]
    while stack:
        t = stack.pop()
        for face in itertools.combinations(t, d):
            for other in by_face.get(face, ()):
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
    if len(seen) == len(top):
        return Verdict(True)
    stranded = next(t for t in top if t not in seen)
    return Verdict(
        False,
        {
            "kind": "strong-connectivity",
            "simplex": _simplex_json(top[0]),
            "other": _simplex_json(stranded),
        },
    )


def is_pseudomanifold(k: SimplicialComplex, d: int) -> PseudomanifoldReport:
    """Conjunction of the three checks, with witnesses."""
    return PseudomanifoldReport(
        dimension=d,
        homogeneous=is_homogeneous(k, d),
        nondegenerate=is_nondegenerate(k, d),
        strongly_connected=is_strongly_connected(k, d),
    )


def _replay(w: dict, mset, pair: AdjacencyPair, region) -> bool:
    """True iff the recorded witness is one the check of K'(M) finds."""
    reduced = reduce_complex(build_complex(mset, pair), mset, pair)
    return w in is_pseudomanifold(reduced, pair.n - 1).witnesses()


REPLAYS = dict.fromkeys(("homogeneity", "nondegeneracy", "strong-connectivity"), _replay)
