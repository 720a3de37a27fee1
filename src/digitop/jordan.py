"""Separation verdicts at desk scale plus the example-set generators.

A certified foreground set should split its complement into exactly two
pieces, be the common boundary of both, and contain no removable point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .adjacency import AdjacencyPair, Region, neighbors
from .lattice import Point
from .manifold import ManifoldReport, NotCertifiedError, check_manifold, is_simple_point
from .verdict import Checks, Verdict


@dataclass(frozen=True)
class JordanReport(Checks, conjunction="all_true"):
    two_components: bool
    component_count: int
    inside_size: int
    outside_flagged: bool
    common_boundary: Verdict
    no_simple_points: Verdict

    @property
    def holds(self) -> bool:
        return self.two_components and self.outside_flagged and super().holds

    def witnesses(self) -> list[dict]:
        count = [] if self.two_components else [{"kind": "component-count", "count": self.component_count}]
        return count + super().witnesses()


def jordan_check(
    m: Iterable[Point],
    pair: AdjacencyPair,
    margin: int = 2,
    report: ManifoldReport | None = None,
) -> JordanReport:
    """Two complement components, common boundary, no removable points.

    Refuses uncertified input: the conclusion is only claimed for certified
    manifolds, and silent evaluation invites misreading.  A report made
    here is checked in the same window, so its separation scan, this check
    and the simple-point tests read one complement labeling.
    """
    if margin < 2:
        raise ValueError("margin must be at least 2")
    mset = frozenset(m)
    region = Region.around(mset, margin)
    if report is None:
        report = check_manifold(mset, pair, region)
    if not report.certified:
        raise NotCertifiedError("jordan check requires a certified manifold")
    labeling = region.complement(pair.beta, mset)
    comps = labeling.components()
    two = len(comps) == 2
    inside_size = 0
    outside_flagged = False
    for cid, pts in comps.items():
        if cid in labeling.infinite_ids:
            outside_flagged = True
        else:
            inside_size = len(pts)

    common = Verdict(True)
    if two:
        ids = sorted(comps)
        for p in sorted(mset):
            reached = {labeling.labels[q] for q in neighbors(pair.beta, p) if q in labeling.labels}
            missing = [cid for cid in ids if cid not in reached]
            if missing:
                common = Verdict(
                    False,
                    {
                        "kind": "not-common-boundary",
                        "point": list(p),
                        "missing_component": list(missing[0]),
                    },
                )
                break

    no_simple = Verdict(True)
    for p in sorted(mset):
        if is_simple_point(p, mset, pair, region):
            no_simple = Verdict(False, simple_point_witness(p))
            break

    return JordanReport(
        two_components=two,
        component_count=len(comps),
        inside_size=inside_size,
        outside_flagged=outside_flagged,
        common_boundary=common,
        no_simple_points=no_simple,
    )


def simple_point_witness(p: Point) -> dict:
    return {"kind": "simple-point", "point": list(p)}


def _replay_component_count(w: dict, mset, pair: AdjacencyPair, region: Region) -> bool:
    count = region.complement(pair.beta, mset).count
    return count != 2 and count == w["count"]


def _replay_not_common_boundary(w: dict, mset, pair: AdjacencyPair, region: Region) -> bool:
    p, missing = tuple(w["point"]), tuple(w["missing_component"])
    labels = region.complement(pair.beta, mset).labels
    return (
        p in mset
        and labels.get(missing) == missing  # component ids label themselves
        and all(labels.get(q) != missing for q in neighbors(pair.beta, p))
    )


def _replay_simple_point(w: dict, mset, pair: AdjacencyPair, region: Region) -> bool:
    p = tuple(w["point"])
    return p in mset and is_simple_point(p, mset, pair, region)


REPLAYS = {
    "component-count": _replay_component_count,
    "not-common-boundary": _replay_not_common_boundary,
    "simple-point": _replay_simple_point,
}


def rect_boundary(w: int, h: int) -> frozenset[Point]:
    """Boundary lattice points of a w-by-h box in the plane."""
    if w < 3 or h < 3:
        raise ValueError("sides must be at least 3 so the interior is nonempty")
    return frozenset(
        (x, y)
        for x in range(w)
        for y in range(h)
        if x in (0, w - 1) or y in (0, h - 1)
    )


def box_surface(w: int, h: int, d: int) -> frozenset[Point]:
    """Surface lattice points of a w-by-h-by-d box in space."""
    if min(w, h, d) < 3:
        raise ValueError("sides must be at least 3 so the interior is nonempty")
    return frozenset(
        (x, y, z)
        for x in range(w)
        for y in range(h)
        for z in range(d)
        if x in (0, w - 1) or y in (0, h - 1) or z in (0, d - 1)
    )


def sphere_shell(radius: int, n: int) -> frozenset[Point]:
    """Digitized sphere: points with radius - 1 < |p| <= radius + 1/2.

    Certification is not guaranteed; the checker decides.
    """
    if radius < 2:
        raise ValueError("radius must be at least 2")
    if n < 2:
        raise ValueError("dimension must be at least 2")
    top = radius + 1
    out = []
    for p in itertools.product(range(-top, top + 1), repeat=n):
        sq = sum(c * c for c in p)
        if sq > (radius - 1) ** 2 and 4 * sq <= (2 * radius + 1) ** 2:
            out.append(p)
    return frozenset(out)


# the example sets of ``digitop generate --kind KIND``
GENERATORS = {"rect-boundary": rect_boundary, "box-surface": box_surface, "sphere-shell": sphere_shell}
