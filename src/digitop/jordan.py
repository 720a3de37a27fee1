"""Separation verdicts at desk scale plus the example-set generators.

A certified foreground set should split its complement into exactly two
pieces, be the common boundary of both, and contain no removable point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .adjacency import AdjacencyPair, Region
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
    sizes = labeling.sizes()
    ids = list(sizes)
    inside = [sizes[cid] for cid in ids if cid not in labeling.infinite_ids]
    two = len(ids) == 2

    # one scan: the ids p touches decide both verdicts, and only a point that
    # touches exactly one component can be simple
    common = no_simple = Verdict(True)
    for p in sorted(mset):
        near = labeling.ids_near(pair.beta, p)
        if two and common.holds and len(near) < 2:
            witness = {"kind": "not-common-boundary", "point": list(p), "missing_component": list(min(set(ids) - near))}
            common = Verdict(False, witness)
        if len(near) == 1 and is_simple_point(p, mset, pair, region):
            no_simple = Verdict(False, simple_point_witness(p))
            break  # with two components, p misses one: the common boundary failed here or before

    return JordanReport(
        two_components=two,
        component_count=len(ids),
        inside_size=inside[-1] if inside else 0,
        outside_flagged=len(inside) < len(ids),
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
    labeling = region.complement(pair.beta, mset)
    # component ids label themselves
    return p in mset and labeling.get(missing) == missing and missing not in labeling.ids_near(pair.beta, p)


def _replay_simple_point(w: dict, mset, pair: AdjacencyPair, region: Region) -> bool:
    p = tuple(w["point"])
    return p in mset and is_simple_point(p, mset, pair, region)


REPLAYS = {
    "component-count": _replay_component_count,
    "not-common-boundary": _replay_not_common_boundary,
    "simple-point": _replay_simple_point,
}


def _box(*sides: int) -> tuple[range, ...]:
    """The coordinate ranges of a box with these sides."""
    if min(sides) < 3:
        raise ValueError("sides must be at least 3 so the interior is nonempty")
    return tuple(map(range, sides))


def _faces(box: tuple[range, ...]) -> frozenset[Point]:
    """The lattice points on the boundary of a box."""
    return frozenset(p for p in itertools.product(*box) if any(c in (r[0], r[-1]) for c, r in zip(p, box)))


def rect_boundary(w: int, h: int) -> frozenset[Point]:
    """Boundary lattice points of a w-by-h box in the plane."""
    return _faces(_box(w, h))


def box_surface(w: int, h: int, d: int) -> frozenset[Point]:
    """Surface lattice points of a w-by-h-by-d box in space."""
    return _faces(_box(w, h, d))


def _ball(radius: int, n: int) -> Iterator[range]:
    """The coordinate ranges of [-radius, radius]^n, which holds every lattice point with |p| <= radius + 1/2."""
    if radius < 2:
        raise ValueError("radius must be at least 2")
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return itertools.repeat(range(-radius, radius + 1), n)


def sphere_shell(radius: int, n: int) -> frozenset[Point]:
    """Digitized sphere: points with radius - 1 < |p| <= radius + 1/2.

    Certification is not guaranteed; the checker decides.
    """
    low, high = (radius - 1) ** 2, radius * (radius + 1)  # for integers, |p|^2 <= (radius + 1/2)^2
    return frozenset(p for p in itertools.product(*_ball(radius, n)) if low < sum(c * c for c in p) <= high)


# the example sets of ``digitop generate --kind KIND``
GENERATORS = {"rect-boundary": rect_boundary, "box-surface": box_surface, "sphere-shell": sphere_shell}
# the box that holds each one, from the same parameters, which it checks as the generator does
_BOXES = {"rect-boundary": lambda w, h: _box(w, h), "box-surface": lambda w, h, d: _box(w, h, d), "sphere-shell": _ball}


def window_sides(kind: str, params: Sequence[int]) -> Iterator[int]:
    """The sides of the margin-2 analysis window of ``GENERATORS[kind](*params)``, one per
    axis, before the set is built; parameters the generator refuses raise its own error."""
    try:
        box = _BOXES[kind](*params)
    except TypeError:
        GENERATORS[kind](*params)  # a wrong parameter count, refused before anything is built
        raise
    return (r.stop - r.start + 4 for r in box)
