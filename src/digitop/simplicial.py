"""Simplicial complex built from a foreground set via the barycenter test.

Vertices live on the half-integer grid and are stored with doubled integer
coordinates.  Every lattice point of the foreground is a vertex; a cube
contributes its barycenter exactly when the barycenter test passes.  The
complex K(M) is the order complex of the passing cubes: its simplices are
the chains c0 < c1 < ... < ck of passing cubes under the face order, where
the 0-cubes are the points of the set.

The reduction removes barycenters of cubes whose in-cube background is
connected, together with every simplex using them; what remains
triangulates a strong deformation retract of the full complex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from typing import Iterable, Iterator, Mapping, Optional

from ._exact import integer_rank, open_simplices_intersect, point_in_closed_simplex
from .adjacency import AdjacencyPair, ComponentLabeling, Region, axis_adjacency, components, label
from .lattice import (
    Cube,
    HalfPoint,
    Point,
    Shape,
    at_origin,
    barycenter,
    cube_of_barycenter,
    cube_vertices,
    double,
    half_corners,
    is_lattice2,
    occupancy,
    shapes_meeting,
    subcubes,
)

Simplex = tuple[HalfPoint, ...]  # canonical: vertices sorted, distinct
Box = tuple[HalfPoint, HalfPoint]


@dataclass(frozen=True)
class SimplicialComplex:
    """A face-closed set of canonical simplices on the half-integer grid."""

    n: int
    simplices: frozenset[Simplex]
    provenance: Mapping[HalfPoint, Cube] = field(default_factory=dict)

    def vertices(self) -> tuple[HalfPoint, ...]:
        return tuple(sorted({v for s in self.simplices for v in s}))

    def by_dim(self) -> dict[int, list[Simplex]]:
        out: dict[int, list[Simplex]] = {}
        for s in self.simplices:
            out.setdefault(len(s) - 1, []).append(s)
        return {d: sorted(ss) for d, ss in sorted(out.items())}

    def dim(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def lattice_vertices(self) -> tuple[Point, ...]:
        return tuple(
            sorted(tuple(c // 2 for c in v) for v in self.vertices() if is_lattice2(v))
        )

    def __len__(self) -> int:
        return len(self.simplices)


@lru_cache(maxsize=None)
def _shape_verdict(pair: AdjacencyPair, axes: tuple[int, ...], mask: int) -> tuple[bool, int]:
    """Barycenter verdict and in-cube background component count of a cube shape.

    Adjacency is translation-invariant, so both depend only on the cube's
    axes and on which of its vertices are foreground; they are decided on
    the shape's cube at the origin, so each shape is flooded once.
    """
    c, fg = at_origin(pair.n, axes, mask)
    verts = cube_vertices(c)
    free = [v for v in verts if v not in fg]
    labeling = components(pair.beta, free)
    center = barycenter(c)
    antipodes = [(v, tuple(s - x for s, x in zip(center, v))) for v in verts]
    passed = not free or any(
        pair.alpha.adjacent(v, w) if v in fg else not labeling.same_component(v, w)
        for v, w in antipodes
        if w > v and (v in fg) == (w in fg)
    )
    return passed, labeling.count


def barycenter_test(c: Cube, m: Iterable[Point], pair: AdjacencyPair) -> bool:
    """Barycenter test: does the cube contribute a vertex to the complex?

    True when an antipodal vertex pair is foreground and alpha-adjacent,
    when the whole cube is foreground, or when an antipodal background pair
    is split between two in-cube background components.
    """
    if c.dim < 1:
        raise ValueError("the barycenter test needs a cube of dimension >= 1")
    return _shape_verdict(pair, c.axes, occupancy(c, frozenset(m)))[0]


@lru_cache(maxsize=None)
def _face_offsets(n: int, axes: tuple[int, ...]) -> tuple[HalfPoint, ...]:
    """Doubled offsets from a cube's barycenter to the barycenters of its
    proper faces of dimension >= 1."""
    c = Cube((0,) * n, axes)
    center = barycenter(c)
    faces = (f for k in range(1, c.dim) for f in subcubes(c, k))
    return tuple(tuple(map(sub, barycenter(f), center)) for f in faces)


def _shape(c: Cube, mset: frozenset[Point]) -> Shape:
    return barycenter(c), c.axes, occupancy(c, mset)


def _order_complex(
    n: int, mset: frozenset[Point], shapes: Iterable[Shape], pair: AdjacencyPair, full: bool
) -> tuple[SimplicialComplex, Optional[SimplicialComplex]]:
    """K'(M) and, when ``full``, K(M): chains c0 < c1 < ... < ck of the
    passing cubes, plus the points of the set.

    A chain is in K' iff each of its cubes keeps its barycenter, i.e. its
    in-cube background is not one piece.  ``shapes`` comes in order of
    dimension and holds every passing face of dimension >= 1 of its passing
    cubes; each cube is tested once.  Chains are kept sorted, keyed by the
    barycenter of their top cube.
    """
    kept: dict[HalfPoint, list[Simplex]] = {}  # chains of kept cubes only
    lost: dict[HalfPoint, list[Simplex]] = {}  # chains through a dropped cube
    provenance: dict[HalfPoint, Cube] = {}
    for center, axes, mask in shapes:
        passed, count = _shape_verdict(pair, axes, mask)
        if not passed or (count == 1 and not full):
            continue
        provenance[center] = cube_of_barycenter(center)
        faces = [tuple(map(add, center, d)) for d in _face_offsets(n, axes)]
        below = [
            (tuple(map(add, center, e)),) for i, e in enumerate(half_corners(n, axes)) if mask >> i & 1
        ]
        for f in faces:
            below += kept.get(f, ())
        through = [ch for f in faces for ch in lost.get(f, ())]
        if count == 1:  # the empty chain grows into the lone barycenter
            through = [()] + below + through
        else:
            kept[center] = [(center,)] + [tuple(sorted((*ch, center))) for ch in below]
        if through:
            lost[center] = [tuple(sorted((*ch, center))) for ch in through]
    reduced = SimplicialComplex(
        n,
        frozenset(itertools.chain(((double(p),) for p in mset), *kept.values())),
        {h: c for h, c in provenance.items() if h in kept},
    )
    if not full:
        return reduced, None
    return reduced, SimplicialComplex(n, reduced.simplices.union(*lost.values()), provenance)


def build_complex_in_cube(cn: Cube, m: Iterable[Point], pair: AdjacencyPair) -> SimplicialComplex:
    """Complex of the foreground restricted to one cube: chains of its passing faces."""
    mset = frozenset(m) & frozenset(cube_vertices(cn))
    faces = (_shape(f, mset) for k in range(1, cn.dim + 1) for f in subcubes(cn, k))
    return _order_complex(cn.n, mset, faces, pair, full=True)[1]


def build_complex(m: Iterable[Point], pair: AdjacencyPair) -> SimplicialComplex:
    """K(M): the order complex of the cubes that pass the barycenter test."""
    return build_complexes(m, pair)[0]


def build_complexes(
    m: Iterable[Point], pair: AdjacencyPair
) -> tuple[SimplicialComplex, SimplicialComplex]:
    """K(M) and K'(M) from one enumeration of the chains."""
    mset = frozenset(m)
    # a cube missing the set has its background connected along its edges,
    # so it fails the barycenter test
    shapes = itertools.chain.from_iterable(shapes_meeting(mset, k, pair.n) for k in range(1, pair.n + 1))
    reduced, full = _order_complex(pair.n, mset, shapes, pair, full=True)
    return full, reduced


def build_reduced_complex(m: Iterable[Point], pair: AdjacencyPair) -> SimplicialComplex:
    """K'(M) alone: the chains of the passing cubes that keep their barycenters."""
    mset = frozenset(m)
    shapes = itertools.chain.from_iterable(shapes_meeting(mset, k, pair.n) for k in range(1, pair.n + 1))
    return _order_complex(pair.n, mset, shapes, pair, full=False)[0]


def reduce_complex(
    k: SimplicialComplex, m: Iterable[Point], pair: AdjacencyPair
) -> SimplicialComplex:
    """Drop barycenters of cubes whose in-cube background is one piece:
    the chains of the cubes of ``k`` that keep their barycenters."""
    mset = frozenset(m)
    shapes = sorted((_shape(c, mset) for c in k.provenance.values()), key=lambda s: len(s[1]))
    return _order_complex(k.n, mset, shapes, pair, full=False)[0]


@dataclass(frozen=True)
class CubeTrace:
    """Per-cube record of the test verdict and the reduction decision."""

    cube: Cube
    test_passed: bool
    background_components: int
    barycenter_kept: Optional[bool]  # None when the test failed


def reduction_trace(
    k: SimplicialComplex, m: Iterable[Point], pair: AdjacencyPair
) -> tuple[CubeTrace, ...]:
    mset = frozenset(m)
    out = []
    for center, cube in sorted(k.provenance.items()):
        count = _shape_verdict(pair, cube.axes, occupancy(cube, mset))[1]
        out.append(CubeTrace(cube, True, count, count != 1))
    return tuple(out)


def euler_characteristic(k: SimplicialComplex) -> int:
    """Alternating sum of simplex counts by dimension."""
    chi = 0
    for s in k.simplices:
        chi += 1 if (len(s) - 1) % 2 == 0 else -1
    return chi


def skeleton_components(k: SimplicialComplex) -> ComponentLabeling:
    """Components of the vertex-edge graph of the complex."""
    vertices = set(k.vertices())
    edges: dict[HalfPoint, set[HalfPoint]] = {v: set() for v in vertices}
    for s in k.simplices:
        if len(s) == 2:
            edges[s[0]].add(s[1])
            edges[s[1]].add(s[0])
    return ComponentLabeling(label(vertices, edges.__getitem__))


def _bbox2(s: Simplex) -> Box:
    n = len(s[0])
    lo = tuple(min(v[i] for v in s) for i in range(n))
    hi = tuple(max(v[i] for v in s) for i in range(n))
    return lo, hi


def _bboxes_overlap(a: Box, b: Box) -> bool:
    return all(al <= bh and bl <= ah for al, ah, bl, bh in zip(a[0], a[1], b[0], b[1]))


def _open_box(box: Box) -> Box:
    """Projections of the open simplex with this doubled bounding box.

    Linear maps send relative interiors onto relative interiors, so on each
    axis the open simplex projects to (lo, hi), or to lo when lo == hi.  As
    the ends are integers, (lo, hi) doubled is exactly [2 lo + 1, 2 hi - 1].
    """
    lo, hi = box
    return (
        tuple(2 * a + (a < b) for a, b in zip(lo, hi)),
        tuple(2 * b - (a < b) for a, b in zip(lo, hi)),
    )


def _cells(box: Box) -> Iterator[Point]:
    """The lattice cells floor(x / 2) that a doubled closed box covers."""
    return itertools.product(*(range(a // 2, b // 2 + 1) for a, b in zip(*box)))


def _buckets(boxes: list[Box]) -> dict[Point, list[int]]:
    """Indices of the boxes covering each lattice cell, in increasing order.

    Overlapping closed boxes share the cell of an integer point they share.
    """
    out: dict[Point, list[int]] = {}
    for i, box in enumerate(boxes):
        for cell in _cells(box):
            out.setdefault(cell, []).append(i)
    return out


def _is_chain(s: Simplex) -> bool:
    """Are the vertices the barycenters of a strict chain of lattice cubes?

    A doubled vertex is the barycenter of the cube whose free axes are its
    odd coordinates, and that cube spans [x - x % 2, x + x % 2] on each
    axis; a cube is a face of another iff its spans lie in the other's.
    """
    cubes = sorted((sum(c & 1 for c in v), v) for v in s)
    return all(
        da < db and all(abs(x - y) <= (y & 1) - (x & 1) for x, y in zip(a, b))
        for (da, a), (db, b) in zip(cubes, cubes[1:])
    )


def verify_complex_axioms(
    k: SimplicialComplex,
) -> tuple[bool, Optional[dict]]:
    """Check affine independence, face closure and open disjointness.

    Returns (True, None) or (False, witness).  The barycentric subdivision
    of the lattice's cube complex is a triangulation, so the open simplices
    of two distinct strict cube chains never meet (Rourke and Sanderson,
    *Introduction to Piecewise-Linear Topology*, ch. 2).  Every other pair
    that shares a lattice cell, and whose open projections meet on every
    axis, gets the exact rational intersection test; both filters are
    necessary conditions, and pairs are visited in sorted order, so the
    witness is the first intersecting pair in that order.
    """
    simplices = sorted(k.simplices)
    sset = k.simplices
    for s in simplices:
        if len(set(s)) != len(s):
            return False, {"kind": "repeated-vertex", "simplex": [list(v) for v in s]}
        if len(s) > 1:
            rows = [[v[i] - s[0][i] for i in range(len(s[0]))] for v in s[1:]]
            if integer_rank(rows) != len(s) - 1:
                return False, {
                    "kind": "affinely-dependent",
                    "simplex": [list(v) for v in s],
                }
    for s in simplices:
        for size in range(1, len(s)):
            for face in itertools.combinations(s, size):
                if face not in sset:
                    return False, {
                        "kind": "missing-face",
                        "simplex": [list(v) for v in s],
                        "face": [list(v) for v in face],
                    }
    others = [i for i, s in enumerate(simplices) if not _is_chain(s)]
    if not others:
        return True, None
    boxes = [_bbox2(s) for s in simplices]
    open_boxes = [_open_box(box) for box in boxes]
    buckets = _buckets(boxes)
    pairs = {
        (min(i, j), max(i, j))
        for i in others
        for cell in _cells(boxes[i])
        for j in buckets[cell]
        if j != i
    }
    for i, j in sorted(pairs):
        s, t = simplices[i], simplices[j]
        if _bboxes_overlap(open_boxes[i], open_boxes[j]) and open_simplices_intersect(s, t):
            return False, {
                "kind": "open-intersection",
                "simplex": [list(v) for v in s],
                "other": [list(v) for v in t],
            }
    return True, None


def lattice_correspondence(k: SimplicialComplex, m: Iterable[Point]) -> tuple[bool, Optional[dict]]:
    """The lattice points of the realization are exactly the foreground.

    Checks that lattice vertices equal the set and that no simplex of
    dimension >= 1 passes through any other lattice point.
    """
    mset = frozenset(m)
    if set(k.lattice_vertices()) != mset:
        return False, {
            "kind": "lattice-vertex-mismatch",
            "vertices": [list(v) for v in k.lattice_vertices()],
        }
    for s in sorted(k.simplices):
        if len(s) < 2:
            continue
        lo, hi = _bbox2(s)
        ranges = [
            range((l + 1) // 2, h // 2 + 1) for l, h in zip(lo, hi)
        ]  # lattice points inside the doubled box
        for p in itertools.product(*ranges):
            h = double(p)
            if h in s:
                continue
            if point_in_closed_simplex(s, [Fraction(c) for c in h]):
                return False, {
                    "kind": "lattice-point-inside-simplex",
                    "simplex": [list(v) for v in s],
                    "point": list(p),
                }
    return True, None


def realization_chambers(k: SimplicialComplex, region: Region) -> int:
    """Chambers of the complement of the realization on the half-step grid.

    A grid point of step one half is blocked when it lies on some closed
    simplex; chambers are the axis-connected components of the unblocked
    points.  Any half-step crossing of the realization passes exactly
    through a blocked point, so the count matches the complement's
    chambers.  Exact arithmetic throughout.
    """
    simplices = sorted(k.simplices)
    boxes = [_bbox2(s) for s in simplices]
    buckets = _buckets(boxes)
    lo2 = [2 * c for c in region.lo]
    hi2 = [2 * c for c in region.hi]

    free: set[tuple[int, ...]] = set()
    for x2 in itertools.product(*(range(a, b + 1) for a, b in zip(lo2, hi2))):
        cell = tuple(c // 2 for c in x2)
        if not any(
            _bboxes_overlap(boxes[i], (x2, x2))
            and point_in_closed_simplex(simplices[i], [Fraction(c) for c in x2])
            for i in buckets.get(cell, ())
        ):
            free.add(x2)
    return components(axis_adjacency(region.n), free).count


def complex_to_json(k: SimplicialComplex) -> dict:
    """Stable JSON form: doubled-integer vertices, index lists, provenance."""
    vertices = k.vertices()
    index = {v: i for i, v in enumerate(vertices)}
    # simplices are sorted and the index is increasing, so rows come out sorted
    simplices = sorted([index[v] for v in s] for s in k.simplices)
    provenance = {
        str(index[c]): cube.to_json()
        for c, cube in sorted(k.provenance.items())
        if c in index
    }
    return {
        "n": k.n,
        "vertices": [list(v) for v in vertices],
        "simplices": simplices,
        "provenance": provenance,
    }


def complex_to_off(k: SimplicialComplex) -> tuple[str, int]:
    """OFF text for the triangles of a three-dimensional complex.

    Returns the file text and the number of 0/1-simplices it omits.
    """
    if k.n != 3:
        raise ValueError("OFF export is defined for three-dimensional complexes only")
    vertices = k.vertices()
    index = {v: i for i, v in enumerate(vertices)}
    triangles = sorted(
        tuple(sorted(index[v] for v in s)) for s in k.simplices if len(s) == 3
    )
    skipped = sum(1 for s in k.simplices if len(s) < 3)
    lines = ["OFF", f"{len(vertices)} {len(triangles)} 0"]
    for v in vertices:
        lines.append(" ".join(f"{c / 2:.1f}" for c in v))
    for t in triangles:
        lines.append("3 " + " ".join(str(i) for i in t))
    return "\n".join(lines) + "\n", skipped
