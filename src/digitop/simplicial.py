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
from typing import Iterable, Iterator, Mapping, Optional

from ._exact import integer_rank, open_simplices_intersect, point_in_closed_simplex
from .adjacency import AdjacencyPair, ComponentLabeling, Region, components
from .lattice import (
    Cube,
    HalfPoint,
    Point,
    barycenter,
    cube_vertices,
    double,
    is_lattice2,
    subcubes,
    vec_sub,
)

Simplex = tuple[HalfPoint, ...]  # canonical: vertices sorted, distinct
Box = tuple[HalfPoint, HalfPoint]
# (axes, occupancy bitmask of the cube's vertices) -> (test passed, background count)
ShapeTable = dict[tuple[tuple[int, ...], int], tuple[bool, int]]


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


def _shape_verdict(
    c: Cube, mset: frozenset[Point], pair: AdjacencyPair, table: ShapeTable
) -> tuple[bool, int]:
    """Barycenter verdict and in-cube background component count of a cube.

    Adjacency is translation-invariant, so both depend only on the cube's
    axes and on which of its vertices are foreground; ``table`` holds one
    entry per such shape, so each shape is flooded once.  A table belongs
    to one call on one set and one pair.
    """
    verts = cube_vertices(c)
    shape = (c.axes, sum(1 << i for i, v in enumerate(verts) if v in mset))
    found = table.get(shape)
    if found is None:
        free = [v for v in verts if v not in mset]
        labeling = components(pair.beta, free)
        center = barycenter(c)
        antipodes = [(v, tuple(s - x for s, x in zip(center, v))) for v in verts]
        passed = not free or any(
            pair.alpha.adjacent(v, w) if v in mset else not labeling.same_component(v, w)
            for v, w in antipodes
            if w > v and (v in mset) == (w in mset)
        )
        found = table[shape] = (passed, labeling.count)
    return found


def barycenter_test(
    c: Cube, m: Iterable[Point], pair: AdjacencyPair, _table: ShapeTable | None = None
) -> bool:
    """Barycenter test: does the cube contribute a vertex to the complex?

    True when an antipodal vertex pair is foreground and alpha-adjacent,
    when the whole cube is foreground, or when an antipodal background pair
    is split between two in-cube background components.
    """
    if c.dim < 1:
        raise ValueError("the barycenter test needs a cube of dimension >= 1")
    return _shape_verdict(c, frozenset(m), pair, {} if _table is None else _table)[0]


def _order_complex(
    n: int, mset: frozenset[Point], cubes: Iterable[Cube], pair: AdjacencyPair
) -> SimplicialComplex:
    """Chains c0 < c1 < ... < ck of the passing cubes, plus the points of the set.

    ``cubes`` comes in order of dimension and holds every passing face of
    dimension >= 1 of its passing cubes; each cube is tested once.
    """
    table: ShapeTable = {}
    simplices: set[Simplex] = {(double(p),) for p in mset}
    provenance: dict[HalfPoint, Cube] = {}
    chains: dict[Cube, list[Simplex]] = {}  # chains ending at a passing cube
    for c in cubes:
        if not barycenter_test(c, mset, pair, _table=table):
            continue
        center = barycenter(c)
        provenance[center] = c
        below = [(double(p),) for p in cube_vertices(c) if p in mset]
        for k in range(1, c.dim):
            for f in subcubes(c, k):
                below += chains.get(f, ())
        chains[c] = [(center,)] + [ch + (center,) for ch in below]
        simplices.update(tuple(sorted(ch)) for ch in chains[c])
    return SimplicialComplex(n, frozenset(simplices), provenance)


def build_complex_in_cube(cn: Cube, m: Iterable[Point], pair: AdjacencyPair) -> SimplicialComplex:
    """Complex of the foreground restricted to one cube: chains of its passing faces."""
    mset = frozenset(m) & frozenset(cube_vertices(cn))
    faces = (f for k in range(1, cn.dim + 1) for f in subcubes(cn, k))
    return _order_complex(cn.n, mset, faces, pair)


def build_complex(m: Iterable[Point], pair: AdjacencyPair) -> SimplicialComplex:
    """K(M): the order complex of the cubes that pass the barycenter test.

    Only cubes with a vertex in the set are tested: the vertices of any
    other cube are background, connected along its edges, so it fails.
    """
    mset = frozenset(m)
    n = pair.n
    cubes = (
        Cube(vec_sub(p, d), axes)
        for k in range(1, n + 1)
        for axes in itertools.combinations(range(n), k)
        for d in cube_vertices(Cube((0,) * n, axes))
        for p in mset
    )
    return _order_complex(n, mset, dict.fromkeys(cubes), pair)


def reduce_complex(
    k: SimplicialComplex, m: Iterable[Point], pair: AdjacencyPair
) -> SimplicialComplex:
    """Drop barycenters of cubes whose in-cube background is one piece."""
    removed = {barycenter(t.cube) for t in reduction_trace(k, m, pair) if not t.barycenter_kept}
    simplices = frozenset(s for s in k.simplices if not any(v in removed for v in s))
    provenance = {c: cube for c, cube in k.provenance.items() if c not in removed}
    return SimplicialComplex(k.n, simplices, provenance)


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
    table: ShapeTable = {}
    out = []
    for center, cube in sorted(k.provenance.items()):
        count = _shape_verdict(cube, mset, pair, table)[1]
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
    labels: dict[HalfPoint, HalfPoint] = {}
    for start in sorted(vertices):
        if start in labels:
            continue
        comp = {start}
        stack = [start]
        while stack:
            p = stack.pop()
            for q in edges[p]:
                if q not in comp:
                    comp.add(q)
                    stack.append(q)
        cid = min(comp)
        for p in comp:
            labels[p] = cid
    return ComponentLabeling(labels)


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


def verify_complex_axioms(
    k: SimplicialComplex,
) -> tuple[bool, Optional[dict]]:
    """Check affine independence, face closure and open disjointness.

    Returns (True, None) or (False, witness).  Disjointness runs the exact
    rational intersection test on every later simplex in a shared lattice
    cell whose open projections meet the first one's on every axis; both
    filters are necessary conditions, and pairs are visited in sorted
    order, so the witness is the first intersecting pair in that order.
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
    boxes = [_bbox2(s) for s in simplices]
    open_boxes = [_open_box(box) for box in boxes]
    buckets = _buckets(boxes)
    for i, s in enumerate(simplices):
        later = sorted({j for cell in _cells(boxes[i]) for j in buckets[cell] if j > i})
        for j in later:
            t = simplices[j]
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
    n = region.n
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
    seen: set[tuple[int, ...]] = set()
    chambers = 0
    for cell in sorted(free):
        if cell in seen:
            continue
        chambers += 1
        stack = [cell]
        seen.add(cell)
        while stack:
            cur = stack.pop()
            for axis in range(n):
                for delta in (-1, 1):
                    nxt = tuple(
                        c + (delta if i == axis else 0) for i, c in enumerate(cur)
                    )
                    if nxt in free and nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
    return chambers


def complex_to_json(k: SimplicialComplex) -> dict:
    """Stable JSON form: doubled-integer vertices, index lists, provenance."""
    vertices = k.vertices()
    index = {v: i for i, v in enumerate(vertices)}
    simplices = sorted(sorted(index[v] for v in s) for s in k.simplices)
    provenance = {
        str(index[c]): {"base": list(cube.base), "axes": list(cube.axes)}
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
