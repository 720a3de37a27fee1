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
from bisect import bisect
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from operator import sub
from typing import AbstractSet, Iterable, Iterator, Optional

from ._exact import integer_rank, open_simplices_intersect, point_in_closed_simplex
from .adjacency import (
    AdjacencyPair,
    ComponentLabeling,
    Region,
    axis_adjacency,
    components,
    label,
    masked_components,
    neighbour_bits,
)
from .lattice import (
    Cube,
    HalfGrid,
    HalfPoint,
    Point,
    Shapes,
    barycenter,
    bounding_box,
    corners,
    cube_of_barycenter,
    double,
    half_corners,
    half_keys,
    is_lattice2,
    occupancy,
    shapes_meeting,
    subcubes,
)

Simplex = tuple[HalfPoint, ...]  # canonical: vertices sorted, distinct
Row = tuple[int, ...]  # a simplex as sorted ids into a vertex table
Box = tuple[HalfPoint, HalfPoint]


@dataclass(frozen=True)
class SimplicialComplex:
    """A face-closed set of simplices on the half-integer grid: the sorted
    ``rows`` of ids into the sorted vertex ``table``.  Ids are monotone in
    the points, so rows sort as the simplices they name."""

    n: int
    table: tuple[HalfPoint, ...]
    rows: tuple[Row, ...]

    @classmethod
    def of(cls, n: int, simplices: Iterable[Simplex]) -> "SimplicialComplex":
        """The complex of these simplices: each a non-empty tuple of vertices,
        each vertex a tuple of ``n`` int (not bool) doubled coordinates."""
        simplices = set(simplices)
        for s in simplices:
            if not s or not all(type(v) is tuple and len(v) == n and all(type(c) is int for c in v) for v in s):
                raise ValueError(f"not a simplex of {n}-dimensional doubled int vertices: {s!r}")
        table = tuple(sorted({v for s in simplices for v in s}))
        index = {v: i for i, v in enumerate(table)}
        return cls(n, table, tuple(sorted(tuple(map(index.__getitem__, s)) for s in simplices)))

    @cached_property
    def simplices(self) -> frozenset[Simplex]:
        return frozenset(self.points(r) for r in self.rows)

    @cached_property
    def provenance(self) -> dict[HalfPoint, Cube]:
        return {v: cube_of_barycenter(v) for v in self.table if not is_lattice2(v)}

    def points(self, row: Row) -> Simplex:
        return tuple(map(self.table.__getitem__, row))

    def vertices(self) -> tuple[HalfPoint, ...]:
        return self.table

    def lattice_vertices(self) -> tuple[Point, ...]:
        return tuple(tuple(c // 2 for c in v) for v in self.table if is_lattice2(v))

    def __len__(self) -> int:
        return len(self.rows)


@lru_cache(maxsize=None)
def _shape_verdict(pair: AdjacencyPair, axes: tuple[int, ...], mask: int) -> tuple[bool, int]:
    """Barycenter verdict and in-cube background component count of a cube shape.

    Adjacency is translation-invariant, so both depend only on the cube's
    axes and on which of its vertices are foreground; they are decided on
    the shape's ``corners``, so each shape is flooded once.  A 0-cube
    passes iff its point is foreground, with no background piece.
    """
    pts = corners(pair.n, axes)
    background = tuple(masked_components(pair.beta, pts, ~mask))
    alpha, last = neighbour_bits(pair.alpha, pts), len(pts) - 1  # last - i: i's antipode
    passed = not background or any(
        alpha[i] >> last - i & 1 if mask >> i & 1 else not any(c >> i & c >> last - i & 1 for c in background)
        for i in range(len(pts) // 2)
        if mask >> i & 1 == mask >> last - i & 1
    )
    return passed, len(background)


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


def _passing(grid: HalfGrid, shapes: Iterable[Shapes], pair: AdjacencyPair) -> Iterator[tuple]:
    """(barycenter, axes, mask, kept, face offsets) of the passing cubes: the
    barycenter is a key, a face's key is the barycenter plus its offset, and
    ``kept`` says whether K'(M) keeps the barycenter.  Each distinct shape
    of one ``shapes_meeting`` group is decided once."""
    faces = grid.deltas(_face_offsets)
    for axes, masks in shapes:
        verdicts = {mask: _shape_verdict(pair, axes, mask) for mask in set(masks.values())}
        offsets = faces(axes)
        for center, mask in masks.items():
            passed, count = verdicts[mask]
            if passed:
                yield center, axes, mask, count != 1, offsets


def _passing_cubes(m: Iterable[Point], pair: AdjacencyPair) -> tuple[HalfGrid, list[int], Iterator[tuple]]:
    """The grid, the keys of the points of ``m`` and ``_passing`` over the
    cubes that meet ``m``, by dimension: any other cube fails the test."""
    grid, keys = half_keys(frozenset(m), pair.n)
    shapes = itertools.chain.from_iterable(shapes_meeting(grid, keys, k) for k in range(1, grid.n + 1))
    return grid, keys, _passing(grid, shapes, pair)


def _grown(chains: list[Row], top: int) -> list[Row]:
    """The sorted chains with ``top`` inserted in order."""
    return [ch[:i] + (top,) + ch[i:] for ch in chains for i in [bisect(ch, top)]]


def _without(k: SimplicialComplex, dropped: AbstractSet[int]) -> SimplicialComplex:
    """``k`` minus the vertices of these ids and every simplex through them.
    The kept ids keep their order, so the rows stay sorted."""
    if not dropped:
        return k
    left = [i for i in range(len(k.table)) if i not in dropped]
    remap = {i: j for j, i in enumerate(left)}.__getitem__
    rows = tuple(tuple(map(remap, r)) for r in k.rows if dropped.isdisjoint(r))
    return SimplicialComplex(k.n, tuple(map(k.table.__getitem__, left)), rows)


def _order_complex(grid: HalfGrid, points: list[int], cubes: Iterable[tuple]) -> tuple[SimplicialComplex, set[int]]:
    """K(M) of these passing cubes, the chains c0 < c1 < ... < ck of the
    cubes plus the points of the set (their keys), and the ids of the
    barycenters that K'(M) drops, the cubes not kept.

    ``cubes`` comes from ``_passing``, in order of dimension, and holds
    every passing face of dimension >= 1 of each of its cubes.  Vertices
    are numbered before any chain grows, in key order, which is point
    order; a chain is sorted ids, keyed by the barycenter of its top cube.
    The rows are bucketed by first id and each bucket sorted: one sort's order.
    """
    cubes = list(cubes)
    keys = sorted(points + [c[0] for c in cubes])
    ids = {h: i for i, h in enumerate(keys)}
    corners = grid.deltas(half_corners)
    chains: dict[int, list[Row]] = {}
    for center, axes, mask, _, faces in cubes:
        top = ids[center]
        below = [(ids[center + e],) for i, e in enumerate(corners(axes)) if mask >> i & 1]
        for f in faces:
            below += chains.get(center + f, ())
        chains[center] = [(top,)] + _grown(below, top)
    first: list[list[Row]] = [[] for _ in keys]
    for h in points:
        first[ids[h]].append((ids[h],))
    for ch in itertools.chain.from_iterable(chains.values()):
        first[ch[0]].append(ch)
    rows = tuple(itertools.chain.from_iterable(map(sorted, first)))
    k = SimplicialComplex(grid.n, tuple(map(grid.point, keys)), rows)
    return k, {ids[c[0]] for c in cubes if not c[3]}


def build_complex(m: Iterable[Point], pair: AdjacencyPair) -> SimplicialComplex:
    """K(M): the order complex of the cubes that pass the barycenter test."""
    return _order_complex(*_passing_cubes(m, pair))[0]


def build_complexes(m: Iterable[Point], pair: AdjacencyPair) -> tuple[SimplicialComplex, SimplicialComplex]:
    """K(M) and K'(M) from one enumeration of the chains."""
    full, dropped = _order_complex(*_passing_cubes(m, pair))
    return full, _without(full, dropped)


def build_reduced_complex(m: Iterable[Point], pair: AdjacencyPair) -> SimplicialComplex:
    """K'(M) alone: the chains of the passing cubes that keep their barycenters."""
    grid, keys, cubes = _passing_cubes(m, pair)
    return _order_complex(grid, keys, (c for c in cubes if c[3]))[0]


def reduce_complex(k: SimplicialComplex, m: Iterable[Point], pair: AdjacencyPair) -> SimplicialComplex:
    """``k`` minus every vertex whose cube, under ``m``'s occupancy, fails
    the barycenter test or has one background piece, and every simplex
    through them: the points outside ``m``, the cubes ``m`` does not pass
    and the barycenters K'(M) drops.  On K(M), or on K of a superset of M,
    this is K'(M)."""
    verdict = lru_cache(maxsize=None)(partial(_shape_verdict, pair))  # hashes no pair
    mset = frozenset(m)
    shapes = (verdict(c.axes, occupancy(c, mset)) for c in map(cube_of_barycenter, k.table))
    return _without(k, {i for i, (passed, count) in enumerate(shapes) if not passed or count == 1})


def euler_characteristics(m: Iterable[Point], pair: AdjacencyPair) -> tuple[int, int]:
    """chi(K(M)) and chi(K'(M)), no chain built: each point of M is a chain,
    and the chains topped by a passing cube c add up to g(c) = 1 - |M in c|
    minus the g of its passing faces of dimension >= 1."""
    _, keys, cubes = _passing_cubes(m, pair)
    g: list[dict[int, int]] = [{}, {}]  # K, K'
    for center, _, mask, keep, faces in cubes:
        for chi in g[: 1 + keep]:
            chi[center] = 1 - mask.bit_count() - sum(chi.get(center + f, 0) for f in faces)
    return len(keys) + sum(g[0].values()), len(keys) + sum(g[1].values())


def euler_characteristic(k: SimplicialComplex) -> int:
    """Alternating sum of simplex counts by dimension."""
    return sum(1 if len(r) % 2 else -1 for r in k.rows)


def skeleton_components(k: SimplicialComplex) -> ComponentLabeling:
    """Components of the vertex-edge graph of the complex."""
    edges: list[list[int]] = [[] for _ in k.table]
    for a, b in (r for r in k.rows if len(r) == 2):
        edges[a].append(b)
        edges[b].append(a)
    ids, sizes = label(bytearray(b"\1") * len(k.table), lambda fr: [j for i in fr for j in edges[i]])
    index = {v: i for i, v in enumerate(k.table)}
    return ComponentLabeling(ids, sizes, lambda v: index.get(v, -1), k.table.__getitem__)


def _bboxes_overlap(a: Box, b: Box) -> bool:
    return all(al <= bh and bl <= ah for al, ah, bl, bh in zip(a[0], a[1], b[0], b[1]))


def _open_box(box: Box) -> Box:
    """Projections of the open simplex with this doubled bounding box.

    Linear maps send relative interiors onto relative interiors, so on each
    axis the open simplex projects to (lo, hi), or to lo when lo == hi.  As
    the ends are integers, (lo, hi) doubled is exactly [2 lo + 1, 2 hi - 1].
    """
    lo, hi = box
    return tuple(2 * a + (a < b) for a, b in zip(lo, hi)), tuple(2 * b - (a < b) for a, b in zip(lo, hi))


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


def _is_face(a: HalfPoint, b: HalfPoint) -> bool:
    """Is the cube of barycenter ``a`` a face of the cube of ``b``?

    A doubled vertex is the barycenter of the cube whose free axes are its
    odd coordinates, and that cube spans [x - x % 2, x + x % 2] on each
    axis; a cube is a face of another iff its spans lie in the other's.
    """
    return all(abs(x - y) <= (y & 1) - (x & 1) for x, y in zip(a, b))


def _chain_flags(k: SimplicialComplex) -> list[bool]:
    """Is each row of ``k`` the barycenters of a strict chain of lattice cubes?

    A row is one when its vertices, ordered by their cubes' dimensions (the
    odd coordinates), have distinct dimensions and each is a face of the
    next.  The face test runs once per distinct (lower id, upper id) pair.
    A lone vertex is a chain, and a chain never repeats a vertex.
    """
    dims = [sum(c & 1 for c in v) for v in k.table]
    faces: dict[tuple[int, int], bool] = {}
    flags = []
    for r in k.rows:
        r = sorted(r, key=dims.__getitem__)
        chain = True
        for pair in zip(r, r[1:]):
            face = faces.get(pair)
            if face is None:
                a, b = pair
                face = faces[pair] = dims[a] < dims[b] and _is_face(k.table[a], k.table[b])
            if not face:
                chain = False
                break
        flags.append(chain)
    return flags


def verify_complex_axioms(k: SimplicialComplex) -> tuple[bool, Optional[dict]]:
    """Check affine independence, face closure and open disjointness.

    Returns (True, None) or (False, witness).  The barycentric subdivision
    of the lattice's cube complex is a triangulation, so a strict cube
    chain has distinct, affinely independent vertices, and the open
    simplices of two distinct chains never meet (Rourke and Sanderson,
    *Introduction to Piecewise-Linear Topology*, ch. 2).  So only the rows
    that are not chains are decoded for the repeated-vertex and rank
    tests, and each pair with such a row that shares a lattice cell, and
    whose open projections meet on every axis, gets the exact rational
    intersection test; both filters are necessary conditions, and pairs are
    visited in sorted order, so the witness is the first intersecting pair
    in that order.
    """
    chains = _chain_flags(k)
    others = [i for i, chain in enumerate(chains) if not chain]
    for s in (k.points(k.rows[i]) for i in others):
        if len(set(s)) != len(s):
            return False, {"kind": "repeated-vertex", "simplex": [list(v) for v in s]}
        rows = [[v[i] - s[0][i] for i in range(len(s[0]))] for v in s[1:]]
        if integer_rank(rows) != len(s) - 1:
            return False, {"kind": "affinely-dependent", "simplex": [list(v) for v in s]}
    rset = set(k.rows)
    for r in k.rows:
        for size in range(1, len(r)):
            for face in itertools.combinations(r, size):
                if face not in rset:
                    face = [list(v) for v in k.points(face)]
                    return False, {"kind": "missing-face", "simplex": [list(v) for v in k.points(r)], "face": face}
    if not others:
        return True, None
    simplices = list(map(k.points, k.rows))  # every box, for the pairs of the others
    boxes = list(map(bounding_box, simplices))
    open_boxes = [_open_box(box) for box in boxes]
    buckets = _buckets(boxes)
    pairs = {(min(i, j), max(i, j)) for i in others for cell in _cells(boxes[i]) for j in buckets[cell] if j != i}
    for i, j in sorted(pairs):
        s, t = simplices[i], simplices[j]
        if _bboxes_overlap(open_boxes[i], open_boxes[j]) and open_simplices_intersect(s, t):
            return False, {"kind": "open-intersection", "simplex": [list(v) for v in s], "other": [list(v) for v in t]}
    return True, None


def lattice_correspondence(k: SimplicialComplex, m: Iterable[Point]) -> tuple[bool, Optional[dict]]:
    """The lattice points of the realization are exactly the foreground.

    Checks that lattice vertices equal the set and that no simplex of
    dimension >= 1 passes through any other lattice point.  A strict cube
    chain, a simplex of the barycentric subdivision, meets the lattice in
    its vertices only, so only the rows that are not chains are decoded.
    """
    mset = frozenset(m)
    if set(k.lattice_vertices()) != mset:
        return False, {"kind": "lattice-vertex-mismatch", "vertices": [list(v) for v in k.lattice_vertices()]}
    for r, chain in zip(k.rows, _chain_flags(k)):
        if chain:
            continue
        s = k.points(r)
        # the lattice points inside the doubled box
        for p in itertools.product(*(range((l + 1) // 2, h // 2 + 1) for l, h in zip(*bounding_box(s)))):
            h = double(p)
            if h not in s and point_in_closed_simplex(s, h):
                return False, {"kind": "lattice-point-inside-simplex", "simplex": [list(v) for v in s], "point": list(p)}
    return True, None


def realization_chambers(k: SimplicialComplex, region: Region) -> int:
    """Chambers of the complement of the realization on the half-step grid.

    A grid point of step one half is blocked when it lies on some closed
    simplex; chambers are the axis-connected components of the unblocked
    points.  Any half-step crossing of the realization passes exactly
    through a blocked point, so the count matches the complement's
    chambers.  Exact arithmetic throughout.
    """
    simplices = list(map(k.points, k.rows))
    boxes = list(map(bounding_box, simplices))
    buckets = _buckets(boxes)
    free: set[tuple[int, ...]] = set()
    for x2 in itertools.product(*(range(2 * a, 2 * b + 1) for a, b in zip(region.lo, region.hi))):
        cell = tuple(c // 2 for c in x2)
        if not any(
            _bboxes_overlap(boxes[i], (x2, x2))
            and point_in_closed_simplex(simplices[i], x2)
            for i in buckets.get(cell, ())
        ):
            free.add(x2)
    return components(axis_adjacency(region.n), free).count


def complex_to_json(k: SimplicialComplex) -> dict:
    """Stable JSON form: doubled-integer vertices, index rows, provenance.
    The vertex table and the rows are the complex's own tuples, not copies;
    ``json.dumps`` writes a tuple as a list."""
    return {
        "n": k.n,
        "vertices": k.table,
        "simplices": k.rows,
        # cube_of_barycenter(v).to_json(), read off the doubled coordinates
        "provenance": {
            str(i): {"base": [c >> 1 for c in v], "axes": axes}
            for i, v in enumerate(k.table)
            if (axes := [j for j, c in enumerate(v) if c & 1])
        },
    }


def complex_to_off(k: SimplicialComplex) -> tuple[str, int]:
    """OFF text for the triangles of a three-dimensional complex.

    Returns the file text and the number of 0/1-simplices it omits.
    """
    if k.n != 3:
        raise ValueError("OFF export is defined for three-dimensional complexes only")
    triangles = [r for r in k.rows if len(r) == 3]
    lines = ["OFF", f"{len(k.table)} {len(triangles)} 0"]
    lines += (" ".join(f"{c / 2:.1f}" for c in v) for v in k.table)
    lines += ("3 " + " ".join(map(str, t)) for t in triangles)
    return "\n".join(lines) + "\n", sum(1 for r in k.rows if len(r) < 3)
