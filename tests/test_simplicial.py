import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from digitop import simplicial
from digitop._exact import integer_rank, open_simplices_intersect, point_in_closed_simplex
from digitop.adjacency import (
    AdjacencyPair,
    Region,
    axis_adjacency,
    components,
    custom_adjacency,
    full_adjacency,
)
from digitop.jordan import box_surface, rect_boundary, sphere_shell
from digitop.lattice import (
    Cube,
    HalfGrid,
    barycenter,
    bounding_box,
    cube_of_barycenter,
    cube_vertices,
    cubes_meeting_box,
    double,
    half_corners,
    occupancy,
    subcubes,
)
from digitop.simplicial import (
    SimplicialComplex,
    _bboxes_overlap,
    _buckets,
    _cells,
    _face_offsets,
    _chain_flags,
    _open_box,
    _order_complex,
    _passing,
    _shape_verdict,
    build_complex,
    build_complexes,
    build_reduced_complex,
    complex_to_json,
    complex_to_off,
    euler_characteristic,
    euler_characteristics,
    lattice_correspondence,
    realization_chambers,
    reduce_complex,
    skeleton_components,
    barycenter_test,
    verify_complex_axioms,
)
from test_adjacency import counted_oracle, counts
from test_lattice import box2, shapes_meeting_oracle

AXIS_FULL_2 = AdjacencyPair(axis_adjacency(2), full_adjacency(2))
FULL_AXIS_2 = AdjacencyPair(full_adjacency(2), axis_adjacency(2))
AXIS_FULL_3 = AdjacencyPair(axis_adjacency(3), full_adjacency(3))
FULL_AXIS_3 = AdjacencyPair(full_adjacency(3), axis_adjacency(3))

UNIT_SQUARE = Cube((0, 0), (0, 1))
UNIT_EDGE = Cube((0, 0), (0,))
# Only the diagonals of the (x, y) planes: squares in other planes differ, so
# a verdict keyed without the axes would show.
XY_DIAGONALS_3 = custom_adjacency(
    3, [v for v in itertools.product((-1, 0, 1), repeat=3) if any(v) and (v[2] == 0 or v.count(0) == 2)]
)
PAIRS = {
    n: [AdjacencyPair(a(n), b(n)) for a in (axis_adjacency, full_adjacency)
        for b in (axis_adjacency, full_adjacency)]
    for n in (2, 3)
}
PAIRS[3].append(AdjacencyPair(XY_DIAGONALS_3, full_adjacency(3)))


# Oracles: the per-n-cube coning construction of K(M) and K'(M), the chain
# enumeration on point tuples, and the all-pairs axiom check, kept as the slow
# references for the fast paths.  A construction oracle returns the simplices
# and the provenance it built itself, {doubled barycenter: cube}.


def by_dim(simplices):
    """The simplices grouped by dimension, each group sorted."""
    out = {}
    for s in simplices:
        out.setdefault(len(s) - 1, []).append(s)
    return {d: sorted(ss) for d, ss in sorted(out.items())}


def barycenter_test_oracle(c, mset, pair):
    verts = cube_vertices(c)
    if all(v in mset for v in verts):
        return True
    span = barycenter(c)
    for v in verts:
        opposite = tuple(s - x for s, x in zip(span, v))
        if opposite > v and v in mset and opposite in mset and pair.alpha.adjacent(v, opposite):
            return True
    free = [v for v in verts if v not in mset]
    if len(free) < 2:
        return False
    labeling = components(pair.beta, free)
    for v in free:
        opposite = tuple(s - x for s, x in zip(span, v))
        if opposite > v and opposite not in mset and labeling[v] != labeling[opposite]:
            return True
    return False


def build_complex_oracle(m, pair):
    """Every passing face of every n-cube meeting the set cones its barycenter
    over the simplices already built inside its closed box."""
    mset = frozenset(m)
    n = pair.n
    if not mset:
        return frozenset(), {}
    lo, hi = bounding_box(mset)
    simplices = set()
    provenance = {}
    for cn in cubes_meeting_box(tuple(c - 1 for c in lo), tuple(c + 1 for c in hi), n, n):
        local = mset & frozenset(cube_vertices(cn))
        if not local:
            continue
        built = [(double(p),) for p in sorted(local)]
        for k in range(1, n + 1):
            for c in subcubes(cn, k):
                if not barycenter_test_oracle(c, local, pair):
                    continue
                center = barycenter(c)
                provenance[center] = c
                box_lo, box_hi = box2(c)
                new = [(center,)]
                for s in built:
                    if center not in s and all(
                        all(a <= x <= b for a, x, b in zip(box_lo, v, box_hi)) for v in s
                    ):
                        new.append(tuple(sorted(s + (center,))))
                built.extend(new)
        simplices.update(built)
    return frozenset(simplices), provenance


def reduce_complex_oracle(k, m, pair):
    simplices, provenance = k
    mset = frozenset(m)

    def background_count(cube):
        free = [v for v in cube_vertices(cube) if v not in mset]
        return components(pair.beta, free).count if free else 0

    removed = {c for c, cube in provenance.items() if background_count(cube) == 1}
    kept = frozenset(s for s in simplices if not any(v in removed for v in s))
    return kept, {c: cube for c, cube in provenance.items() if c not in removed}


def reduce_complex_rechaining_oracle(k, m, pair):
    """K'(M) from the cubes of k: the chains of those that pass and keep
    their barycenters under m, enumerated again on a grid widened to k's
    barycenters, so that no two of them share a key."""
    doubled = [double(p) for p in frozenset(m)]
    grid = HalfGrid.around(doubled + list(k.provenance), k.n)
    keys = [grid.key(h) for h in doubled]
    on, corners = set(keys), grid.deltas(half_corners)
    shapes = []
    for h, c in sorted(k.provenance.items(), key=lambda hc: hc[1].dim):
        center = grid.key(h)
        shapes.append((c.axes, {center: sum(1 << i for i, e in enumerate(corners(c.axes)) if center + e in on)}))
    return _order_complex(grid, keys, [c for c in _passing(grid, shapes, pair) if c[3]])[0]


def order_complex_oracle(m, pair):
    """K(M) and K'(M) from one enumeration of the chains, each chain a sorted
    tuple of points, keyed by the barycenter of its top cube."""
    mset, n = frozenset(m), pair.n
    kept, lost, provenance = {}, {}, {}
    for k in range(1, n + 1):
        for center, axes, mask in shapes_meeting_oracle(mset, k, n):
            passed, count = _shape_verdict(pair, axes, mask)
            if not passed:
                continue
            provenance[center] = cube_of_barycenter(center)
            faces = [tuple(a + b for a, b in zip(center, d)) for d in _face_offsets(n, axes)]
            below = [
                (tuple(a + b for a, b in zip(center, e)),)
                for i, e in enumerate(half_corners(n, axes))
                if mask >> i & 1
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
    reduced = frozenset(itertools.chain(((double(p),) for p in mset), *kept.values()))
    return (
        (reduced.union(*lost.values()), provenance),
        (reduced, {h: c for h, c in provenance.items() if h in kept}),
    )


def complex_to_json_oracle(n, simplices, provenance):
    """The JSON form of a complex given as point tuples and its provenance."""
    vertices = sorted({v for s in simplices for v in s})
    index = {v: i for i, v in enumerate(vertices)}
    return {
        "n": n,
        "vertices": [list(v) for v in vertices],
        "simplices": sorted([index[v] for v in s] for s in simplices),
        "provenance": {str(index[c]): cube.to_json() for c, cube in sorted(provenance.items())},
    }


def _ranks_and_faces_oracle(simplices, sset):
    """The first repeated-vertex, affinely-dependent or missing-face witness
    in sorted order, with the rank test on every simplex; None if none."""
    for s in simplices:
        if len(set(s)) != len(s):
            return {"kind": "repeated-vertex", "simplex": [list(v) for v in s]}
        if len(s) > 1:
            rows = [[v[i] - s[0][i] for i in range(len(s[0]))] for v in s[1:]]
            if integer_rank(rows) != len(s) - 1:
                return {"kind": "affinely-dependent", "simplex": [list(v) for v in s]}
    for s in simplices:
        for size in range(1, len(s)):
            for face in itertools.combinations(s, size):
                if face not in sset:
                    return {"kind": "missing-face", "simplex": [list(v) for v in s], "face": [list(v) for v in face]}
    return None


def verify_complex_axioms_oracle(k):
    """The axiom check with the all-pairs scan over overlapping closed boxes."""
    simplices = sorted(k.simplices)
    witness = _ranks_and_faces_oracle(simplices, k.simplices)
    if witness:
        return False, witness
    boxes = {s: (tuple(map(min, zip(*s))), tuple(map(max, zip(*s)))) for s in simplices}
    for i, s in enumerate(simplices):
        for t in simplices[i + 1 :]:
            (al, ah), (bl, bh) = boxes[s], boxes[t]
            if not all(a <= d and c <= b for a, b, c, d in zip(al, ah, bl, bh)):
                continue
            if open_simplices_intersect(s, t):
                return False, {
                    "kind": "open-intersection",
                    "simplex": [list(v) for v in s],
                    "other": [list(v) for v in t],
                }
    return True, None


def is_chain_oracle(s):
    """The replaced ``simplicial._is_chain``: are the vertices of the point
    tuple the barycenters of a strict chain of lattice cubes?  A doubled
    vertex is the barycenter of the cube whose free axes are its odd
    coordinates, spanning [x - x % 2, x + x % 2] on each axis; a cube is a
    face of another iff its spans lie in the other's."""
    cubes = sorted((sum(c & 1 for c in v), v) for v in s)
    return all(
        da < db and all(abs(x - y) <= (y & 1) - (x & 1) for x, y in zip(a, b))
        for (da, a), (db, b) in zip(cubes, cubes[1:])
    )


def verify_complex_axioms_ranked_oracle(k):
    """The bucketed axiom check that gives every simplex the rank test."""
    simplices = sorted(k.simplices)
    witness = _ranks_and_faces_oracle(simplices, k.simplices)
    if witness:
        return False, witness
    others = [i for i, s in enumerate(simplices) if not is_chain_oracle(s)]
    boxes = [bounding_box(s) for s in simplices]
    open_boxes = [_open_box(box) for box in boxes]
    buckets = _buckets(boxes)
    pairs = {(min(i, j), max(i, j)) for i in others for cell in _cells(boxes[i]) for j in buckets[cell] if j != i}
    for i, j in sorted(pairs):
        s, t = simplices[i], simplices[j]
        if _bboxes_overlap(open_boxes[i], open_boxes[j]) and open_simplices_intersect(s, t):
            return False, {"kind": "open-intersection", "simplex": [list(v) for v in s], "other": [list(v) for v in t]}
    return True, None


def lattice_correspondence_oracle(k, m):
    """The correspondence check that scans the box of every simplex."""
    mset = frozenset(m)
    if set(k.lattice_vertices()) != mset:
        return False, {"kind": "lattice-vertex-mismatch", "vertices": [list(v) for v in k.lattice_vertices()]}
    for s in sorted(k.simplices):
        if len(s) < 2:
            continue
        lo, hi = bounding_box(s)
        for p in itertools.product(*(range((l + 1) // 2, h // 2 + 1) for l, h in zip(lo, hi))):
            h = double(p)
            if h not in s and point_in_closed_simplex(s, [Fraction(c) for c in h]):
                return False, {
                    "kind": "lattice-point-inside-simplex",
                    "simplex": [list(v) for v in s],
                    "point": list(p),
                }
    return True, None


@st.composite
def boxed_sets(draw, max_fill=1.0):
    """A random subset of a 4x4 or 3x3x3 box, translated, under one of the
    four axis/full pairs (or, in Z^3, the (x, y)-diagonal pair); at most
    ``max_fill`` of the box is foreground."""
    sides = draw(st.sampled_from([(4, 4), (3, 3, 3)]))
    cells = list(itertools.product(*(range(s) for s in sides)))
    chosen = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    assume(sum(chosen) <= max_fill * len(cells))
    shift = draw(st.tuples(*[st.integers(-5, 5)] * len(sides)))
    pair = draw(st.sampled_from(PAIRS[len(sides)]))
    m = frozenset(
        tuple(a + b for a, b in zip(p, shift)) for p, keep in zip(cells, chosen) if keep
    )
    return m, pair


def test_edge_in_foreground_passes():
    assert barycenter_test(UNIT_EDGE, {(0, 0), (1, 0)}, FULL_AXIS_2)
    assert barycenter_test(UNIT_EDGE, {(0, 0), (1, 0)}, AXIS_FULL_2)


def test_square_with_foreground_diagonal_passes_under_full():
    assert barycenter_test(UNIT_SQUARE, {(0, 0), (1, 1)}, FULL_AXIS_2)


def test_empty_square_fails():
    assert not barycenter_test(UNIT_SQUARE, set(), FULL_AXIS_2)
    assert not barycenter_test(UNIT_SQUARE, set(), AXIS_FULL_2)


def test_square_with_background_diagonal_split():
    # foreground diagonal isolates the two background corners from each other
    m = {(0, 0), (1, 1)}
    assert barycenter_test(UNIT_SQUARE, m, FULL_AXIS_2)
    pair = AdjacencyPair(axis_adjacency(2), axis_adjacency(2))
    # under an axis background the white diagonal is split inside the square
    assert barycenter_test(UNIT_SQUARE, m, pair)


def test_square_contained_in_foreground_passes_with_axis_alpha():
    m = {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert barycenter_test(UNIT_SQUARE, m, AXIS_FULL_2)


def test_T_rejects_points():
    with pytest.raises(ValueError):
        barycenter_test(Cube((0, 0), ()), {(0, 0)}, FULL_AXIS_2)


def build_complex_in_cube(cn, m, pair):
    """The complex of the foreground restricted to one cube: the chains of
    its passing faces."""
    mset = frozenset(m) & frozenset(cube_vertices(cn))
    grid = HalfGrid.around([barycenter(cn)], cn.n)
    keys = [grid.key(double(p)) for p in mset]
    faces = [
        (f.axes, {grid.key(barycenter(f)): occupancy(f, mset)}) for k in range(1, cn.dim + 1) for f in subcubes(cn, k)
    ]
    return _order_complex(grid, keys, _passing(grid, faces, pair))[0]


def test_build_in_square_two_points():
    m = {(0, 0), (1, 0)}
    k = build_complex_in_cube(UNIT_SQUARE, m, FULL_AXIS_2)
    verts = {v for s in k.simplices for v in s}
    assert verts == {(0, 0), (2, 0), (1, 0)}  # doubled: two points and the edge center
    assert sum(1 for s in k.simplices if len(s) == 2) == 2
    assert sum(1 for s in k.simplices if len(s) == 3) == 0


def test_build_in_square_three_points_has_triangles():
    m = {(0, 0), (1, 0), (1, 1)}
    k = build_complex_in_cube(UNIT_SQUARE, m, FULL_AXIS_2)
    dims = {d: len(s) for d, s in by_dim(k.simplices).items()}
    assert ((1, 1),) in k.simplices  # the square's center joins
    assert dims[2] == 4


def test_build_empty_is_empty():
    assert len(build_complex(set(), FULL_AXIS_2)) == 0


def test_build_single_point():
    k = build_complex({(7, 7)}, FULL_AXIS_2)
    assert set(k.simplices) == {((14, 14),)}


def test_shared_edge_contributed_once():
    m = {(0, 0), (1, 0)}
    k = build_complex(m, FULL_AXIS_2)
    edge_center = ((1, 0),)
    occurrences = [s for s in k.simplices if s == edge_center]
    assert len(occurrences) == 1


def test_reduce_drops_filled_square_center():
    m = {(0, 0), (1, 0), (1, 1)}
    k = build_complex(m, FULL_AXIS_2)
    reduced = reduce_complex(k, m, FULL_AXIS_2)
    assert ((1, 1),) in k.simplices
    assert ((1, 1),) not in reduced.simplices
    assert all(len(s) <= 2 for s in reduced.simplices)
    # the reduction preserves the homotopy surrogates
    assert euler_characteristic(k) == euler_characteristic(reduced) == 1
    assert skeleton_components(k).count == skeleton_components(reduced).count == 1


def test_reduce_keeps_split_squares():
    ring = rect_boundary(5, 5)
    k = build_complex(ring, AXIS_FULL_2)
    reduced = reduce_complex(k, ring, AXIS_FULL_2)
    assert k.simplices == reduced.simplices


@pytest.mark.parametrize("pair", [FULL_AXIS_2, AXIS_FULL_2])
def test_reduce_complex_keys_cubes_of_k_far_from_the_set(pair):
    """The cubes of k near a far second piece meet no point of m and drop
    out; their keys must not alias cubes near m."""
    near = frozenset(rect_boundary(3, 4))
    for dx, dy in itertools.product((-12, 0, 12), repeat=2):
        far = frozenset((x + dx, y + dy) for x, y in rect_boundary(4, 3)) if dx or dy else frozenset()
        k = build_complex(near | far, pair)
        assert reduce_complex(k, near, pair) == build_reduced_complex(near, pair)


@st.composite
def nested_sets(draw):
    """M within M', both in a translated 4x4 or 3x3x3 box, under (axis,
    full) or (full, axis)."""
    sides = draw(st.sampled_from([(4, 4), (3, 3, 3)]))
    shift = draw(st.tuples(*[st.integers(-5, 5)] * len(sides)))
    cells = [tuple(map(sum, zip(p, shift))) for p in itertools.product(*(range(s) for s in sides))]
    outer = [p for p in cells if draw(st.booleans())]
    inner = [p for p in outer if draw(st.booleans())]
    n = len(sides)
    pair = draw(st.sampled_from([AdjacencyPair(axis_adjacency(n), full_adjacency(n)),
                                 AdjacencyPair(full_adjacency(n), axis_adjacency(n))]))
    return frozenset(inner), frozenset(outer), pair


@given(nested_sets())
@settings(max_examples=60, deadline=None)
def test_reduce_complex_matches_the_rechaining_oracle_on_a_superset(case):
    m, outer, pair = case
    k = build_complex(outer, pair)
    assert reduce_complex(k, m, pair) == reduce_complex_rechaining_oracle(k, m, pair)
    # a complex of a subset gains no chain: the result is a subcomplex of it
    small = build_complex(m, pair)
    assert reduce_complex(small, outer, pair).simplices <= small.simplices


def test_reduction_keeps_the_barycenters_of_split_cubes():
    m = {(0, 0), (1, 0), (1, 1)}
    k = build_complex(m, FULL_AXIS_2)
    reduced = reduce_complex(k, m, FULL_AXIS_2)
    counts = {}
    for center, cube in k.provenance.items():
        free = [v for v in cube_vertices(cube) if v not in m]
        counts[center] = components(FULL_AXIS_2.beta, free).count
        assert (center in reduced.vertices()) == (counts[center] != 1)
    assert counts == {(1, 0): 0, (2, 1): 0, (1, 1): 1}


def test_ring_complex_is_a_circle():
    ring = rect_boundary(5, 5)
    k = build_complex(ring, AXIS_FULL_2)
    reduced = reduce_complex(k, ring, AXIS_FULL_2)
    dims = {d: len(s) for d, s in by_dim(reduced.simplices).items()}
    assert dims == {0: 32, 1: 32}
    assert euler_characteristic(reduced) == 0


def test_verify_axioms_on_built_complexes():
    for m, pair in [
        (rect_boundary(5, 5), AXIS_FULL_2),
        ({(0, 0), (1, 0), (1, 1)}, FULL_AXIS_2),
    ]:
        k = build_complex(m, pair)
        ok, witness = verify_complex_axioms(k)
        assert ok, witness


def test_verify_axioms_empty():
    ok, _ = verify_complex_axioms(SimplicialComplex.of(2, ()))
    assert ok


def test_verify_axioms_catches_crossing_edges():
    bad = SimplicialComplex.of(
        2,
        frozenset(
            [
                ((0, 0),),
                ((2, 2),),
                ((0, 2),),
                ((2, 0),),
                ((0, 0), (2, 2)),
                ((0, 2), (2, 0)),
            ]
        ),
    )
    ok, witness = verify_complex_axioms(bad)
    assert not ok and witness["kind"] == "open-intersection"
    assert (ok, witness) == verify_complex_axioms_oracle(bad)


def test_verify_axioms_catches_missing_face():
    bad = SimplicialComplex.of(2, [((0, 0), (2, 0))])
    ok, witness = verify_complex_axioms(bad)
    assert not ok and witness["kind"] == "missing-face"


def test_verify_axioms_catches_an_affinely_dependent_simplex():
    # a point, the center of a square and the opposite corner lie on a line;
    # they are no cube chain, so the rank test still runs on them
    k = SimplicialComplex.of(2, _face_closure(((0, 0), (1, 1), (2, 2))))
    ok, witness = verify_complex_axioms(k)
    assert witness == {"kind": "affinely-dependent", "simplex": [[0, 0], [1, 1], [2, 2]]}
    assert (ok, witness) == verify_complex_axioms_ranked_oracle(k) == verify_complex_axioms_oracle(k)


def test_euler_characteristic_values():
    assert euler_characteristic(build_complex({(0, 0)}, FULL_AXIS_2)) == 1
    ring = rect_boundary(5, 5)
    k = reduce_complex(build_complex(ring, AXIS_FULL_2), ring, AXIS_FULL_2)
    assert euler_characteristic(k) == 0
    box = box_surface(3, 3, 3)
    kb = reduce_complex(build_complex(box, AXIS_FULL_3), box, AXIS_FULL_3)
    assert euler_characteristic(kb) == 2


def test_skeleton_components_counts():
    one = build_complex(rect_boundary(4, 4), AXIS_FULL_2)
    assert skeleton_components(one).count == 1
    two = build_complex({(0, 0), (5, 5)}, AXIS_FULL_2)
    assert skeleton_components(two).count == 2
    assert skeleton_components(SimplicialComplex.of(2, ())).count == 0


def skeleton_components_oracle(k):
    """Reference: a flood fill of its own over the vertex-edge graph."""
    vertices = set(k.vertices())
    edges = {v: set() for v in vertices}
    for s in k.simplices:
        if len(s) == 2:
            edges[s[0]].add(s[1])
            edges[s[1]].add(s[0])
    labels = {}
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
    return labels


@given(boxed_sets())
@settings(max_examples=60, deadline=None)
def test_skeleton_components_match_the_oracle(case):
    m, pair = case
    k = build_complex(m, pair)
    for c in (k, reduce_complex(k, m, pair)):
        got = skeleton_components(c)
        assert got.labels == skeleton_components_oracle(c)
        assert counts(got) == counted_oracle(got)
        assert got.infinite_ids == frozenset()
        assert (10**6,) * c.n not in got.labels and got.labels.get((10**6,) * c.n) is None  # not a vertex


def test_lattice_correspondence_ring():
    ring = rect_boundary(5, 5)
    k = build_complex(ring, AXIS_FULL_2)
    ok, witness = lattice_correspondence(k, ring)
    assert ok, witness


def test_lattice_vertices_other_than_the_set_are_a_mismatch():
    ring = rect_boundary(5, 5)
    k = build_complex(ring, AXIS_FULL_2)
    fewer = ring - {(0, 0)}
    witness = {"kind": "lattice-vertex-mismatch", "vertices": sorted(map(list, ring))}
    assert lattice_correspondence(k, fewer) == (False, witness) == lattice_correspondence_oracle(k, fewer)


def test_the_reduced_build_grows_no_chain_of_a_dropped_cube(monkeypatch):
    seen = []
    order_complex = simplicial._order_complex

    def spy(grid, points, cubes):
        seen.append(cubes := list(cubes))
        return order_complex(grid, points, cubes)

    monkeypatch.setattr(simplicial, "_order_complex", spy)
    box = box_surface(3, 3, 3)
    full, reduced = build_complexes(box, FULL_AXIS_3)
    assert build_reduced_complex(box, FULL_AXIS_3) == reduced != full
    passing, kept = seen
    assert kept == [c for c in passing if c[3]] != passing


def test_a_repeated_vertex_is_the_first_axiom_witness():
    # a row may name one vertex twice; the first such row is the witness
    k = SimplicialComplex(2, ((0, 0), (2, 0)), ((0,), (0, 0), (0, 1), (1,)))
    witness = {"kind": "repeated-vertex", "simplex": [[0, 0], [0, 0]]}
    assert verify_complex_axioms(k) == (False, witness)


def test_complement_chambers_match_background_components():
    ring = rect_boundary(5, 5)
    k = build_complex(ring, AXIS_FULL_2)
    region = Region.around(ring, 2)
    from digitop.adjacency import complement_components

    expected = complement_components(AXIS_FULL_2.beta, ring, region).count
    assert realization_chambers(k, region) == expected == 2


@given(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
@settings(max_examples=20, deadline=None)
def test_build_is_translation_equivariant(shift):
    m = {(0, 0), (1, 0), (1, 1)}
    moved = {tuple(a + b for a, b in zip(p, shift)) for p in m}
    base = build_complex(m, FULL_AXIS_2)
    translated = build_complex(moved, FULL_AXIS_2)
    d = tuple(2 * c for c in shift)
    expected = {
        tuple(tuple(a + b for a, b in zip(v, d)) for v in s) for s in base.simplices
    }
    assert translated.simplices == frozenset(expected)


def test_complex_json_shape():
    m = {(0, 0), (1, 0)}
    payload = complex_to_json(build_complex(m, FULL_AXIS_2))
    assert payload["n"] == 2
    assert payload["vertices"] == ((0, 0), (1, 0), (2, 0))
    assert (0,) in payload["simplices"] and (0, 1) in payload["simplices"]
    assert payload["provenance"]["1"] == {"base": [0, 0], "axes": [0]}


def test_off_export():
    box = box_surface(3, 3, 3)
    k = reduce_complex(build_complex(box, AXIS_FULL_3), box, AXIS_FULL_3)
    text, skipped = complex_to_off(k)
    lines = text.splitlines()
    assert lines[0] == "OFF"
    nv, nf, ne = map(int, lines[1].split())
    assert nv == len(k.vertices())
    assert nf == sum(1 for s in k.simplices if len(s) == 3)
    assert skipped == len(k) - nf
    with pytest.raises(ValueError):
        complex_to_off(build_complex({(0, 0)}, FULL_AXIS_2))


def test_no_top_dimension_simplices_in_reduced_corpus():
    ring = rect_boundary(5, 5)
    k2 = reduce_complex(build_complex(ring, AXIS_FULL_2), ring, AXIS_FULL_2)
    assert all(len(s) <= 2 for s in k2.simplices)
    box = box_surface(3, 3, 3)
    k3 = reduce_complex(build_complex(box, AXIS_FULL_3), box, AXIS_FULL_3)
    assert all(len(s) <= 3 for s in k3.simplices)


def _is_strict_chain(s, mset, provenance):
    """The vertices of s are a chain c0 < c1 < ... of cubes under the face
    order: points of the set, then barycenters of passing cubes."""
    cubes = sorted((cube_of_barycenter(v) for v in s), key=lambda c: c.dim)
    if any(c.base not in mset if c.dim == 0 else provenance.get(barycenter(c)) != c for c in cubes):
        return False
    return all(
        a.dim < b.dim and set(cube_vertices(a)) <= set(cube_vertices(b))
        for a, b in zip(cubes, cubes[1:])
    )


@given(boxed_sets())
@settings(max_examples=60, deadline=None)
def test_order_complex_matches_the_coning_oracle(case):
    m, pair = case
    k, oracle = build_complex(m, pair), build_complex_oracle(m, pair)
    _assert_matches_oracles(k, oracle, reduce_complex_oracle(oracle, m, pair), m, pair)
    assert all(_is_strict_chain(s, m, oracle[1]) for s in k.simplices)


def _assert_matches_oracles(k, oracle, oracle_reduced, m, pair):
    """K, K', build_reduced_complex and reduce_complex against an oracle's
    (simplices, provenance) for K and K'."""
    full, reduced = build_complexes(m, pair)
    for new, (simplices, provenance) in (
        (k, oracle),
        (full, oracle),
        (reduced, oracle_reduced),
        (reduce_complex(k, m, pair), oracle_reduced),
        (build_reduced_complex(m, pair), oracle_reduced),
    ):
        assert new.simplices == simplices
        assert new.provenance == provenance
        assert json.dumps(complex_to_json(new)) == json.dumps(complex_to_json_oracle(pair.n, simplices, provenance))


@given(boxed_sets())
@settings(max_examples=60, deadline=None)
def test_id_rows_match_the_point_tuple_enumeration(case):
    # the reversed pair drops barycenters where the drawn one keeps them, so
    # K' differs from K in many draws
    m, pair = case
    for p in (pair, AdjacencyPair(pair.beta, pair.alpha)):
        _assert_matches_oracles(build_complex(m, p), *order_complex_oracle(m, p), m, p)


@st.composite
def strict_chains(draw, lo, hi):
    """Two or more cubes of one flag at a lattice point near [lo, hi]: every
    strict chain of cubes is part of such a flag.  Doubled barycenters."""
    n = len(lo)
    point = draw(st.tuples(*[st.integers(a - 1, b + 1) for a, b in zip(lo, hi)]))
    axes = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    flag, h = [double(point)], list(double(point))
    for axis, sign in zip(axes, signs):
        h[axis] += sign
        flag.append(tuple(h))
    chosen = draw(st.lists(st.sampled_from(flag), min_size=2, max_size=n + 1, unique=True))
    return tuple(sorted(chosen))


@st.composite
def complexes_with_an_extra_simplex(draw):
    """A built K' plus one face-closed simplex with vertices on the doubled
    grid; in some draws the simplex is a strict cube chain missing from K."""
    m, pair = draw(boxed_sets(max_fill=0.5).filter(lambda case: case[0]))
    full, k = build_complexes(m, pair)
    lo, hi = bounding_box(m)
    if draw(st.booleans()):
        extra = draw(strict_chains(lo, hi).filter(lambda s: s not in full.simplices))
        assert is_chain_oracle(extra)
    else:
        grid = st.tuples(*[st.integers(2 * a - 1, 2 * b + 1) for a, b in zip(lo, hi)])
        extra = sorted(draw(st.lists(grid, min_size=2, max_size=pair.n + 1, unique=True)))
    faces = {f for r in range(1, len(extra) + 1) for f in itertools.combinations(extra, r)}
    return SimplicialComplex.of(k.n, k.simplices | faces)


# The all-pairs oracle is quadratic in the simplex count (a filled 3x3x3 box
# has 1977 simplices), so the axiom properties draw sets at most half full.
@given(boxed_sets(max_fill=0.5))
@settings(max_examples=30, deadline=None)
def test_axiom_check_matches_the_oracle_on_built_complexes(case):
    m, pair = case
    k = reduce_complex(build_complex(m, pair), m, pair)
    assert verify_complex_axioms(k) == verify_complex_axioms_oracle(k)


@given(complexes_with_an_extra_simplex())
@settings(max_examples=40, deadline=None)
def test_axiom_check_matches_the_oracle_with_an_extra_simplex(k):
    assert verify_complex_axioms(k) == verify_complex_axioms_oracle(k)


def _face_closure(*simplices):
    return frozenset(f for s in simplices for r in range(1, len(s) + 1) for f in itertools.combinations(s, r))


def test_cubes_of_equal_dimension_are_not_a_chain():
    # the midpoints of two parallel edges of the unit square: the segment
    # overlaps the chain edge from the first midpoint to the square's center
    across = ((1, 0), (1, 2))
    chain = ((1, 0), (1, 1))
    assert not is_chain_oracle(across) and is_chain_oracle(chain)
    assert not is_chain_oracle(((1, 0), (1, 0)))  # one cube twice is no strict chain
    k = SimplicialComplex.of(2, _face_closure(across, chain))
    ok, witness = verify_complex_axioms(k)
    assert not ok and witness == {
        "kind": "open-intersection", "simplex": [[1, 0], [1, 1]], "other": [[1, 0], [1, 2]]
    }
    assert (ok, witness) == verify_complex_axioms_oracle(k)


def test_a_cube_that_is_not_a_face_of_the_next_is_not_a_chain():
    # the point (0, 0) is no vertex of the square [1, 2] x [0, 1]; the segment
    # to its center crosses the chain edge from (1, 0) to the midpoint of
    # the edge (1, 0)-(1, 1)
    skew = ((0, 0), (3, 1))
    chain = ((2, 0), (2, 1))
    assert not is_chain_oracle(skew) and is_chain_oracle(chain)
    k = SimplicialComplex.of(2, _face_closure(skew, chain))
    ok, witness = verify_complex_axioms(k)
    assert not ok and witness == {
        "kind": "open-intersection", "simplex": [[0, 0], [3, 1]], "other": [[2, 0], [2, 1]]
    }
    assert (ok, witness) == verify_complex_axioms_oracle(k)


@given(boxed_sets())
@settings(max_examples=40, deadline=None)
def test_chain_certificates_match_the_oracles_on_built_complexes(case):
    # a strict cube chain skips the rank test and the lattice-point scan
    m, pair = case
    full, reduced = build_complexes(m, pair)
    for k in (full, reduced):
        assert verify_complex_axioms(k) == verify_complex_axioms_ranked_oracle(k)
        assert lattice_correspondence(k, m) == lattice_correspondence_oracle(k, m)


@given(complexes_with_an_extra_simplex())
@settings(max_examples=40, deadline=None)
def test_chain_certificates_match_the_oracles_with_an_extra_simplex(k):
    assert verify_complex_axioms(k) == verify_complex_axioms_ranked_oracle(k)
    # the set of the lattice vertices, so that the scan decides
    m = k.lattice_vertices()
    assert lattice_correspondence(k, m) == lattice_correspondence_oracle(k, m)


@st.composite
def sets_to_four_dimensions(draw):
    """A random subset of a 4x4, 3x3x3 or 2x2x3x3 box under one of the four
    axis/full pairs."""
    sides = draw(st.sampled_from([(4, 4), (3, 3, 3), (2, 2, 3, 3)]))
    cells = list(itertools.product(*(range(s) for s in sides)))
    chosen = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    n = len(sides)
    alpha, beta = draw(st.sampled_from(list(itertools.product((axis_adjacency, full_adjacency), repeat=2))))
    return frozenset(p for p, keep in zip(cells, chosen) if keep), AdjacencyPair(alpha(n), beta(n))


@given(sets_to_four_dimensions())
@settings(max_examples=60, deadline=None)
def test_chain_free_euler_matches_the_chain_count(case):
    m, pair = case
    assert euler_characteristics(m, pair) == tuple(map(euler_characteristic, build_complexes(m, pair)))


def chain_flags_oracle(k):
    """One verdict of the point-tuple oracle per row."""
    return [is_chain_oracle(k.points(r)) for r in k.rows]


@st.composite
def corrupted_complexes(draw):
    """A built K or K' with one corruption: an extra row of drawn vertices,
    which mostly mixes dimensions, a row that repeats an id, or a table that
    repeats a point (its copy appended, the rows through the point copied
    onto it, and one row naming both).  The kind is returned too."""
    m, pair = draw(boxed_sets().filter(lambda case: len(case[0]) > 1))  # two vertices or more
    k = draw(st.sampled_from(build_complexes(m, pair)))
    table, rows = k.table, set(k.rows)
    kind = draw(st.sampled_from(("mixed", "repeated-id", "repeated-point")))
    ids = st.integers(0, len(table) - 1)
    if kind == "mixed":
        rows.add(tuple(sorted(draw(st.lists(ids, min_size=2, max_size=pair.n + 1, unique=True)))))
    elif kind == "repeated-id":
        r = draw(st.sampled_from(sorted(rows)))
        rows.add(tuple(sorted(r + (draw(st.sampled_from(r)),))))
    else:
        i, j = draw(ids), len(table)
        table += (table[i],)
        rows |= {tuple(sorted(j if x == i else x for x in r)) for r in rows if i in r}
        rows.add((i, j))
    return kind, SimplicialComplex(k.n, table, tuple(sorted(rows)))


@given(boxed_sets())
@settings(max_examples=40, deadline=None)
def test_chain_flags_match_the_point_tuple_oracle_on_built_complexes(case):
    m, pair = case
    for k in build_complexes(m, pair):
        assert _chain_flags(k) == chain_flags_oracle(k)


@given(corrupted_complexes())
@settings(max_examples=80, deadline=None)
def test_chain_flags_match_the_point_tuple_oracle_on_corrupted_complexes(case):
    kind, k = case
    assert _chain_flags(k) == chain_flags_oracle(k)
    if kind == "repeated-point":
        # the row naming the point twice is the only one that is no chain
        v = list(k.table[-1])
        assert verify_complex_axioms(k) == (False, {"kind": "repeated-vertex", "simplex": [v, v]})
    else:
        # a sorted table: rows sort as their simplices, so the oracles' order is the rows'
        assert verify_complex_axioms(k) == verify_complex_axioms_ranked_oracle(k)
        m = k.lattice_vertices()
        assert lattice_correspondence(k, m) == lattice_correspondence_oracle(k, m)


def test_the_chain_flags_ask_one_face_test_per_vertex_pair(monkeypatch):
    # no clock: count the face tests and the rows decoded to points
    tests, decoded = [], []
    is_face, points = simplicial._is_face, SimplicialComplex.points
    monkeypatch.setattr(simplicial, "_is_face", lambda a, b: tests.append((a, b)) or is_face(a, b))
    monkeypatch.setattr(SimplicialComplex, "points", lambda k, r: decoded.append(r) or points(k, r))
    for m, pair in ((sphere_shell(4, 3), FULL_AXIS_3), (box_surface(3, 3, 3), AXIS_FULL_3), (rect_boundary(5, 5), AXIS_FULL_2)):
        for k in build_complexes(m, pair):
            tests.clear()
            assert all(_chain_flags(k))
            dims = [sum(c & 1 for c in v) for v in k.table]
            pairs = {(a, b) for r in k.rows for a in r for b in r if dims[a] < dims[b]}
            assert 0 < len(tests) == len(set(tests)) <= len(pairs)
            if k.n == 3:  # pairs recur across triangles: one test per row and step would pass the bound
                assert len(pairs) < sum(len(r) - 1 for r in k.rows)
            decoded.clear()
            assert verify_complex_axioms(k) == (True, None) == lattice_correspondence(k, m)
            assert decoded == []  # every row is a chain: none is decoded


def test_a_dependent_simplex_through_a_lattice_point_is_a_witness_not_an_error():
    # three vertices on a line through the lattice point (1, 1): the rows
    # through (0, 0) and (4, 4) doubled are no chain, and their vertices are
    # affinely dependent; the point is in the hull of the independent subset
    # {(0, 0), (4, 4)} (Caratheodory)
    k = SimplicialComplex.of(2, _face_closure(((0, 0), (1, 1), (4, 4))))
    m = {(0, 0), (2, 2)}
    witness = {"kind": "lattice-point-inside-simplex", "simplex": [[0, 0], [1, 1], [4, 4]], "point": [1, 1]}
    assert lattice_correspondence(k, m) == (False, witness) == lattice_correspondence_oracle(k, m)
    # the segment ends inside the region, so one chamber surrounds it
    assert realization_chambers(k, Region.around(m, 1)) == 1


def test_only_the_pair_build_drops_the_barycenters_of_k_prime(monkeypatch):
    calls = []
    without = simplicial._without
    monkeypatch.setattr(simplicial, "_without", lambda k, dropped: calls.append(dropped) or without(k, dropped))
    sphere = sphere_shell(4, 3)
    k = build_complex(sphere, FULL_AXIS_3)
    assert calls == []
    full, reduced = build_complexes(sphere, FULL_AXIS_3)
    assert full == k != reduced == build_reduced_complex(sphere, FULL_AXIS_3) and len(calls) == 1 and calls[0]


@pytest.mark.parametrize(
    "simplices",
    [
        # an edge to a vertex of three coordinates: the checks answered (True, None)
        _face_closure(((0, 0), (2, 0, 1))),
        # a triangle with a vertex of one coordinate: the rank test raised IndexError
        _face_closure(((0, 0), (2, 0), (1,))),
        [((0, 0),), ()],  # the empty simplex
        [((0, 0),), ((True, 0),)],  # a bool is no coordinate
        [((0, 0),), ((1.0, 0),)],
        [((0, 0),), ((0, 0), 2)],  # a vertex that is no tuple
    ],
    ids=["three-coordinates", "one-coordinate", "empty", "bool", "float", "not-a-tuple"],
)
def test_of_refuses_malformed_simplices(simplices):
    with pytest.raises(ValueError):
        SimplicialComplex.of(2, simplices)
