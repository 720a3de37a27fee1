import itertools
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from digitop._exact import integer_rank, open_simplices_intersect
from digitop.adjacency import (
    AdjacencyPair,
    Region,
    axis_adjacency,
    components,
    custom_adjacency,
    full_adjacency,
)
from digitop.jordan import box_surface, rect_boundary
from digitop.lattice import (
    Cube,
    barycenter,
    bounding_box,
    cube_of_barycenter,
    cube_vertices,
    cubes_meeting_box,
    double,
    subcubes,
)
from digitop.simplicial import (
    SimplicialComplex,
    build_complex,
    build_complex_in_cube,
    complex_to_json,
    complex_to_off,
    euler_characteristic,
    lattice_correspondence,
    realization_chambers,
    reduce_complex,
    reduction_trace,
    skeleton_components,
    barycenter_test,
    verify_complex_axioms,
)

AXIS_FULL_2 = AdjacencyPair(axis_adjacency(2), full_adjacency(2))
FULL_AXIS_2 = AdjacencyPair(full_adjacency(2), axis_adjacency(2))
AXIS_FULL_3 = AdjacencyPair(axis_adjacency(3), full_adjacency(3))

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


# Oracles: the per-n-cube coning construction of K(M) and K'(M), and the
# all-pairs axiom check, kept as the slow references for the fast paths.


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
        if opposite > v and opposite not in mset and not labeling.same_component(v, opposite):
            return True
    return False


def build_complex_oracle(m, pair):
    """Every passing face of every n-cube meeting the set cones its barycenter
    over the simplices already built inside its closed box."""
    mset = frozenset(m)
    n = pair.n
    if not mset:
        return SimplicialComplex(n, frozenset())
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
                box_lo, box_hi = c.box2()
                new = [(center,)]
                for s in built:
                    if center not in s and all(
                        all(a <= x <= b for a, x, b in zip(box_lo, v, box_hi)) for v in s
                    ):
                        new.append(tuple(sorted(s + (center,))))
                built.extend(new)
        simplices.update(built)
    return SimplicialComplex(n, frozenset(simplices), provenance)


def reduce_complex_oracle(k, m, pair):
    mset = frozenset(m)

    def background_count(cube):
        free = [v for v in cube_vertices(cube) if v not in mset]
        return components(pair.beta, free).count if free else 0

    removed = {c for c, cube in k.provenance.items() if background_count(cube) == 1}
    simplices = frozenset(s for s in k.simplices if not any(v in removed for v in s))
    provenance = {c: cube for c, cube in k.provenance.items() if c not in removed}
    return SimplicialComplex(k.n, simplices, provenance)


def verify_complex_axioms_oracle(k):
    """The axiom check with the all-pairs scan over overlapping closed boxes."""
    simplices = sorted(k.simplices)
    for s in simplices:
        if len(set(s)) != len(s):
            return False, {"kind": "repeated-vertex", "simplex": [list(v) for v in s]}
        if len(s) > 1:
            rows = [[v[i] - s[0][i] for i in range(len(s[0]))] for v in s[1:]]
            if integer_rank(rows) != len(s) - 1:
                return False, {"kind": "affinely-dependent", "simplex": [list(v) for v in s]}
    for s in simplices:
        for size in range(1, len(s)):
            for face in itertools.combinations(s, size):
                if face not in k.simplices:
                    return False, {
                        "kind": "missing-face",
                        "simplex": [list(v) for v in s],
                        "face": [list(v) for v in face],
                    }
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
    dims = {d: len(s) for d, s in k.by_dim().items()}
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


def test_reduction_trace_invariant():
    m = {(0, 0), (1, 0), (1, 1)}
    k = build_complex(m, FULL_AXIS_2)
    for record in reduction_trace(k, m, FULL_AXIS_2):
        assert record.barycenter_kept == (record.background_components != 1)


def test_ring_complex_is_a_circle():
    ring = rect_boundary(5, 5)
    k = build_complex(ring, AXIS_FULL_2)
    reduced = reduce_complex(k, ring, AXIS_FULL_2)
    dims = {d: len(s) for d, s in reduced.by_dim().items()}
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
    ok, _ = verify_complex_axioms(SimplicialComplex(2, frozenset()))
    assert ok


def test_verify_axioms_catches_crossing_edges():
    bad = SimplicialComplex(
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
    bad = SimplicialComplex(2, frozenset([((0, 0), (2, 0))]))
    ok, witness = verify_complex_axioms(bad)
    assert not ok and witness["kind"] == "missing-face"


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
    assert skeleton_components(SimplicialComplex(2, frozenset())).count == 0


def test_lattice_correspondence_ring():
    ring = rect_boundary(5, 5)
    k = build_complex(ring, AXIS_FULL_2)
    ok, witness = lattice_correspondence(k, ring)
    assert ok, witness


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
    assert payload["vertices"] == [[0, 0], [1, 0], [2, 0]]
    assert [0] in payload["simplices"] and [0, 1] in payload["simplices"]
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
    reduced, oracle_reduced = reduce_complex(k, m, pair), reduce_complex_oracle(oracle, m, pair)
    for new, old in ((k, oracle), (reduced, oracle_reduced)):
        assert new.simplices == old.simplices
        assert dict(new.provenance) == dict(old.provenance)
        assert json.dumps(complex_to_json(new)) == json.dumps(complex_to_json(old))
    assert all(_is_strict_chain(s, m, k.provenance) for s in k.simplices)


@st.composite
def complexes_with_an_extra_simplex(draw):
    """A built K' plus one face-closed simplex with vertices on the doubled grid."""
    m, pair = draw(boxed_sets(max_fill=0.5).filter(lambda case: case[0]))
    k = reduce_complex(build_complex(m, pair), m, pair)
    lo, hi = bounding_box(m)
    grid = st.tuples(*[st.integers(2 * a - 1, 2 * b + 1) for a, b in zip(lo, hi)])
    extra = sorted(draw(st.lists(grid, min_size=2, max_size=pair.n + 1, unique=True)))
    faces = {f for r in range(1, len(extra) + 1) for f in itertools.combinations(extra, r)}
    return SimplicialComplex(k.n, k.simplices | faces)


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
