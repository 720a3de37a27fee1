import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digitop import adjacency
from digitop.adjacency import AdjacencyPair, Region, axis_adjacency, components, full_adjacency
from digitop.jordan import rect_boundary
from digitop.lattice import (
    Cube,
    bounding_box,
    completing_translations,
    cube_vertices,
    cubes_meeting_box,
    half_keys,
    shapes_meeting,
    subcubes,
    vec_add,
)
from digitop.manifold import _cut_connected, check_manifold
from digitop.verdict import Verdict
from digitop.separation import (
    _candidates,
    beta_neighbor_lower_bound,
    component_count_bounds_hold,
    has_separation_property,
    not_separated_in_cube,
    replay_separation_witness,
)
from test_adjacency import adjacency_specs

FULL_AXIS_3 = AdjacencyPair(full_adjacency(3), axis_adjacency(3))
AXIS_FULL_3 = AdjacencyPair(axis_adjacency(3), full_adjacency(3))

# four foreground points forming a diagonal plate through a unit cube;
# the two white edge pairs are globally connected around the outside
PLATE = frozenset({(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)})
UNIT_CUBE = Cube((0, 0, 0), (0, 1, 2))


def test_empty_intersection_holds_vacuously():
    verdict = not_separated_in_cube(frozenset(), UNIT_CUBE, FULL_AXIS_3)
    assert verdict.holds and verdict.witness is None


def test_an_empty_set_has_the_separation_property():
    assert has_separation_property(frozenset(), FULL_AXIS_3) == Verdict(True)


def test_diagonal_plate_splits_its_complement():
    verdict = not_separated_in_cube(PLATE, UNIT_CUBE, FULL_AXIS_3)
    assert not verdict.holds
    w = verdict.witness
    assert w is not None and w["cube"] == UNIT_CUBE.to_json()
    # the witness replays to a violation
    assert replay_separation_witness(w, PLATE, FULL_AXIS_3)


def test_full_bottom_face_is_not_a_separation():
    face = frozenset({(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)})
    verdict = not_separated_in_cube(face, UNIT_CUBE, FULL_AXIS_3)
    assert verdict.holds


def test_dimension_range_enforced():
    with pytest.raises(ValueError):
        not_separated_in_cube(PLATE, Cube((0, 0, 0), (0,)), FULL_AXIS_3)


def test_single_point_has_separation_property():
    verdict = has_separation_property({(0, 0)}, AdjacencyPair(full_adjacency(2), axis_adjacency(2)))
    assert verdict.holds


def test_square_ring_has_separation_property():
    ring = rect_boundary(4, 4)
    pair = AdjacencyPair(full_adjacency(2), axis_adjacency(2))
    assert has_separation_property(ring, pair).holds


def test_plate_configuration_fails_globally():
    verdict = has_separation_property(PLATE, FULL_AXIS_3)
    assert not verdict.holds
    assert verdict.witness is not None
    assert replay_separation_witness(verdict.witness, PLATE, FULL_AXIS_3)
    # the enclosing unit cube is itself a violating cube
    assert not not_separated_in_cube(PLATE, UNIT_CUBE, FULL_AXIS_3).holds


def test_separation_is_translation_invariant():
    shift = (3, -2, 5)
    moved = frozenset(tuple(a + b for a, b in zip(p, shift)) for p in PLATE)
    assert not has_separation_property(moved, FULL_AXIS_3).holds


def test_separation_is_permutation_invariant():
    swapped = frozenset((z, y, x) for x, y, z in PLATE)
    assert not has_separation_property(swapped, FULL_AXIS_3).holds


@pytest.mark.parametrize(
    "k,l,expected",
    [
        (3, 1, 3),
        (2, 2, 2),
        (2, 4, 0),
        (4, 1, 4),
        (3, 2, 4),
    ],
)
def test_beta_neighbor_lower_bound(k, l, expected):
    assert beta_neighbor_lower_bound(k, l) == expected


def test_beta_neighbor_lower_bound_rejects_bad_sizes():
    with pytest.raises(ValueError):
        beta_neighbor_lower_bound(2, 5)
    with pytest.raises(ValueError):
        beta_neighbor_lower_bound(2, 0)


def test_component_count_bounds_diagonal_square():
    pair = AdjacencyPair(full_adjacency(2), axis_adjacency(2))
    square = Cube((0, 0), (0, 1))
    assert component_count_bounds_hold({(0, 0), (1, 1)}, square, pair)


def test_component_count_bounds_antipodal_cube():
    pair = AdjacencyPair(full_adjacency(3), axis_adjacency(3))
    cube = Cube((0, 0, 0), (0, 1, 2))
    m = set(cube_vertices(cube)) - {(0, 0, 0), (1, 1, 1)}
    assert component_count_bounds_hold(m, cube, pair)


def test_component_count_bounds_precondition():
    pair = AdjacencyPair(full_adjacency(2), axis_adjacency(2))
    square = Cube((0, 0), (0, 1))
    with pytest.raises(ValueError):
        component_count_bounds_hold(set(), square, pair)


def component_count_bounds_hold_oracle(m, c, pair):
    """The body the masked flood replaced: the cube's free vertices are decoded
    and labeled as points."""
    mset = frozenset(m)
    free = [v for v in cube_vertices(c) if v not in mset]
    count = components(pair.beta, free).count
    if count != 2:
        raise ValueError(f"cube complement has {count} components, expected exactly 2")
    inside = 2**c.dim - len(free)
    return c.dim <= inside <= 2**c.dim - 2


@st.composite
def cube_cases(draw):
    """A translated k-cube of Z^n, n = 2..4, a random subset of its vertices
    plus points off it, and a beta spec."""
    n = draw(st.integers(2, 4))
    axes = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    c = Cube(draw(st.tuples(*[st.integers(-9, 9)] * n)), axes)
    m = draw(st.sets(st.sampled_from(cube_vertices(c)))) | {tuple(x + 5 for x in c.base)}
    return m, c, AdjacencyPair(full_adjacency(n), draw(adjacency_specs(n)))


@given(cube_cases())
@settings(max_examples=150, deadline=None)
def test_component_count_bounds_match_the_decoded_oracle(case):
    m, c, pair = case
    try:
        expected = component_count_bounds_hold_oracle(m, c, pair)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            component_count_bounds_hold(m, c, pair)
    else:
        assert component_count_bounds_hold(m, c, pair) == expected


def test_subcube_components_never_split_across_dimensions():
    # no background component of a cube may hold two components of a subcube
    ring = rect_boundary(5, 5)
    pair = AdjacencyPair(axis_adjacency(2), full_adjacency(2))
    assert has_separation_property(ring, pair).holds
    from digitop.adjacency import components
    from digitop.lattice import cube_vertices, cubes_meeting_box, subcubes

    for c in cubes_meeting_box((0, 0), (4, 4), 2, 2):
        free = [v for v in cube_vertices(c) if v not in ring]
        outer = components(pair.beta, free)
        for sub in subcubes(c, 1):
            sub_free = [v for v in cube_vertices(sub) if v not in ring]
            inner = components(pair.beta, sub_free)
            for outer_id in set(outer.labels.values()):
                inner_ids = {
                    inner.labels[p] for p in sub_free if outer.labels[p] == outer_id
                }
                assert len(inner_ids) <= 1



def violation_in_cube_oracle(mset, c, pair, labels):
    """The per-cube scan body as it was before cube shapes were tabled: every
    cube floods its own cut and tests every candidate from scratch."""
    cut = frozenset(v for v in cube_vertices(c) if v in mset)
    if not cut:
        return None
    slices = [(cstar, cube_vertices(cstar)) for cstar in subcubes(c, c.dim - 2)]
    for comp in sorted(components(pair.alpha, cut).components().values(), key=min):
        best = max(sum(1 for v in verts if v in comp) for _, verts in slices)
        if best == 0:
            continue
        for cstar, star_verts in slices:
            if sum(1 for v in star_verts if v in comp) != best:
                continue
            for tau1, tau2 in completing_translations(cstar, c):
                side1 = [vec_add(v, tau1) for v in star_verts]
                side2 = [vec_add(v, tau2) for v in star_verts]
                free1 = [q for q in side1 if q not in mset]
                free2 = [q for q in side2 if q not in mset]
                if not free1 or not free2:
                    continue
                ids = {labels[q] for q in free1 + free2}
                if len(ids) != 1:
                    continue
                diag = tuple(a + b for a, b in zip(tau1, tau2))
                for x in star_verts:
                    if vec_add(x, diag) in comp and (
                        vec_add(x, tau1) not in comp or vec_add(x, tau2) not in comp
                    ):
                        return {
                            "kind": "separation",
                            "cube": c.to_json(),
                            "cstar": cstar.to_json(),
                            "tau1": list(tau1),
                            "tau2": list(tau2),
                            "point": list(x),
                        }
    return None


def has_separation_property_oracle(mset, pair, region):
    """The old scan: every cube of the dilated bounding box that meets the set."""
    labels = region.complement(pair.beta, mset)
    lo, hi = bounding_box(mset)
    lo, hi = tuple(c - 1 for c in lo), tuple(c + 1 for c in hi)
    for k in range(2, pair.n + 1):
        for c in cubes_meeting_box(lo, hi, k, pair.n):
            if any(v in mset for v in cube_vertices(c)):
                witness = violation_in_cube_oracle(mset, c, pair, labels)
                if witness is not None:
                    return Verdict(False, witness)
    return Verdict(True)


def cube_connectivity_oracle(mset, pair):
    """The old cube-connectivity scan: one flood per n-cube of the bounding box."""
    lo, hi = bounding_box(mset)
    for c in cubes_meeting_box(lo, hi, pair.n, pair.n):
        cut = [v for v in cube_vertices(c) if v in mset]
        if cut and components(pair.alpha, cut).count > 1:
            return Verdict(False, {"kind": "cube-intersection-disconnected", "cube": c.to_json()})
    return Verdict(True)


@st.composite
def boxed_sets(draw):
    """A nonempty random subset of a 4x4 or 3x3x3 box, translated, under one
    of the four axis/full pairs."""
    sides = draw(st.sampled_from([(4, 4), (3, 3, 3)]))
    cells = sorted(itertools.product(*(range(s) for s in sides)))
    chosen = draw(st.frozensets(st.sampled_from(cells), min_size=1))
    shift = draw(st.tuples(*[st.integers(-30, 30)] * len(sides)))
    n = len(sides)
    alpha = draw(st.sampled_from((axis_adjacency, full_adjacency)))(n)
    beta = draw(st.sampled_from((axis_adjacency, full_adjacency)))(n)
    m = frozenset(tuple(a + b for a, b in zip(p, shift)) for p in chosen)
    return m, AdjacencyPair(alpha, beta)


@given(boxed_sets())
@example((PLATE, FULL_AXIS_3))
@example((frozenset(vec_add(p, (3, -2, 5)) for p in PLATE), FULL_AXIS_3))
@example((frozenset((z, y, x) for x, y, z in PLATE), FULL_AXIS_3))
@settings(max_examples=80, deadline=None)
def test_shape_tables_match_the_per_cube_oracle(case):
    m, pair = case
    region = Region.around(m, 2)
    assert has_separation_property(m, pair, region) == has_separation_property_oracle(m, pair, region)
    got = check_manifold(m, pair, region).cube_connectivity
    assert got == cube_connectivity_oracle(m, pair)


def cubes_meeting_unfiltered(m, k, n):
    """The gather before shapes were filtered: every k-cube with a vertex in m
    is decoded to ``(base, axes, mask)``, and all of them are sorted."""
    grid, keys = half_keys(m, n)
    shapes = [(h, axes, mask) for axes, masks in shapes_meeting(grid, keys, k) for h, mask in masks.items()]
    return sorted((tuple(c >> 1 for c in grid.point(h)), axes, mask) for h, axes, mask in shapes)


def has_separation_property_unfiltered(mset, pair, region):
    """The scan before shapes were filtered: the window is labeled first, and
    every cube that meets the set is decoded, sorted and then tested."""
    labels = region.complement(pair.beta, mset)
    for k in range(2, pair.n + 1):
        for base, axes, mask in cubes_meeting_unfiltered(mset, k, pair.n):
            for free, cstar, tau1, tau2, x in _candidates(pair.alpha, axes, mask):
                if len({labels[vec_add(base, d)] for d in free}) == 1:
                    return Verdict(False, {
                        "kind": "separation",
                        "cube": Cube(base, axes).to_json(),
                        "cstar": Cube(vec_add(base, cstar.base), cstar.axes).to_json(),
                        "tau1": list(tau1),
                        "tau2": list(tau2),
                        "point": list(vec_add(base, x)),
                    })
    return Verdict(True)


def cube_connectivity_unfiltered(mset, pair):
    """The cube-connectivity scan before shapes were filtered: every n-cube
    that meets the set is decoded and sorted, then tested in order."""
    for base, axes, mask in cubes_meeting_unfiltered(mset, pair.n, pair.n):
        if not _cut_connected(pair.alpha, axes, mask):
            return Verdict(False, {"kind": "cube-intersection-disconnected", "cube": Cube(base, axes).to_json()})
    return Verdict(True)


@st.composite
def shifted_box_subsets(draw):
    """A nonempty random subset of a 2-D, 3-D or small 4-D box, moved by a
    translation that may be negative and odd, under an axis or full
    foreground and an axis, full or custom background."""
    sides = draw(st.sampled_from([(5, 4), (3, 4, 3), (2, 3, 2, 2)]))
    cells = sorted(itertools.product(*(range(s) for s in sides)))
    chosen = draw(st.frozensets(st.sampled_from(cells), min_size=1))
    shift = draw(st.tuples(*[st.integers(-41, 41)] * len(sides)))
    n = len(sides)
    alpha = draw(st.sampled_from((axis_adjacency, full_adjacency)))(n)
    m = frozenset(tuple(a + b for a, b in zip(p, shift)) for p in chosen)
    return m, AdjacencyPair(alpha, draw(adjacency_specs(n)))


@given(shifted_box_subsets())
@example((frozenset(vec_add(p, (-3, -5, -7)) for p in PLATE), FULL_AXIS_3))
@example((frozenset({(-7, -1), (-6, -1), (-7, -3), (-5, -2)}), AdjacencyPair(axis_adjacency(2), axis_adjacency(2))))
@example((frozenset({(-1, -3, -5, 1), (0, -2, -5, 1), (-1, -2, -4, 2)}), AdjacencyPair(full_adjacency(4), axis_adjacency(4))))
@settings(max_examples=100, deadline=None)
def test_shape_first_scans_match_the_unfiltered_scans(case):
    m, pair = case
    region = Region.around(m, 2)
    got = has_separation_property(m, pair, region)
    assert got == has_separation_property_unfiltered(m, pair, region)
    assert check_manifold(m, pair, region).cube_connectivity == cube_connectivity_unfiltered(m, pair)
    if not got.holds:
        cube = Cube.from_json(got.witness["cube"])
        assert not_separated_in_cube(m, cube, pair, region) == got


def test_a_too_small_region_raises_though_no_cube_is_labeled(monkeypatch):
    calls = []
    label = adjacency.complement_components
    monkeypatch.setattr(adjacency, "complement_components", lambda *args: calls.append(args) or label(*args))
    m, pair = frozenset({(0, 0), (3, 3)}), AdjacencyPair(full_adjacency(2), axis_adjacency(2))
    # no cube meeting the pair has a candidate, so a window wide enough is never labeled
    assert has_separation_property(m, pair, Region.around(m, 2)).holds and calls == []
    assert not_separated_in_cube(m, Cube((0, 0), (0, 1)), pair).holds and calls == []
    tight = Region((0, -1), (4, 4))  # (0, 0) lies on its edge
    with pytest.raises(ValueError) as expected:
        label(pair.beta, m, tight)
    assert str(expected.value) == "region too small: (0, 0) touches the margin zone"
    for check in (has_separation_property, check_manifold):
        with pytest.raises(ValueError, match=r"^region too small: \(0, 0\) touches the margin zone$"):
            check(m, pair, tight)
    with pytest.raises(ValueError, match=r"^region too small: \(0, 0\) touches the margin zone$"):
        not_separated_in_cube(m, Cube((0, 0), (0, 1)), pair, tight)
    assert calls == []
