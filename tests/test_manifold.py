import contextlib
import itertools
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digitop.adjacency import (
    AdjacencyPair,
    Region,
    axis_adjacency,
    complement_components,
    components,
    custom_adjacency,
    full_adjacency,
    masked_points,
)
from digitop import adjacency, lattice, manifold
from digitop.adjacency import neighbors
from digitop.jordan import box_surface, jordan_check, rect_boundary, sphere_shell
from digitop.lattice import shell_offsets, vec_add, vec_sub
from digitop.manifold import (
    REPLAYS,
    GlobalSides,
    NotCertifiedError,
    _shell,
    check_manifold,
    double_points,
    global_sides,
    is_good_pair,
    is_regular_rotation,
    is_separating_pair,
    is_simple_point,
    is_simple_translation,
    local_components,
)
from digitop.separation import _candidates, component_count_bounds_hold
from digitop.simplicial import _shape_verdict
from digitop.verdict import Verdict
from test_adjacency import adjacency_specs, components_oracle
from test_lattice import shell_mask_oracle

AXIS_FULL_2 = AdjacencyPair(axis_adjacency(2), full_adjacency(2))
AXIS_FULL_3 = AdjacencyPair(axis_adjacency(3), full_adjacency(3))
FULL_AXIS_2 = AdjacencyPair(full_adjacency(2), axis_adjacency(2))
FULL_AXIS_3 = AdjacencyPair(full_adjacency(3), axis_adjacency(3))
AXIS_FULL_4 = AdjacencyPair(axis_adjacency(4), full_adjacency(4))


def test_local_components_isolated_point():
    assert len(local_components((0, 0), {(0, 0)}, FULL_AXIS_2)) == 1


def test_local_components_straight_segment():
    segment = {(x, 0) for x in range(5)}
    comps = local_components((2, 0), segment, FULL_AXIS_2)
    assert len(comps) == 2  # above and below


def test_local_components_spur_tip():
    comps = local_components((1, 0), {(0, 0), (1, 0)}, FULL_AXIS_2)
    assert len(comps) == 1


def test_point_tests_refuse_a_non_member():
    for check in (local_components, is_simple_point):
        with pytest.raises(ValueError, match="not a foreground point"):
            check((5, 5), {(0, 0), (1, 0)}, FULL_AXIS_2)


def test_check_manifold_refuses_an_empty_set():
    with pytest.raises(ValueError, match="nonempty"):
        check_manifold(set(), AXIS_FULL_2)


def test_ring_is_certified():
    ring = rect_boundary(5, 5)
    report = check_manifold(ring, AXIS_FULL_2)
    assert report.certified
    assert all(len(local_components(p, ring, AXIS_FULL_2)) == 2 for p in ring)


def test_ring_minus_point_fails():
    ring = set(rect_boundary(5, 5))
    ring.remove((2, 0))
    report = check_manifold(ring, AXIS_FULL_2)
    assert not report.certified


def test_box_surface_is_certified():
    report = check_manifold(box_surface(3, 3, 3), AXIS_FULL_3)
    assert report.certified


def test_disconnected_set_reported():
    report = check_manifold({(0, 0), (5, 5)}, AXIS_FULL_2)
    assert not report.alpha_connected.holds
    assert not report.certified


def test_global_sides_ring():
    ring = rect_boundary(5, 5)
    report = check_manifold(ring, AXIS_FULL_2)
    sides = global_sides(ring, AXIS_FULL_2, report)
    sizes = sorted((len(sides.c_side), len(sides.d_side)))
    # the center of the 3x3 interior is too far from the ring to be in its shell
    assert sizes == [8, 24]
    assert sides.c_side.isdisjoint(sides.d_side)
    # the first side holds the first local side of the smallest point (0, 0)
    assert (-1, -1) in sides.c_side and len(sides.d_side) == 8


def test_global_sides_box():
    box = box_surface(3, 3, 3)
    sides = global_sides(box, AXIS_FULL_3)
    assert sorted((len(sides.c_side), len(sides.d_side)))[0] == 1  # the hollow center


def test_global_sides_refuses_uncertified():
    with pytest.raises(NotCertifiedError):
        global_sides({(0, 0), (1, 1)}, AXIS_FULL_2)


def test_simple_point_arc_endpoint():
    # endpoint of a diagonal arc: removal changes no component count
    arc = {(0, 0), (1, 1), (2, 2)}
    assert is_simple_point((2, 2), arc, FULL_AXIS_2)


def test_certified_manifold_has_no_simple_points():
    ring = rect_boundary(5, 5)
    region = Region.around(ring, 2)
    assert not any(is_simple_point(p, ring, AXIS_FULL_2, region) for p in ring)


def test_isolated_point_is_not_simple():
    assert not is_simple_point((3, 3), {(3, 3)}, AXIS_FULL_2)


def is_simple_point_oracle(p, m, pair, region=None):
    """Reference: compare both sides' counts before and after deleting p,
    with four whole-window flood fills."""
    mset = frozenset(m)
    if region is None:
        region = Region.around(mset, margin=2)
    smaller = mset - {p}
    if components(pair.alpha, mset).count != components(pair.alpha, smaller).count:
        return False
    before = complement_components(pair.beta, mset, region).count
    return before == complement_components(pair.beta, smaller, region).count


@st.composite
def simple_point_cases(draw):
    n = draw(st.sampled_from((2, 3)))
    box = sorted(itertools.product(range(4 if n == 2 else 3), repeat=n))
    m = draw(st.frozensets(st.sampled_from(box), min_size=1))
    alpha = draw(st.sampled_from((axis_adjacency, full_adjacency)))(n)
    beta = draw(st.sampled_from((axis_adjacency, full_adjacency)))(n)
    shift = draw(st.tuples(*[st.integers(-30, 30)] * n))
    probes = draw(st.lists(st.sampled_from(sorted(m)), min_size=1, max_size=3, unique=True))
    return m, AdjacencyPair(alpha, beta), shift, probes


@given(simple_point_cases())
@example((frozenset({(0, 0), (1, 1), (2, 2)}), FULL_AXIS_2, (0, 0), [(2, 2), (1, 1)]))
@example((frozenset({(3, 3)}), AXIS_FULL_2, (5, -7), [(3, 3)]))
@settings(max_examples=60, deadline=None)
def test_shared_labeling_matches_the_oracle(case):
    m, pair, shift, probes = case
    expected = [is_simple_point_oracle(p, m, pair) for p in probes]
    moved = frozenset(vec_add(q, shift) for q in m)
    for margin in (2, 4):
        region = Region.around(moved, margin)
        got = [is_simple_point(vec_add(p, shift), moved, pair, region) for p in probes]
        assert got == expected


def _crossing(w):
    return tuple(tuple(w[k]) for k in ("p", "q", "r", "tau"))


def test_double_points_full_full():
    witnesses = double_points((0, 0), AdjacencyPair(full_adjacency(2), full_adjacency(2)))
    assert witnesses
    found = {_crossing(w) for w in witnesses}
    assert ((1, 1), (1, 0), (0, 1), (0, -1)) in found
    for w in witnesses:
        assert REPLAYS["double-point"](w, None, AdjacencyPair(full_adjacency(2), full_adjacency(2)), None)


@pytest.mark.parametrize("n", [2, 3])
def test_a_double_point_with_r_moved_one_unit_fails_replay(n):
    # the replay asks no axis test of (p, r): moving r breaks r + tau == z
    pair = AdjacencyPair(full_adjacency(n), full_adjacency(n))
    witnesses = double_points((0,) * n, pair)
    assert witnesses
    for w in witnesses:
        assert REPLAYS["double-point"](w, None, pair, None)
        for axis, step in itertools.product(range(n), (-1, 1)):
            r = list(w["r"])
            r[axis] += step
            assert not REPLAYS["double-point"]({**w, "r": r}, None, pair, None)


def test_double_points_axis_background_is_empty():
    assert double_points((0, 0), FULL_AXIS_2) == []


def test_double_points_axis_axis_is_empty():
    assert double_points((0, 0), AdjacencyPair(axis_adjacency(2), axis_adjacency(2))) == []


def test_double_points_translation_invariance():
    pair = AdjacencyPair(full_adjacency(2), full_adjacency(2))
    at_origin = double_points((0, 0), pair)
    shifted = double_points((4, -3), pair)
    moved = {
        (tuple(a + b for a, b in zip(w["p"], (4, -3))), tuple(w["tau"])) for w in at_origin
    }
    assert {(tuple(w["p"]), tuple(w["tau"])) for w in shifted} == moved


def axis_adjacent(p, q):
    """The replaced ``manifold.axis_adjacent``: L1 distance 1."""
    return sum(abs(a - b) for a, b in zip(p, q)) == 1


@given(st.integers(2, 5).flatmap(lambda n: st.tuples(*[st.tuples(*[st.integers(-3, 3)] * n)] * 2)))
@example(((0, 0), (0, 1)))
@example(((0, 0, 0), (1, 1, 0)))
@settings(max_examples=200, deadline=None)
def test_the_axis_spec_is_the_l1_unit_relation(case):
    p, q = case
    assert axis_adjacency(len(p)).adjacent(p, q) == axis_adjacent(p, q)


def double_points_oracle(z, pair):
    """Reference: each defining condition of a double point written out, the
    cheap ones first."""
    alpha, beta = pair.alpha, pair.beta
    out = []
    for p in sorted(neighbors(beta, z)):
        for q in sorted(neighbors(alpha, p)):
            if not axis_adjacent(z, q):
                continue
            tau = vec_sub(q, p)
            if not any(tau) or not is_simple_translation(tau):
                continue
            r = vec_sub(z, tau)
            if (
                beta.adjacent(z, r)
                and axis_adjacent(p, r)
                and alpha.adjacent(r, q)
            ):
                out.append(
                    {"kind": "double-point", "z": list(z), "p": list(p), "q": list(q), "r": list(r), "tau": list(tau)}
                )
    return out


@st.composite
def double_point_cases(draw):
    n = draw(st.sampled_from((2, 3)))
    z = draw(st.tuples(*[st.integers(-30, 30)] * n))
    return z, AdjacencyPair(draw(adjacency_specs(n)), draw(adjacency_specs(n)))


@given(double_point_cases())
@example(((0, 0), AdjacencyPair(full_adjacency(2), full_adjacency(2))))
@example(((0, 0, 0), AdjacencyPair(full_adjacency(3), full_adjacency(3))))
@example(((1, -2, 3), AdjacencyPair(axis_adjacency(3), full_adjacency(3))))
@example(((0, 0, 0), FULL_AXIS_3))
@example(((0, 0), AdjacencyPair(custom_adjacency(2, [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]), full_adjacency(2))))
@settings(max_examples=60, deadline=None)
def test_double_points_match_the_oracle_in_order(case):
    z, pair = case
    assert double_points(z, pair) == double_points_oracle(z, pair)


def test_separating_pair_full_axis():
    assert is_separating_pair(FULL_AXIS_2, bound=2) == "yes"


def test_separating_pair_axis_axis_fails():
    assert is_separating_pair(AdjacencyPair(axis_adjacency(2), axis_adjacency(2))) == "no"


def test_separating_pair_axis_full_needs_larger_bound():
    assert is_separating_pair(AXIS_FULL_2, bound=2, budget=20_000) == "unknown"
    assert is_separating_pair(AXIS_FULL_2, bound=4, budget=100_000) == "yes"


def test_good_pair_verdicts():
    assert is_good_pair(FULL_AXIS_2, bound=2).verdict == "yes"
    assert is_good_pair(AXIS_FULL_2, bound=4).verdict == "yes"
    full_full = is_good_pair(AdjacencyPair(full_adjacency(2), full_adjacency(2)))
    assert full_full.verdict == "no" and full_full.double_point_witnesses
    assert is_good_pair(AdjacencyPair(axis_adjacency(2), axis_adjacency(2))).verdict == "no"


def test_good_pair_z3():
    assert is_good_pair(AXIS_FULL_3, bound=2, budget=200_000).verdict == "yes"


def test_regular_rotation():
    assert is_regular_rotation(axis_adjacency(2))
    assert is_regular_rotation(full_adjacency(3))
    lopsided = custom_adjacency(
        2, list(axis_adjacency(2).offsets) + [(1, 1), (-1, -1)]
    )
    assert not is_regular_rotation(lopsided)


def _corpus3():
    return box_surface(3, 3, 3), AXIS_FULL_3


def test_certified_cubes_have_at_most_two_background_components():
    from digitop.adjacency import components
    from digitop.lattice import bounding_box, cube_vertices, cubes_meeting_box

    m, pair = _corpus3()
    assert check_manifold(m, pair).certified
    lo, hi = bounding_box(m)
    for k in range(4):
        for c in cubes_meeting_box(lo, hi, k, 3):
            verts = cube_vertices(c)
            if all(v not in m for v in verts):
                continue
            free = [v for v in verts if v not in m]
            if free:
                assert components(pair.beta, free).count <= 2, c


def test_no_full_cube_inside_certified_manifold():
    from digitop.lattice import bounding_box, cube_vertices, cubes_meeting_box

    m, pair = _corpus3()
    lo, hi = bounding_box(m)
    for c in cubes_meeting_box(lo, hi, 3, 3):
        assert not all(v in m for v in cube_vertices(c))


def test_foreground_cubes_see_two_shared_sides():
    # every cube inside the set: the common punctured neighborhood of its
    # vertices splits into exactly two background components
    from digitop.adjacency import components, full_adjacency, neighbors
    from digitop.lattice import bounding_box, cube_vertices, cubes_meeting_box

    m, pair = _corpus3()
    omega = full_adjacency(3)
    lo, hi = bounding_box(m)
    checked = 0
    for k in range(3):
        for c in cubes_meeting_box(lo, hi, k, 3):
            verts = cube_vertices(c)
            if not all(v in m for v in verts):
                continue
            shared = None
            for v in verts:
                shell = neighbors(omega, v)
                shared = shell if shared is None else shared & shell
            shared -= m
            assert components(pair.beta, shared).count == 2, c
            checked += 1
    assert checked > 0


def test_double_points_equivariant_under_signed_permutations():
    # rotation-regular relations: witnesses map through coordinate symmetry
    pair = AdjacencyPair(full_adjacency(2), full_adjacency(2))
    base = {_crossing(w) for w in double_points((0, 0), pair)}

    def swap(t):
        return (t[1], t[0])

    swapped = {(swap(p), swap(q), swap(r), swap(t)) for p, q, r, t in base}
    assert swapped == base

    def flip(t):
        return (-t[0], t[1])

    flipped = {(flip(p), flip(q), flip(r), flip(t)) for p, q, r, t in base}
    assert flipped == base


def _verdicts(m, pair):
    report = check_manifold(m, pair)
    holds = (
        report.alpha_connected.holds,
        report.cube_connectivity.holds,
        report.local_two_components.holds,
        report.two_sidedness.holds,
        report.separation.holds,
    )
    return holds, report.certified and jordan_check(m, pair, report=report).all_true


@st.composite
def regular_cases(draw):
    """A random subset of a 4x4 or 3x3x3 box under one of the four axis/full
    pairs, a signed axis permutation and a translation."""
    sides = draw(st.sampled_from([(4, 4), (3, 3, 3)]))
    n = len(sides)
    cells = sorted(itertools.product(*(range(s) for s in sides)))
    m = draw(st.frozensets(st.sampled_from(cells), min_size=1))
    alpha = draw(st.sampled_from((axis_adjacency, full_adjacency)))(n)
    beta = draw(st.sampled_from((axis_adjacency, full_adjacency)))(n)
    perm = draw(st.permutations(range(n)))
    signs = draw(st.tuples(*[st.sampled_from((1, -1))] * n))
    shift = draw(st.tuples(*[st.integers(-30, 30)] * n))
    return m, AdjacencyPair(alpha, beta), tuple(perm), signs, shift


@given(regular_cases())
@example((rect_boundary(4, 4), AXIS_FULL_2, (1, 0), (-1, 1), (7, -3)))
@example((box_surface(3, 3, 3), AXIS_FULL_3, (2, 0, 1), (1, -1, -1), (2, 5, -4)))
@example((box_surface(3, 4, 5), AXIS_FULL_3, (1, 2, 0), (-1, 1, 1), (0, 0, 0)))
@example((frozenset((x, y, y) for x in range(3) for y in range(3)), FULL_AXIS_3, (1, 0, 2), (1, 1, -1), (0, 0, 0)))
@settings(max_examples=60, deadline=None)
def test_verdicts_are_invariant_under_signed_axis_permutations(case):
    """Witnesses are lexicographically first and move; verdicts may not."""
    m, pair, perm, signs, shift = case
    assert is_regular_rotation(pair.alpha) and is_regular_rotation(pair.beta)
    moved = frozenset(vec_add(tuple(s * p[i] for s, i in zip(signs, perm)), shift) for p in m)
    assert _verdicts(moved, pair) == _verdicts(m, pair)


def local_components_oracle(p, m, pair):
    """Reference: flood the background of p's punctured full neighbourhood."""
    shell = neighbors(full_adjacency(pair.n), p) - frozenset(m)
    comps = components_oracle(pair.beta, shell).components()
    return [comps[cid] for cid in sorted(comps)]


def one_sided_oracle(p, m, pair, sides):
    """Reference: the first alpha-neighbour q of p in m, in sorted order, with
    the index of the first of p's sides that has no beta-neighbour of q."""
    for q in sorted(neighbors(pair.alpha, p) & m):
        for k, side in enumerate(sides):
            if not any(pair.beta.adjacent(q, x) for x in side):
                return q, k
    return None


def local_verdicts_oracle(m, pair):
    """Reference: the local two-component and two-sidedness verdicts and the
    local sides of ``check_manifold``, point by point."""
    sides = {}
    for p in sorted(m):
        comps = local_components_oracle(p, m, pair)
        if len(comps) != 2:
            witness = {"kind": "local-component-count", "point": list(p), "count": len(comps)}
            return Verdict(False, witness), Verdict(True), None
        sides[p] = (comps[0], comps[1])
    for p in sorted(m):
        found = one_sided_oracle(p, m, pair, sides[p])
        if found is not None:
            q, k = found
            side = sorted(map(list, sides[p][k]))
            return Verdict(True), Verdict(False, {"kind": "one-sided-neighbor", "p": list(p), "q": list(q), "side": side}), sides
    return Verdict(True), Verdict(True), sides


@st.composite
def local_cases(draw):
    """A random subset of a 4x4 or 3x3x3 box under one of the four axis/full
    pairs or a pair of random symmetric relations, moved by a random signed
    axis permutation and translation."""
    sides = draw(st.sampled_from([(4, 4), (3, 3, 3)]))
    n = len(sides)
    cells = sorted(itertools.product(*(range(s) for s in sides)))
    m = draw(st.frozensets(st.sampled_from(cells), min_size=1))
    if draw(st.booleans()):
        alpha = draw(st.sampled_from((axis_adjacency, full_adjacency)))(n)
        beta = draw(st.sampled_from((axis_adjacency, full_adjacency)))(n)
    else:
        alpha, beta = draw(adjacency_specs(n)), draw(adjacency_specs(n))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.tuples(*[st.sampled_from((1, -1))] * n))
    shift = draw(st.tuples(*[st.integers(-30, 30)] * n))
    moved = frozenset(vec_add(tuple(s * p[i] for s, i in zip(signs, perm)), shift) for p in m)
    return moved, AdjacencyPair(alpha, beta)


_RING_KINK = frozenset(rect_boundary(5, 5) - {(0, 0)} | {(1, 1)})
_KING_SPHERE_4 = frozenset(vec_add(v, (5, -3, 0, 7)) for v in full_adjacency(4).offsets)


@given(local_cases())
@example((rect_boundary(4, 4), AXIS_FULL_2))
@example((rect_boundary(5, 5), FULL_AXIS_2))  # one-sided
@example((_RING_KINK, AXIS_FULL_2))
@example((frozenset(vec_add(p, (-6, 2, -9)) for p in box_surface(3, 4, 3)), AXIS_FULL_3))
@example((box_surface(3, 3, 3), FULL_AXIS_3))
@example((_KING_SPHERE_4, AXIS_FULL_4))  # the sphere good-pair --n 4 checks, moved
@example((_KING_SPHERE_4 - {min(_KING_SPHERE_4)}, AXIS_FULL_4))
@settings(max_examples=80, deadline=None)
def test_local_shell_table_matches_the_point_oracle(case):
    m, pair = case
    report = check_manifold(m, pair)
    local_two, two_sided, _ = local_verdicts_oracle(m, pair)
    assert report.local_two_components == local_two
    assert report.two_sidedness == two_sided
    # every point's table entry, also where an earlier point ended the scan
    for p in m:
        expected = local_components_oracle(p, m, pair)
        assert local_components(p, m, pair) == expected
        table_sides, found = _shell(pair, shell_mask_oracle(p, m))
        got_sides = tuple(masked_points(shell_offsets(pair.n), side) for side in table_sides)
        assert got_sides == tuple(tuple(sorted(vec_sub(x, p) for x in side)) for side in expected)
        got = None if found is None else (vec_add(p, found[0]), found[1])
        assert got == (one_sided_oracle(p, m, pair, expected) if len(expected) == 2 else None)


def test_local_components_refuse_a_point_of_another_dimension():
    with pytest.raises(ValueError, match="wrong dimension"):
        local_components((0, 0, 0), {(0, 0, 0), (1, 0, 0)}, AXIS_FULL_2)
    with pytest.raises(ValueError, match="wrong dimension"):
        local_components((0, 0), {(0, 0), (1, 0, 0)}, AXIS_FULL_2)


def test_one_check_and_one_global_sides_gather_the_shell_masks_once():
    """Work, not time: each of them gathers every point's shell mask in one
    call, so neither goes quadratic through a per-point ``local_components``."""
    calls, gather = [], manifold.shell_masks

    def spy(m, n):
        calls.append(len(m))
        return gather(m, n)

    box = box_surface(4, 4, 5)
    with mock.patch.object(manifold, "shell_masks", spy):
        report = check_manifold(box, AXIS_FULL_3)
        assert report.certified and calls == [len(box)]
        global_sides(box, AXIS_FULL_3, report)
        assert calls == [len(box)] * 2
        global_sides(box, AXIS_FULL_3)  # certifies first
        assert calls == [len(box)] * 4
        local_components(min(box), box, AXIS_FULL_3)  # one point's mask, probed without a gather
        assert calls == [len(box)] * 4


def test_one_local_components_call_keys_only_the_king_neighbourhood():
    """Work, not time: a witness replay reads one point's shell mask by
    probing its king neighbourhood in m, with no ``half_keys`` call at all,
    however large m is."""
    keyed, keys = [], lattice.half_keys

    def spy(m, n):
        m = list(m)
        keyed.append(len(m))
        return keys(m, n)

    cases = [(sphere_shell(4, 3), FULL_AXIS_3), (box_surface(6, 5, 5), AXIS_FULL_3), (rect_boundary(30, 30), AXIS_FULL_2)]
    for m, pair in cases:
        expected = [local_components_oracle(p, m, pair) for p in sorted(m)[:5]]
        keyed.clear()
        with mock.patch.object(lattice, "half_keys", spy):
            got = [local_components(p, m, pair) for p in sorted(m)[:5]]
        assert got == expected and len(m) > 3**pair.n
        assert keyed == []


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << 2**n) - 1))))
# an axis path from corner 0 to corner 15 of a 4-cube, and corner 12 cut off
# beside it: the flood from the lowest bit reaches the top bit, not every bit
@example((4, 1 << 0 | 1 << 1 | 1 << 3 | 1 << 7 | 1 << 15 | 1 << 12))
@settings(max_examples=100, deadline=None)
def test_cut_connected_matches_the_components_of_the_occupied_corners(case):
    n, mask = case
    axes = tuple(range(n))
    occupied = [p for i, p in enumerate(lattice.corners(n, axes)) if mask >> i & 1]
    for alpha in (axis_adjacency(n), full_adjacency(n)):
        assert manifold._cut_connected(alpha, axes, mask) == (components_oracle(alpha, occupied).count <= 1)


def test_the_cube_and_shell_tables_flood_without_label():
    """Work, not time: with the four table caches cleared, every shape of a
    3-cube and every shell mask of a certified box is decided by the bit
    flood, with no ``adjacency.label`` call; a point-set labeling still
    makes one, so the spy sees every call."""
    calls, flood = [], adjacency.label

    def spy(todo, step):
        calls.append(len(todo))
        return flood(todo, step)

    box, cube = box_surface(4, 4, 5), lattice.Cube((0, 0, 0), (0, 1, 2))
    masks = set(lattice.shell_masks(sorted(box), 3))
    for table in (_shell, manifold._cut_connected, _candidates, _shape_verdict):
        table.cache_clear()
    with contextlib.ExitStack() as stack:
        # every module that holds the name
        for name, module in list(sys.modules.items()):
            if name.startswith("digitop") and getattr(module, "label", None) is flood:
                stack.enter_context(mock.patch.object(module, "label", spy))
        for pair in (AXIS_FULL_3, FULL_AXIS_3):
            for mask in range(256):
                manifold._cut_connected(pair.alpha, cube.axes, mask)
                _candidates(pair.alpha, cube.axes, mask)
                _shape_verdict(pair, cube.axes, mask)
                m = [v for i, v in enumerate(lattice.cube_vertices(cube)) if mask >> i & 1]
                with contextlib.suppress(ValueError):  # raised unless two background pieces
                    component_count_bounds_hold(m, cube, pair)
        for mask in masks:
            _shell(AXIS_FULL_3, mask)
        assert calls == []
        assert _shell.cache_info().misses == len(masks) > 1 and _shape_verdict.cache_info().misses == 512
        components(AXIS_FULL_3.alpha, box)
        assert calls == [len(box)]


def global_sides_oracle(m, pair):
    """The replaced ``global_sides`` body on the point oracles: each point's
    local sides from ``local_components_oracle``, one point at a time."""
    mset = frozenset(m)
    shell = {vec_add(p, v) for p in mset for v in shell_offsets(pair.n)} - mset
    labels = components_oracle(pair.beta, shell)
    comps = labels.components()
    assert len(comps) == 2
    for p in sorted(mset):
        c_p, d_p = local_components_oracle(p, mset, pair)
        assert labels[min(c_p)] != labels[min(d_p)]
    first = labels[min(local_components_oracle(min(mset), mset, pair)[0])]
    (second,) = comps.keys() - {first}
    return GlobalSides(comps[first], comps[second])


_CERTIFIED = [
    (rect_boundary(4, 4), AXIS_FULL_2),
    (rect_boundary(5, 3), AXIS_FULL_2),
    (frozenset(axis_adjacency(2).offsets), FULL_AXIS_2),
    (box_surface(3, 3, 3), AXIS_FULL_3),
    (box_surface(3, 4, 5), AXIS_FULL_3),
    (sphere_shell(2, 3), AXIS_FULL_3),
    (sphere_shell(3, 3), AXIS_FULL_3),
    (frozenset(axis_adjacency(3).offsets), FULL_AXIS_3),
]


@given(st.sampled_from(_CERTIFIED), st.data())
@settings(max_examples=30, deadline=None)
def test_global_sides_match_the_point_oracle(case, data):
    m, pair = case
    shift = data.draw(st.tuples(*[st.integers(-(10**12), 10**12)] * pair.n))
    moved = frozenset(vec_add(p, shift) for p in m)
    assert global_sides(moved, pair) == global_sides_oracle(moved, pair)
