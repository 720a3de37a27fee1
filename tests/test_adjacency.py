import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitop.adjacency import (
    AdjacencyPair,
    ComponentLabeling,
    Region,
    axis_adjacency,
    complement_components,
    components,
    custom_adjacency,
    elementary_equivalent,
    full_adjacency,
    is_path,
    n_simply_connected_bounded,
    neighbors,
)


def brute_flood(points, offsets):
    """Independent oracle: recursive flood fill over an explicit point set."""
    remaining = set(points)
    comps = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            p = frontier.pop()
            for v in offsets:
                q = tuple(a + b for a, b in zip(p, v))
                if q in remaining:
                    remaining.discard(q)
                    comp.add(q)
                    frontier.append(q)
        comps.append(frozenset(comp))
    return comps


def test_axis_neighbor_count():
    for n in (2, 3, 4):
        assert len(neighbors(axis_adjacency(n), (0,) * n)) == 2 * n


def test_full_neighbor_count():
    for n in (2, 3, 4):
        assert len(neighbors(full_adjacency(n), (0,) * n)) == 3**n - 1


def test_neighbors_translate():
    base = neighbors(full_adjacency(2), (0, 0))
    shifted = neighbors(full_adjacency(2), (5, 5))
    assert shifted == {(a + 5, b + 5) for a, b in base}


def test_adjacency_validation():
    with pytest.raises(ValueError):
        custom_adjacency(2, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)])  # asymmetric
    with pytest.raises(ValueError):
        custom_adjacency(2, [(1, 0), (-1, 0)])  # missing axis offsets
    with pytest.raises(ValueError):
        custom_adjacency(2, [(2, 0), (-2, 0)] + list(axis_adjacency(2).offsets))


def test_components_simple_cases():
    ax = axis_adjacency(2)
    assert components(ax, {(0, 0), (1, 0)}).count == 1
    assert components(ax, {(0, 0), (1, 1)}).count == 2
    assert components(full_adjacency(2), {(0, 0), (1, 1)}).count == 1


@given(
    st.sets(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=0, max_size=12
    ),
    st.randoms(),
)
@settings(max_examples=60)
def test_components_match_oracle_and_ignore_order(points, rng):
    spec = full_adjacency(2)
    labeling = components(spec, points)
    oracle = brute_flood(points, spec.sorted_offsets)
    assert labeling.count == len(oracle)
    shuffled = list(points)
    rng.shuffle(shuffled)
    again = components(spec, shuffled)
    assert again.labels == labeling.labels


def test_complement_components_empty_set():
    region = Region((-2, -2), (2, 2))
    lab = complement_components(axis_adjacency(2), frozenset(), region)
    assert lab.count == 1
    assert len(lab.infinite_ids) == 1


def test_complement_components_ring():
    # boundary of a 5x5 square: interior 3x3 separates from the outside
    ring = {
        (x, y)
        for x in range(5)
        for y in range(5)
        if x in (0, 4) or y in (0, 4)
    }
    region = Region((-2, -2), (6, 6))
    lab = complement_components(axis_adjacency(2), ring, region)
    comps = lab.components()
    assert len(comps) == 2
    sizes = sorted(len(pts) for pts in comps.values())
    interior = [pts for cid, pts in comps.items() if cid not in lab.infinite_ids]
    assert len(interior) == 1 and len(interior[0]) == 9
    # oracle: flood fill of the free region points
    free = {p for p in region.points() if p not in ring}
    assert sorted(len(c) for c in brute_flood(free, axis_adjacency(2).sorted_offsets)) == sizes


def test_complement_components_ring_full_background():
    ring = {
        (x, y)
        for x in range(5)
        for y in range(5)
        if x in (0, 4) or y in (0, 4)
    }
    region = Region((-2, -2), (6, 6))
    lab = complement_components(full_adjacency(2), ring, region)
    free = {p for p in region.points() if p not in ring}
    oracle = brute_flood(free, full_adjacency(2).sorted_offsets)
    assert lab.count == len(oracle) == 2


def test_complement_components_exactly_one_infinite():
    region = Region((-3, -3), (5, 5))
    m = {(0, 0), (1, 0), (2, 2)}
    lab = complement_components(full_adjacency(2), m, region)
    assert len(lab.infinite_ids) == 1


def test_complement_components_margin_enforced():
    region = Region((0, 0), (4, 4))
    with pytest.raises(ValueError):
        complement_components(axis_adjacency(2), {(0, 2)}, region)


def complement_components_oracle(spec, m, region):
    """Reference: label region \\ m, then merge every component that touches
    the region's boundary under the smallest of their ids."""
    mset = set(m)
    for p in mset:
        if not region.strictly_contains(p, 1):
            raise ValueError(f"region too small: {p} touches the margin zone")
    free = {p for p in region.points() if p not in mset}
    labeling = components(spec, free)
    comps = labeling.components()

    def on_boundary(p):
        return any(c == a or c == b for a, c, b in zip(region.lo, p, region.hi))

    infinite = sorted(cid for cid, pts in comps.items() if any(on_boundary(p) for p in pts))
    if not infinite:
        return ComponentLabeling(dict(labeling.labels), frozenset())
    merged_id = infinite[0]
    merged = set(infinite)
    labels = {p: (merged_id if cid in merged else cid) for p, cid in labeling.labels.items()}
    return ComponentLabeling(labels, frozenset({merged_id}))


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
@settings(max_examples=60, deadline=None)
def test_complement_components_match_the_oracle(case):
    m, pair = case
    for margin in (2, 4):
        region = Region.around(m, margin)
        got = complement_components(pair.beta, m, region)
        expected = complement_components_oracle(pair.beta, m, region)
        assert got.labels == expected.labels
        assert got.infinite_ids == expected.infinite_ids


def test_region_labels_its_complement_once_and_stays_a_value():
    ring = {(x, y) for x in range(5) for y in range(5) if x in (0, 4) or y in (0, 4)}
    region = Region.around(ring, 2)
    labeling = region.complement(axis_adjacency(2), ring)
    assert region.complement(axis_adjacency(2), frozenset(ring)) is labeling
    assert labeling.labels == complement_components(axis_adjacency(2), ring, region).labels
    assert region.complement(full_adjacency(2), ring) is not labeling
    assert labeling.count == 2 and region.complement(axis_adjacency(2), ring - {(2, 0)}).count == 1
    fresh = Region(region.lo, region.hi)
    assert region == fresh and hash(region) == hash(fresh)
    assert repr(region) == repr(fresh)


def test_is_path():
    ax = axis_adjacency(2)
    assert is_path(ax, [(0, 0), (1, 0), (1, 1)])
    assert not is_path(ax, [(0, 0), (1, 1)])
    assert is_path(ax, [(7, 7)])


def test_elementary_equivalent_identity():
    w = [(0, 0), (1, 0)]
    assert elementary_equivalent(w, w, 1)


def test_elementary_equivalent_square_shortcut():
    square = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
    shortcut = [(0, 0), (1, 1), (0, 0)]
    assert elementary_equivalent(square, shortcut, 2)
    assert not elementary_equivalent(square, shortcut, 1)


def test_simply_connected_single_point():
    assert n_simply_connected_bounded(full_adjacency(2), {(0, 0)}, 2) == "yes"


def test_simply_connected_ring_with_center():
    ring = set(full_adjacency(2).offsets)
    assert n_simply_connected_bounded(full_adjacency(2), ring | {(0, 0)}, 2, 100_000) == "yes"


def test_ring_without_center_is_inconclusive_at_low_bound():
    ring = set(full_adjacency(2).offsets)
    assert n_simply_connected_bounded(axis_adjacency(2), ring, 1, 3_000) == "unknown"


def test_ring_contracts_at_bound_four():
    ring = set(full_adjacency(2).offsets)
    assert n_simply_connected_bounded(axis_adjacency(2), ring, 4, 100_000) == "yes"


def test_simply_connected_requires_connected_input():
    with pytest.raises(ValueError):
        n_simply_connected_bounded(axis_adjacency(2), {(0, 0), (5, 5)}, 2)


def test_full_neighborhood_is_axis_connected():
    for n in (2, 3, 4):
        shell = neighbors(full_adjacency(n), (0,) * n)
        assert components(axis_adjacency(n), shell).count == 1


def test_boxes_are_axis_connected():
    for n in (2, 3):
        box = set(itertools.product(range(5), repeat=n))
        assert components(axis_adjacency(n), box).count == 1
