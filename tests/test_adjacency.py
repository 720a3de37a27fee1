from __future__ import annotations

import heapq
import itertools
import re
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from digitop.adjacency import (
    AdjacencyPair,
    AdjacencySpec,
    ComponentLabeling,
    Region,
    axis_adjacency,
    complement_components,
    components,
    custom_adjacency,
    elementary_equivalent,
    full_adjacency,
    is_path,
    label,
    n_simply_connected_bounded,
    neighbors,
    neighbour_table,
)
from digitop import adjacency
from digitop.adjacency import _contract_cycle, _CycleGraph
from digitop.lattice import HalfGrid, Point, corners, row_major_strides, shell_offsets, vec_add
from digitop.manifold import check_manifold
from test_lattice import far_sets


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


def region_points(region):
    """Every lattice point of the window, in lexicographic order."""
    return itertools.product(*(range(a, b + 1) for a, b in zip(region.lo, region.hi)))


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
    king = "offset set must be contained in the full (king-move) offsets"
    axis2, axis3 = list(axis_adjacency(2).offsets), list(axis_adjacency(3).offsets)
    for n, offsets, message in [
        (2, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)], "offset set is not symmetric: missing (-1, -1)"),
        (2, [(1, 0), (-1, 0)], "offset set must contain all axis unit offsets"),
        # a set that misses a unit names the unit first
        (2, [(1, 0), (-1, 0), (2, 2), (-2, -2)], "offset set must contain all axis unit offsets"),
        (2, [(2, 0), (-2, 0)] + axis2, king),
        (3, [(0, 2, -1), (0, -2, 1)] + axis3, king),
        (2, [(0, 0)] + axis2, king),
        (12, [(0,) * 12] + list(axis_adjacency(12).offsets), king),
        (2, [(1, 0, 0)] + axis2, "offset (1, 0, 0) has wrong dimension (expected 2)"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            custom_adjacency(n, offsets)


def test_an_axis_spec_in_12_dimensions_builds_no_full_offset_set():
    # the full set has 3^12 - 1 = 531 440 offsets, about 75 MB as tuples
    offsets = axis_adjacency(12).offsets
    tracemalloc.start()
    try:
        spec = AdjacencySpec(12, offsets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.offsets == offsets and peak < 1_000_000


def test_adjacency_hash_ignores_the_label_and_is_stable():
    full = full_adjacency(3)
    relabeled = AdjacencySpec(3, frozenset(full.offsets))  # built apart from the cached spec
    assert relabeled == full and hash(relabeled) == hash(full)
    assert AdjacencySpec(3, full.offsets) != axis_adjacency(3)
    pair = AdjacencyPair(relabeled, axis_adjacency(3))
    twin = AdjacencyPair(full, custom_adjacency(3, axis_adjacency(3).offsets))
    assert pair == twin and hash(pair) == hash(twin) == hash(pair)
    assert {pair: 1}[twin] == 1


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
@settings(max_examples=60, deadline=None)
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
    free = {p for p in region_points(region) if p not in ring}
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
    free = {p for p in region_points(region) if p not in ring}
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


@dataclass(frozen=True)
class DictLabeling:
    """The dict form of a labeling, which the oracles build: ``labels`` maps
    each point to the smallest member of its component, and every read is
    taken from that dict, sharing no code with ``ComponentLabeling``."""

    labels: dict
    infinite_ids: frozenset = frozenset()

    @property
    def count(self):
        return len(set(self.labels.values()))

    def sizes(self):
        return dict(sorted(Counter(self.labels.values()).items()))

    def ids_near(self, spec, p):
        return {self.labels[q] for q in neighbors(spec, p) if q in self.labels}

    def components(self):
        acc = {}
        for p, cid in self.labels.items():
            acc.setdefault(cid, set()).add(p)
        return {cid: frozenset(pts) for cid, pts in sorted(acc.items())}


def label_oracle(points, step):
    """The dict flood fill ``adjacency.label`` replaced: each point maps to the
    smallest member of its component; ``step(p)`` yields p's neighbours, and
    those outside ``points`` are skipped."""
    order = sorted(points)
    todo = set(order)
    labels = {}
    for start in order:
        if start not in todo:
            continue
        todo.remove(start)
        labels[start] = start
        stack = [start]
        while stack:
            for q in step(stack.pop()):
                if q in todo:
                    todo.remove(q)
                    labels[q] = start
                    stack.append(q)
    return labels


def complement_components_dict_oracle(spec, m, region):
    """The dict-building ``complement_components`` the window view replaced:
    a cell -> point dict over the padded row-major grid, flooded by
    ``label_oracle``, with the labels stored as a point -> point dict."""
    mset = set(m)
    region.require_inside(mset)
    sizes = [b - a + 3 for a, b in zip(region.lo, region.hi)]
    strides = row_major_strides(sizes)
    cells = [0]
    for a, b, stride in zip(region.lo, region.hi, strides):
        cells = [c + k * stride for c in cells for k in range(1, b - a + 2)]
    free = {c: p for c, p in zip(cells, region_points(region)) if p not in mset}
    deltas = [sum(c * s for c, s in zip(v, strides)) for v in spec.sorted_offsets]
    labels = label_oracle(free, lambda c: [c + d for d in deltas])
    return DictLabeling({p: free[labels[c]] for c, p in free.items()}, frozenset({region.lo}))


def complement_components_oracle(spec, m, region):
    """Reference: label region \\ m over point tuples, then merge every
    component that touches the region's boundary under the smallest of
    their ids.  It shares no code with the labeling under test."""
    mset = set(m)
    for p in mset:
        if not region.strictly_contains(p):
            raise ValueError(f"region too small: {p} touches the margin zone")
    free = {p for p in region_points(region) if p not in mset}
    labeling = DictLabeling(label_oracle(free, lambda p: [vec_add(p, v) for v in spec.sorted_offsets]))
    comps = labeling.components()

    def on_boundary(p):
        return any(c == a or c == b for a, c, b in zip(region.lo, p, region.hi))

    infinite = sorted(cid for cid, pts in comps.items() if any(on_boundary(p) for p in pts))
    if not infinite:
        return DictLabeling(labeling.labels, frozenset())
    merged_id = infinite[0]
    merged = set(infinite)
    labels = {p: (merged_id if cid in merged else cid) for p, cid in labeling.labels.items()}
    return DictLabeling(labels, frozenset({merged_id}))


@st.composite
def adjacency_specs(draw, n):
    """The axis, the full or a random symmetric relation on Z^n."""
    kind = draw(st.sampled_from(("axis", "full", "custom")))
    if kind != "custom":
        return (axis_adjacency if kind == "axis" else full_adjacency)(n)
    diagonals = sorted(v for v in full_adjacency(n).offsets - axis_adjacency(n).offsets if v > (0,) * n)
    chosen = draw(st.lists(st.sampled_from(diagonals), unique=True))
    symmetric = {u for v in chosen for u in (v, tuple(-c for c in v))}
    return custom_adjacency(n, axis_adjacency(n).offsets | symmetric)


@st.composite
def boxed_sets(draw):
    """A nonempty random subset of a 4x4, 3x3x3 or 2x2x2x2 box, translated,
    under an axis/full foreground and an axis, full or custom background."""
    sides = draw(st.sampled_from([(4, 4), (3, 3, 3), (2, 2, 2, 2)]))
    cells = sorted(itertools.product(*(range(s) for s in sides)))
    chosen = draw(st.frozensets(st.sampled_from(cells), min_size=1))
    shift = draw(st.tuples(*[st.integers(-30, 30)] * len(sides)))
    n = len(sides)
    alpha = draw(st.sampled_from((axis_adjacency, full_adjacency)))(n)
    beta = draw(adjacency_specs(n))
    m = frozenset(tuple(a + b for a, b in zip(p, shift)) for p in chosen)
    return m, AdjacencyPair(alpha, beta)


_PLUS_4 = custom_adjacency(4, axis_adjacency(4).offsets | {(1, 1, 0, 0), (-1, -1, 0, 0), (0, 1, 0, -1), (0, -1, 0, 1)})


# an axis-enclosed L-shaped hole: its lexicographically smallest point
# (-7, -1) is not the one that is smallest with the first axis fastest
_L_HOLE = frozenset(
    (x - 8, y - 3) for x in range(4) for y in range(4) if (x, y) not in {(1, 2), (2, 1), (2, 2)}
)


@given(boxed_sets())
@example((_L_HOLE, AdjacencyPair(full_adjacency(2), axis_adjacency(2))))
@example((frozenset({(-9, -4, -7, -2), (-8, -3, -7, -2), (-9, -3, -6, -1)}), AdjacencyPair(full_adjacency(4), _PLUS_4)))
@example((frozenset({(-3, -1), (-2, -1), (-1, -2), (-3, -3), (-2, -3)}), AdjacencyPair(axis_adjacency(2), axis_adjacency(2))))
@settings(max_examples=60, deadline=None)
def test_complement_components_match_the_oracle(case):
    m, pair = case
    for margin in (2, 4):
        region = Region.around(m, margin)
        got = complement_components(pair.beta, m, region)
        expected = complement_components_oracle(pair.beta, m, region)
        assert got.labels == expected.labels
        assert got.infinite_ids == expected.infinite_ids
        # the view reads as the dicts it replaced, and keys no cell twice
        assert dict(got.labels.items()) == expected.labels == complement_components_dict_oracle(pair.beta, m, region).labels
        assert len(got.labels) == len(expected.labels) == len(list(got.labels))
        assert got.count == expected.count and got.sizes() == expected.sizes()
        assert all(got.ids_near(pair.beta, p) == expected.ids_near(pair.beta, p) for p in m)


def test_the_window_view_keys_only_the_free_points_of_the_region():
    ring = {(x, y) for x in range(5) for y in range(5) if x in (0, 4) or y in (0, 4)}
    region = Region.around(ring, 2)  # (-2, -2)..(6, 6), 9 cells a row
    labels = complement_components(axis_adjacency(2), ring, region).labels
    assert len(labels) == 81 - 16 and labels.get((2, 2)) == (1, 1) and labels[(-2, -2)] == (-2, -2)
    # outside the region, on the blocked rim, in m, or of another dimension:
    # a point is no key, and a stride sum that lands on a free cell is not read
    aliases = [(1, 1 + 11), (2, 1 - 11), (1, 1, 0), (1,), (-2, 7), (7, 0), (-3, -2)]
    for p in [(-3, 0), (7, 7), (0, 0), (4, 2), *aliases]:
        assert labels.get(p) is None and labels.get(p, "default") == "default" and p not in labels
        with pytest.raises(KeyError):
            labels[p]
    assert (1, 1) in labels and sorted(labels) == list(labels)


def require_inside_oracle(region, m):
    """The replaced ``Region.require_inside`` body: every point is tried in turn."""
    for p in m:
        if not region.strictly_contains(p):
            raise ValueError(f"region too small: {p} touches the margin zone")


def complement_components_cell_oracle(spec, m, region):
    """The replaced ``complement_components`` flood, which steps from every
    free cell of the padded window to each offset's key: its ids list."""
    mset = set(m)
    require_inside_oracle(region, mset)
    lo, hi = region.lo, region.hi
    sizes = [b - a + 3 for a, b in zip(lo, hi)]
    grid = HalfGrid(tuple(a - 1 for a in lo), row_major_strides(sizes))
    todo = bytearray(sizes[0] * grid.strides[0])
    row = sizes[-1] - 2
    for k in itertools.product(*(range(1, size - 1) for size in sizes[:-1])):
        start = grid.offset(k) + 1
        todo[start : start + row] = b"\1" * row
    for p in mset:
        todo[grid.key(p)] = 0
    deltas = list(map(grid.offset, spec.sorted_offsets))
    return label(todo, lambda fr: [c + d for c in fr for d in deltas])[0]


# (1, 1, +-1) but not (1, 1, 0): the last-axis shifts of the prefix move (1, 1)
# are no interval, and the two pockets below touch only through (1, 1, 0)
_SKEW_3 = custom_adjacency(3, axis_adjacency(3).offsets | {(1, 1, 1), (-1, -1, -1), (1, 1, -1), (-1, -1, 1)})
_POCKETS = frozenset(
    p for c in ((0, 0, 0), (1, 1, 0)) for p in itertools.product(*((x - 1, x, x + 1) for x in c))
) - {(0, 0, 0), (1, 1, 0)}
# the row x = 1 is cut at (1, 0) and (1, 2) into three runs, and the middle
# one, (1, 1), is an axis-enclosed hole
_THREE_RUNS = frozenset({(1, 0), (1, 2), (0, 1), (2, 1)})
_FAR = frozenset(vec_add(p, (10**12, -(10**12), 10**12)) for p in _POCKETS)


@given(boxed_sets())
@example((_POCKETS, AdjacencyPair(full_adjacency(3), _SKEW_3)))
@example((_FAR, AdjacencyPair(full_adjacency(3), _SKEW_3)))
@example((_THREE_RUNS, AdjacencyPair(full_adjacency(2), axis_adjacency(2))))
@example((_THREE_RUNS, AdjacencyPair(axis_adjacency(2), full_adjacency(2))))
@settings(max_examples=80, deadline=None)
def test_the_run_flood_matches_the_cell_flood(case):
    m, pair = case
    for margin in (2, 4):
        region = Region.around(m, margin)
        got = complement_components(pair.beta, m, region)
        assert got.ids == complement_components_cell_oracle(pair.beta, m, region)
        assert got.infinite_ids == frozenset({region.lo})


def test_pinned_run_floods():
    full3 = full_adjacency(3)
    for m in (_POCKETS, _FAR):
        # each pocket is a component of its own under the skew spec, one with
        # the other under full, and the outside is a third or a second
        region = Region.around(m, 2)
        assert complement_components(_SKEW_3, m, region).count == 3
        assert complement_components(full3, m, region).count == 2
    region = Region.around(_THREE_RUNS, 2)
    axis = complement_components(axis_adjacency(2), _THREE_RUNS, region)
    assert axis.count == 2 and axis[(1, 1)] == (1, 1) and axis[(1, 3)] == region.lo
    assert complement_components(full_adjacency(2), _THREE_RUNS, region).count == 1


def test_the_largest_window_floods_one_node_per_run():
    """Work, not time: the two-point 1000 x 1000 window at the --max-cells cap
    gives ``label`` at most one node per row plus one per point of m."""
    m = frozenset({(0, 0), (995, 995)})
    region = Region.around(m, 2)
    nodes, flood = [], adjacency.label

    def spy(todo, step):
        nodes.append(len(todo))
        return flood(todo, step)

    with mock.patch.object(adjacency, "label", spy):
        labeling = complement_components(full_adjacency(2), m, region)
    rows = region.hi[0] - region.lo[0] + 1
    assert rows == 1000 and nodes == [rows + len(m)]
    assert labeling.count == 1 and len(labeling) == 1000 * 1000 - 2
    assert labeling[(1, 1)] == labeling[(997, 997)] == region.lo and (0, 0) not in labeling


@st.composite
def windows_and_points(draw):
    """A window in n = 2..3 and a few points of n - 1, n or n + 1
    coordinates near it, in a list, a tuple or a frozenset."""
    n = draw(st.integers(2, 3))
    lo = draw(st.tuples(*[st.integers(-4, 4)] * n))
    hi = tuple(a + draw(st.integers(0, 6)) for a in lo)
    coords = st.integers(-6, 11)
    point = st.integers(n - 1, n + 1).flatmap(lambda d: st.tuples(*[coords] * d))
    inside = st.tuples(*[st.integers(a + 1, max(a + 1, b - 1)) for a, b in zip(lo, hi)])
    pts = draw(st.lists(st.one_of(inside, point), max_size=8))
    return Region(lo, hi), draw(st.sampled_from((list, tuple, frozenset)))(pts)


def _raised(check, region, m):
    try:
        check(region, m)
    except ValueError as error:
        return str(error)
    return None


@given(windows_and_points())
@example((Region((0, 0), (4, 4)), [(2, 2), (1,), (2, 2, 9)]))
@example((Region((0, 0), (4, 4)), [(2, 2, 9), (0, 2)]))
@example((Region((0, 0), (4, 4)), [(1,), (0,)]))
@example((Region((0, 0), (4, 4)), frozenset({(2,), (2, 0)})))  # the short point hides the offender from the box
@example((Region((0, 0, 0), (4, 4, 4)), []))
@settings(max_examples=200, deadline=None)
def test_require_inside_raises_as_the_point_loop_did(case):
    region, m = case
    assert _raised(Region.require_inside, region, m) == _raised(require_inside_oracle, region, m)


@st.composite
def flood_cases(draw):
    """A random symmetric graph on 0..n-1 and a random mask of free ids."""
    n = draw(st.integers(0, 40))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return adj, mask


@given(flood_cases())
@settings(max_examples=200, deadline=None)
def test_label_matches_the_dict_flood_it_replaced(case):
    adj, mask = case
    todo = bytearray(mask)
    ids, sizes = adjacency.label(todo, lambda fr: [j for i in fr for j in adj[i]])
    expected = label_oracle([i for i, free in enumerate(mask) if free], adj.__getitem__)
    assert ids == [expected.get(i, -1) for i in range(len(adj))]
    assert list(sizes.items()) == sorted(Counter(expected.values()).items())  # per seed, in seed order
    assert not any(todo)  # consumed


@st.composite
def masked_cases(draw):
    """A spec in n = 2..5, a cube's corners (random axes) or the shell
    offsets, and a random mask of them, negative (``~occupied``) half the time."""
    n = draw(st.integers(2, 5))
    spec = draw(adjacency_specs(n))
    if draw(st.booleans()):
        points = corners(n, tuple(sorted(draw(st.sets(st.integers(0, n - 1))))))
    else:
        points = shell_offsets(n)
    mask = draw(st.integers(0, (1 << len(points)) - 1))
    return spec, points, ~mask if draw(st.booleans()) else mask


def masked_components_oracle(spec, points, mask):
    """The replaced ``masked_components``: the bits of ``mask`` as a byte
    string, ``label``-flooded through the tuple's ``neighbour_table``."""
    index, table = neighbour_table(spec, points)
    size = len(points)
    # byte i is bit i: the bits below a sentinel bit at ``size``, reversed
    todo = bytearray(format(mask & ~(-1 << size) | 1 << size, "b")[:0:-1], "ascii").translate(bytes.maketrans(b"01", b"\0\1"))
    ids, sizes = label(todo, lambda fr: [j for i in fr for j in table[i]])
    return ComponentLabeling(ids, sizes, lambda p: index.get(p, -1), points.__getitem__)


def decoded(points, comps):
    """Each component mask as the set of its points."""
    return [frozenset(adjacency.masked_points(points, c)) for c in comps]


@given(masked_cases())
@settings(max_examples=150, deadline=None)
def test_the_masked_flood_matches_components_of_the_decoded_points(case):
    spec, points, mask = case
    got = list(adjacency.masked_components(spec, points, mask))
    chosen = [p for i, p in enumerate(points) if mask >> i & 1]
    expected = components(spec, chosen)
    comps = decoded(points, got)
    assert {p: min(comp) for comp in comps for p in comp} == dict(expected.items())
    # a component's id is its lowest bit, which numbers its smallest point
    ids = [-1] * len(points)
    for c in got:
        for i in range(len(points)):
            if c >> i & 1:
                ids[i] = (c & -c).bit_length() - 1
    assert ids == [points.index(expected[p]) if p in expected else -1 for p in points]
    assert len(got) == expected.count and comps == list(expected.components().values())
    # the masks partition the chosen bits, and no bit lies past the points
    assert sum(got) == mask & ~(-1 << len(points)) == sum(1 << i for i, p in enumerate(points) if p in expected)
    assert sum(c.bit_count() for c in got) == len(expected)
    assert not list(adjacency.masked_components(spec, (), mask))
    # the table is one per (spec, tuple), shared by every mask
    assert adjacency.neighbour_bits(spec, points) is adjacency.neighbour_bits(spec, points)
    assert adjacency.neighbour_bits(spec, points) == [
        sum(1 << j for j in row) for row in adjacency.neighbour_table(spec, points)[1]
    ]


@given(masked_cases())
@example((axis_adjacency(5), shell_offsets(5), -1))
@example((full_adjacency(5), corners(5, (0, 1, 2, 3, 4)), 0b10000000000000000000000000000001))
@example((custom_adjacency(2, axis_adjacency(2).offsets | {(1, 1), (-1, -1)}), shell_offsets(2), ~0b00100100))
@settings(max_examples=150, deadline=None)
def test_the_bit_flood_matches_the_label_flood_it_replaced(case):
    spec, points, mask = case
    got = list(adjacency.masked_components(spec, points, mask))
    expected = masked_components_oracle(spec, points, mask)
    assert decoded(points, got) == list(expected.components().values())
    assert [(c & -c).bit_length() - 1 for c in got] == [i for i, c in enumerate(expected.ids) if c == i]


def counted_oracle(lab):
    """The replaced scans of a labeling's id list: its count, its sizes in
    increasing id order and its len, from the numbers that are their own id
    and a ``Counter`` of the ids; ``counts(lab)`` reads the same from the labeling."""
    sizes = Counter(lab.ids)
    del sizes[-1]
    count = sum(c == i for i, c in enumerate(lab.ids))
    return count, [(lab.point(c), k) for c, k in sorted(sizes.items())], len(lab.ids) - lab.ids.count(-1)


def counts(lab):
    return lab.count, list(lab.sizes().items()), len(lab)


@st.composite
def spec_sets(draw):
    """A random set in a small 2-, 3- or 4-D box under an axis, full or custom spec."""
    n = draw(st.integers(2, 4))
    r = {2: 4, 3: 2, 4: 1}[n]
    points = draw(st.frozensets(st.tuples(*[st.integers(-r, r)] * n), max_size=16))
    return points, draw(adjacency_specs(n))


@given(spec_sets())
@example((_THREE_RUNS, axis_adjacency(2)))  # windows whose components span several runs
@example((_POCKETS, _SKEW_3))
@settings(max_examples=80, deadline=None)
def test_a_point_set_labeling_reads_as_the_flood_of_its_points(case):
    points, spec = case
    n = spec.n
    lab = components(spec, points)
    oracle = brute_flood(points, spec.sorted_offsets)
    expected = DictLabeling({p: min(comp) for comp in oracle for p in comp})
    assert lab.labels is lab and dict(lab.items()) == expected.labels
    assert len(lab) == len(points) and list(lab) == sorted(points)
    assert lab.count == expected.count == len(oracle)
    assert lab.sizes() == expected.sizes() and lab.components() == expected.components()
    assert list(lab.components()) == list(lab.sizes()) == sorted(min(comp) for comp in oracle)
    assert counts(lab) == counted_oracle(lab)
    assert all(lab.get(p) == lab[p] == expected.labels[p] for p in points)
    # a non-member and a point of another dimension are no keys
    for q in [(9,) * n, (0,) * (n + 1), (0,) * (n - 1), *(p + (0,) for p in points)]:
        assert q not in lab and lab.get(q) is None and lab.get(q, "default") == "default"
        with pytest.raises(KeyError):
            lab[q]
    near = points | {vec_add(p, v) for p in points for v in spec.offsets}
    assert all(lab.ids_near(spec, p) == expected.ids_near(spec, p) for p in near)
    with pytest.raises(ValueError):
        lab.ids_near(spec, (0,) * (n + 1))
    # equal when the labels and infinite_ids agree, whatever the numbering
    assert components(spec, sorted(points, reverse=True)) == lab == expected.labels
    if points:
        flagged = ComponentLabeling(lab.ids, lab.id_sizes, lab.index, lab.point, frozenset({min(points)}))
        assert dict(flagged.items()) == dict(lab.items()) and flagged != lab
        assert components(spec, points - {max(points)}) != lab
        region = Region.around(points, 2)
        window = complement_components(spec, points, region)
        assert counts(window) == counted_oracle(window)
        free = components(spec, [p for p in region_points(region) if p not in points])
        flat = ComponentLabeling(free.ids, free.id_sizes, free.index, free.point, window.infinite_ids)
        assert window != free and window == flat


def components_oracle(spec, points):
    """The replaced ``components``: the flood steps from a point to each
    offset's tuple and probes a dict of points."""
    pts = sorted(set(points))
    index = {p: i for i, p in enumerate(pts)}
    offsets = spec.sorted_offsets
    ids, sizes = label(
        bytearray(b"\1") * len(pts),
        lambda fr: [j for i in fr for v in offsets if (j := index.get(vec_add(pts[i], v))) is not None],
    )
    return ComponentLabeling(ids, sizes, lambda p: index.get(p, -1), pts.__getitem__)


def neighbour_table_oracle(spec, points):
    """The replaced ``neighbour_table`` body: one tuple built and hashed per
    point and offset."""
    index = {p: i for i, p in enumerate(points)}
    return index, [[j for v in spec.sorted_offsets if (j := index.get(vec_add(p, v))) is not None] for p in points]


@st.composite
def keyed_cases(draw):
    """A spec in n = 2..4 and a set far from the origin or spread far apart."""
    n = draw(st.integers(2, 4))
    return draw(adjacency_specs(n)), draw(far_sets(n))


@given(keyed_cases())
@example((full_adjacency(2), frozenset({(10**12, -(10**12)), (10**12 + 1, -(10**12) + 1), (-(10**12), 10**12)})))
@example((axis_adjacency(4), frozenset({(0, 0, 0, 0), (10**12, 0, 0, 0), (10**12, 0, 0, 1)})))
@settings(max_examples=150, deadline=None)
def test_keyed_lookups_match_the_tuple_stepping_oracles(case):
    spec, points = case
    pts = tuple(sorted(points))
    assert neighbour_table.__wrapped__(spec, pts) == neighbour_table_oracle(spec, pts)
    got, expected = components(spec, points), components_oracle(spec, points)
    assert got.ids == expected.ids and got == expected and dict(got.items()) == dict(expected.items())
    assert got.count == expected.count and got.components() == expected.components()
    assert _CycleGraph(spec, points).adj == neighbour_table_oracle(spec, pts)[1]  # the search's graph


def test_points_of_another_dimension_are_refused():
    full2 = full_adjacency(2)
    with pytest.raises(ValueError, match="wrong dimension"):
        components(full2, [(0, 0, 0), (1, 1, 1)])
    with pytest.raises(ValueError, match="wrong dimension"):
        components(full2, [(0, 0), (0, 0, 1)])
    for table in (neighbour_table, neighbour_table.__wrapped__):
        with pytest.raises(ValueError, match="wrong dimension"):
            table(full2, ((0, 0), (0, 0, 1)))
        with pytest.raises(ValueError, match="wrong dimension"):
            table(full2, ((5,),))
    assert components(full2, []).count == 0


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


# The point-based contractibility search that the indexed one replaced, kept
# as its oracle: every rewrite and every push must come out the same.


def bounded_paths_oracle(
    spec: AdjacencySpec,
    allowed: frozenset[Point],
    first: tuple[str, Point] | None,
    last_adjacent_to: Point | None,
    max_len: int,
) -> Iterator[tuple[Point, ...]]:
    """Nonempty point sequences inside ``allowed`` usable as a replacement run."""

    def starts() -> Iterator[Point]:
        if first is None:
            yield from sorted(allowed)
        elif first[0] == "eq":
            if first[1] in allowed:
                yield first[1]
        else:
            for q in sorted(neighbors(spec, first[1]) & allowed):
                yield q

    def extend(prefix: tuple[Point, ...]) -> Iterator[tuple[Point, ...]]:
        if last_adjacent_to is None or spec.adjacent(prefix[-1], last_adjacent_to):
            yield prefix
        if len(prefix) < max_len:
            for q in sorted(neighbors(spec, prefix[-1]) & allowed):
                yield from extend(prefix + (q,))

    if max_len >= 1:
        for s in starts():
            yield from extend((s,))


def cycle_rewrites_oracle(
    spec: AdjacencySpec,
    allowed: frozenset[Point],
    w: tuple[Point, ...],
    bound: int,
    max_len: int,
) -> Iterator[tuple[Point, ...]]:
    length = len(w)
    for i in range(length + 1):
        for j in range(i, length + 1):
            k = j - i
            nmax = bound + 2 - k
            if nmax < 0:
                continue
            nmax = min(nmax, max_len - (length - k))
            before = w[i - 1] if i > 0 else None
            after = w[j] if j < length else None
            # empty replacement: the kept pieces must join up directly
            if k >= 1 and (
                before is None
                or after is None
                or spec.adjacent(before, after)
            ):
                w2 = w[:i] + w[j:]
                if w2 and (len(w2) == 1 or w2[0] == w2[-1]):
                    yield w2
            if before is not None:
                first = ("adj", before)
            elif after is not None:
                # replacement includes the basepoint: pin it to keep a cycle
                first = ("eq", w[0])
            else:
                first = None
            for run in bounded_paths_oracle(spec, allowed, first, after, max(nmax, 0)):
                if k + len(run) < 1 or k + len(run) > bound + 2:
                    continue
                w2 = w[:i] + run + w[j:]
                if not w2 or len(w2) > max_len:
                    continue
                if len(w2) > 1 and w2[0] != w2[-1]:
                    continue
                yield w2


def contract_cycle_oracle(
    spec: AdjacencySpec,
    allowed: frozenset[Point],
    cycle: Sequence[Point],
    bound: int,
    budget: int,
) -> bool:
    start = tuple(cycle)
    if len(start) <= 1:
        return True
    max_len = len(start) + bound + 2
    seen = {start}
    counter = itertools.count()
    heap: list[tuple[int, int, tuple[Point, ...]]] = [(len(start), next(counter), start)]
    pushes = 0
    while heap:
        _, _, w = heapq.heappop(heap)
        for w2 in cycle_rewrites_oracle(spec, allowed, w, bound, max_len):
            if w2 in seen:
                continue
            seen.add(w2)
            if len(w2) == 1:
                return True
            pushes += 1
            if pushes > budget:
                return False
            heapq.heappush(heap, (len(w2), next(counter), w2))
    return False


def generator_cycles_oracle(spec, s):
    """The fundamental cycles, on points, in the order the search takes them."""
    pts = frozenset(s)
    root = min(pts)
    parent: dict[Point, Point | None] = {root: None}
    queue = [root]
    while queue:
        p = queue.pop(0)
        for v in spec.sorted_offsets:
            q = vec_add(p, v)
            if q in pts and q not in parent:
                parent[q] = p
                queue.append(q)
    if len(parent) != len(pts):
        raise ValueError("the set must be connected under the given adjacency")

    def root_path(p: Point) -> list[Point]:
        out = [p]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])  # type: ignore[arg-type]
        out.reverse()
        return out

    tree_edges = {frozenset((p, q)) for p, q in parent.items() if q is not None}
    non_tree = sorted(
        (p, q)
        for p in pts
        for q in neighbors(spec, p) & pts
        if p < q and frozenset((p, q)) not in tree_edges
    )
    for p, q in non_tree:
        yield root_path(p) + list(reversed(root_path(q)))


@st.composite
def search_cases(draw):
    """The largest component of a random subset of a 3x3 or 3x3x3 box,
    translated, under the axis, the full or a random symmetric relation, with
    a bound of 1 to 3."""
    sides = draw(st.sampled_from([(3, 3), (3, 3, 3)]))
    n = len(sides)
    spec = draw(adjacency_specs(n))
    cells = sorted(itertools.product(*(range(s) for s in sides)))
    chosen = draw(st.frozensets(st.sampled_from(cells), min_size=1, max_size=8))
    shift = draw(st.tuples(*[st.integers(-30, 30)] * n))
    m = {tuple(a + b for a, b in zip(p, shift)) for p in chosen}
    pieces = components(spec, m).components().values()
    return spec, max(pieces, key=len), draw(st.integers(1, 3))


def smallest_budget(contracts, cap):
    """The least budget under which ``contracts(budget)`` succeeds, or None
    past ``cap``; success is monotone in the budget.  That budget is the
    number of pushes before the search reaches one point, so equal budgets
    pin the push count."""
    if not contracts(cap):
        return None
    lo, hi = 0, cap
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if contracts(mid) else (mid + 1, hi)
    return lo


@given(search_cases())
@settings(max_examples=50, deadline=None)
def test_indexed_search_matches_the_point_oracle(case):
    spec, s, bound = case
    graph = _CycleGraph(spec, s)
    cycles = list(graph.generator_cycles())
    assume(cycles)
    as_points = [[graph.points[i] for i in cycle] for cycle in cycles]
    assert as_points == list(generator_cycles_oracle(spec, s))
    # one graph for every cycle and budget, as in one search, so the memoized
    # walks and walk counts are shared the way the search shares them
    for cycle, points in zip(cycles, as_points):
        new = smallest_budget(lambda b: _contract_cycle(graph, cycle, bound, b), 300)
        old = smallest_budget(lambda b: contract_cycle_oracle(spec, s, points, bound, b), 300)
        assert new == old


def matches_the_oracle_at_its_smallest_budget(spec, s, bound, cap):
    """Every generator cycle of s contracts under the same least budget as
    under the point oracle, or under neither within ``cap``: the indexed
    search's least budget b is found by bisection, and the oracle must fail
    at b - 1 and succeed at b."""
    graph = _CycleGraph(spec, s)
    for cycle in graph.generator_cycles():
        points = [graph.points[i] for i in cycle]
        least = smallest_budget(lambda b: _contract_cycle(graph, cycle, bound, b), cap)
        if least is None:
            assert not contract_cycle_oracle(spec, s, points, bound, cap)
        else:
            assert contract_cycle_oracle(spec, s, points, bound, least)
            assert least == 0 or not contract_cycle_oracle(spec, s, points, bound, least - 1)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_every_certified_sphere_contracts_under_the_oracles_budget(n, bound):
    # the background spheres of the axis/full pairs that good-pair searches
    certified = 0
    for alpha, beta in itertools.product((axis_adjacency(n), full_adjacency(n)), repeat=2):
        sphere = frozenset(beta.offsets)
        if check_manifold(sphere, AdjacencyPair(alpha, beta)).certified:
            certified += 1
            matches_the_oracle_at_its_smallest_budget(alpha, sphere, bound, 100_000)
    assert certified == 2


def counted_rewrites(graph, cycle, bound):
    """The rewrites the search counts before its first one-point rewrite,
    found as the least budget under which it answers without starting its
    exact recount; None if it runs out of cycles first."""

    def counting_alone(budget):
        with mock.patch.object(adjacency, "_contract_cycle", side_effect=AssertionError("recount")):
            try:
                return _contract_cycle(graph, cycle, bound, budget)
            except AssertionError:
                return False

    return smallest_budget(counting_alone, 100_000)


@given(search_cases(), st.data())
@settings(max_examples=40, deadline=None)
def test_budgets_between_the_distinct_and_the_counted_rewrites_hand_over_exactly(case, data):
    # a budget of at least the distinct pushes contracts; below the counted
    # rewrites the count cannot tell, and the exact recount must decide it
    spec, s, bound = case
    graph = _CycleGraph(spec, s)
    cycles = list(graph.generator_cycles())
    assume(cycles)
    cycle = data.draw(st.sampled_from(cycles))
    points = [graph.points[i] for i in cycle]
    distinct = smallest_budget(lambda b: _contract_cycle(graph, cycle, bound, b), 100_000)
    counted = counted_rewrites(graph, cycle, bound)
    assert (distinct is None) == (counted is None)
    if distinct is None:  # exhausted, which the ring tests below cover
        return
    assert distinct <= counted
    budget = data.draw(st.integers(max(distinct - 1, 0), counted))
    expected = contract_cycle_oracle(spec, s, points, bound, budget)
    assert expected == (budget >= distinct)
    assert _contract_cycle(graph, cycle, bound, budget) == expected
    assert _contract_cycle(graph, cycle, bound, budget, exact=True) == expected


RING_3 = [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]
RING_4 = [(x, y) for x in range(4) for y in range(4) if {x, y} & {0, 3}]


@pytest.mark.parametrize(
    "spec,ring,bound",
    [(axis_adjacency(2), RING_3, b) for b in (1, 2, 3)]
    + [(axis_adjacency(2), RING_4, b) for b in (1, 2, 3)]
    # the point oracle takes seconds to exhaust this ring at bound 2
    + [(full_adjacency(2), RING_4, 1)],
    ids=["axis-3x3-1", "axis-3x3-2", "axis-3x3-3", "axis-4x4-1", "axis-4x4-2", "axis-4x4-3", "full-4x4-1"],
)
def test_a_ring_that_never_contracts_exhausts_under_any_budget(spec, ring, bound):
    # the search runs out of cycles within its length cap and answers False
    # however large the budget; the counted pass alone decides it
    graph = _CycleGraph(spec, ring)
    looped = [cycle for cycle in graph.generator_cycles() if not _contract_cycle(graph, cycle, bound, 10**9)]
    assert looped
    with mock.patch.object(adjacency, "_contract_cycle", side_effect=AssertionError("recount")):
        assert not any(_contract_cycle(graph, cycle, bound, 10**9) for cycle in looped)
    for cycle in looped:
        points = [graph.points[i] for i in cycle]
        assert not contract_cycle_oracle(spec, frozenset(ring), points, bound, 10**9)
        assert not _contract_cycle(graph, cycle, bound, 0, exact=True)


def test_walks_are_yielded_lazily_and_kept_only_when_complete():
    ring = RING_3
    graph = _CycleGraph(full_adjacency(2), ring)
    key = (0, 2, 5)
    lazy = graph.walks(*key)
    first = next(iter(lazy))
    assert graph._walks == {}  # a search that stops early keeps nothing
    complete = list(graph.walks(*key))
    assert complete[0] == first and graph.walks(*key) == complete
    assert list(_CycleGraph(full_adjacency(2), ring).walks(*key)) == complete
    # every walk of 5 steps from 0 to 2, in lexicographic order, and as many
    # as the walk counts say
    brute = [
        (0, *middle, 2)
        for middle in itertools.product(range(len(ring)), repeat=4)
        if all(b in graph.adj[a] for a, b in zip((0, *middle), (*middle, 2)))
    ]
    assert complete == brute and len(brute) == graph.walk_counts(2, 5)[5][0]
