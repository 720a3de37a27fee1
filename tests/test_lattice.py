import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitop.lattice import (
    Cube,
    HalfGrid,
    barycenter,
    completing_translations,
    cube_of_barycenter,
    cube_vertices,
    cubes_meeting,
    cubes_meeting_box,
    occupancy,
    shapes_meeting,
    double,
    half_corners,
    half_keys,
    row_major_strides,
    shell_masks,
    shell_offsets,
    subcubes,
    unit,
    vec_add,
)


def box2(c: Cube):
    """Closed bounding box of a cube in doubled coordinates."""
    lo = double(c.base)
    hi = tuple(2 * b + (2 if i in c.axes else 0) for i, b in enumerate(c.base))
    return lo, hi


def supercubes(c: Cube, n: int) -> list[Cube]:
    """All (k+1)-cubes of Z^n containing c; 2*(n-k) of them."""
    out = []
    for axis in range(n):
        if axis in c.axes:
            continue
        new_axes = tuple(sorted(c.axes + (axis,)))
        out.append(Cube(c.base, new_axes))
        out.append(Cube(vec_add(c.base, unit(n, axis, -1)), new_axes))
    return sorted(out)


def test_vertices_of_point_cube():
    assert cube_vertices(Cube((3, 5), ())) == ((3, 5),)


def test_vertices_of_unit_square():
    assert cube_vertices(Cube((0, 0), (0, 1))) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_vertices_of_unit_cube():
    verts = cube_vertices(Cube((1, 1, 1), (0, 1, 2)))
    assert len(verts) == 8
    assert verts[0] == (1, 1, 1) and verts[-1] == (2, 2, 2)
    assert verts == tuple(sorted(verts))


def test_square_edges():
    edges = subcubes(Cube((0, 0), (0, 1)), 1)
    assert len(edges) == 4
    assert all(e.dim == 1 for e in edges)


def test_cube_faces():
    faces = subcubes(Cube((0, 0, 0), (0, 1, 2)), 2)
    assert len(faces) == 6


def test_subcube_identity():
    c = Cube((2, 3), (0, 1))
    assert subcubes(c, c.dim) == [c]


@pytest.mark.parametrize("k,n", [(0, 2), (1, 3), (2, 3), (3, 4)])
def test_supercube_count(k, n):
    c = Cube((0,) * n, tuple(range(k)))
    assert len(supercubes(c, n)) == 2 * (n - k)


def test_supercube_subcube_roundtrip():
    c = Cube((1, 2, 3), (1,))
    for s in supercubes(c, 3):
        assert c in subcubes(s, c.dim)


@pytest.mark.parametrize(
    "cube,expected",
    [
        (Cube((1, 2), ()), (2, 4)),
        (Cube((0, 0), (0, 1)), (1, 1)),
        (Cube((0, 0), (1,)), (0, 1)),
    ],
)
def test_barycenter(cube, expected):
    assert barycenter(cube) == expected


def test_barycenter_roundtrip():
    for axes in [(), (0,), (1, 2), (0, 1, 2)]:
        c = Cube((4, -1, 7), axes)
        assert cube_of_barycenter(barycenter(c)) == c


def test_barycenters_of_proper_subcubes_are_distinct():
    c = Cube((0, 0, 0), (0, 1, 2))
    center = barycenter(c)
    for j in range(c.dim):
        for s in subcubes(c, j):
            assert barycenter(s) != center


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=2, max_value=4))
@settings(max_examples=30, deadline=None)
def test_subcube_total_is_three_to_the_k(k, n):
    k = min(k, n)
    c = Cube((0,) * n, tuple(range(k)))
    assert sum(len(subcubes(c, j)) for j in range(k + 1)) == 3**k


def test_vertices_stay_in_box():
    c = Cube((2, -1), (0,))
    lo, hi = box2(c)
    for v in cube_vertices(c):
        assert all(a <= 2 * x <= b for a, x, b in zip(lo, v, hi))


def test_completing_translations_low_corner():
    square = Cube((0, 0), (0, 1))
    pairs = completing_translations(Cube((0, 0), ()), square)
    assert set(pairs) == {((1, 0), (0, 1)), ((0, 1), (1, 0))}


def test_completing_translations_high_corner():
    square = Cube((0, 0), (0, 1))
    pairs = completing_translations(Cube((1, 1), ()), square)
    assert set(pairs) == {((-1, 0), (0, -1)), ((0, -1), (-1, 0))}


def test_completing_translations_cube_edge():
    cube = Cube((0, 0, 0), (0, 1, 2))
    edge = Cube((0, 0, 0), (0,))
    pairs = completing_translations(edge, cube)
    assert set(pairs) == {((0, 1, 0), (0, 0, 1)), ((0, 0, 1), (0, 1, 0))}


def test_completing_translations_rejects_bad_input():
    cube = Cube((0, 0, 0), (0, 1, 2))
    with pytest.raises(ValueError):
        completing_translations(Cube((5, 5, 5), ()), cube)
    with pytest.raises(ValueError):
        completing_translations(Cube((0, 0, 0), (0, 1)), cube)


def completing_translations_oracle(cstar, c):
    """Every ordered pair of unit translations along the two axes missing
    from cstar, kept where the four translates of cstar cover c."""
    target = set(cube_vertices(c))
    candidates = []
    for a1, a2 in itertools.permutations([a for a in c.axes if a not in cstar.axes]):
        for s1, s2 in itertools.product((1, -1), repeat=2):
            t1, t2 = unit(c.n, a1, s1), unit(c.n, a2, s2)
            union = set()
            for v in cube_vertices(cstar):
                union.update((v, vec_add(v, t1), vec_add(v, t2), vec_add(vec_add(v, t1), t2)))
            if union == target:
                candidates.append((t1, t2))
    return sorted(candidates)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_completing_translations_match_the_covering_search(n):
    for k, base in itertools.product(range(2, n + 1), [(0,) * n, tuple(range(-2, n - 2))]):
        for axes in itertools.combinations(range(n), k):
            c = Cube(base, axes)
            for cstar in subcubes(c, k - 2):
                assert completing_translations(cstar, c) == completing_translations_oracle(cstar, c)


def test_cube_canonical_validation():
    with pytest.raises(ValueError):
        Cube((0, 0), (1, 0))
    with pytest.raises(ValueError):
        Cube((0, 0), (5,))


def test_union_of_completing_translates_covers_cube():
    cube = Cube((0, 0, 0), (0, 1, 2))
    for cstar in subcubes(cube, 1):
        for t1, t2 in completing_translations(cstar, cube):
            union = set()
            for v in cube_vertices(cstar):
                shifted = [v, tuple(a + b for a, b in zip(v, t1)),
                           tuple(a + b for a, b in zip(v, t2)),
                           tuple(a + b + c for a, b, c in zip(v, t1, t2))]
                union.update(shifted)
            assert union == set(cube_vertices(cube))


def shapes_meeting_oracle(m, k, n):
    """Every k-cube with a vertex in m as (doubled barycenter, axes, mask),
    gathered on point tuples."""
    doubled = [double(p) for p in m]
    for axes in itertools.combinations(range(n), k):
        masks = {}
        for i, corner in enumerate(half_corners(n, axes)):
            for p in doubled:
                h = tuple(a - b for a, b in zip(p, corner))
                masks[h] = masks.get(h, 0) | 1 << i
        yield from ((h, axes, mask) for h, mask in masks.items())


small_sets = st.integers(2, 4).flatmap(
    lambda n: st.frozensets(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=6)
)


@given(small_sets)
@settings(max_examples=40, deadline=None)
def test_cubes_meeting_and_shapes_match_the_box_scan(m):
    n = len(next(iter(m)))
    grid, keys = half_keys(m, n)
    for k in range(n + 1):
        # the k-cubes whose closed box meets p are the k-cubes with vertex p
        cubes = sorted({c for p in m for c in cubes_meeting_box(p, p, k, n)})
        expected = [(c.base, c.axes, occupancy(c, m)) for c in cubes]
        assert cubes_meeting(m, k, n, lambda axes, mask: True) == expected
        # a shape filter keeps the kept cubes in cube order
        odd = cubes_meeting(m, k, n, lambda axes, mask: mask & 1 and axes[:1] != (1,))
        assert odd == [c for c in expected if c[2] & 1 and c[1][:1] != (1,)]
        groups = shapes_meeting(grid, keys, k)
        shapes = [(grid.point(h), axes, mask) for axes, masks in groups for h, mask in masks.items()]
        assert len(shapes) == len(expected)
        assert sorted(shapes) == sorted(shapes_meeting_oracle(m, k, n))
        for h, axes, mask in shapes:
            c = cube_of_barycenter(h)
            assert c.axes == axes and occupancy(c, m) == mask


@given(small_sets)
@settings(max_examples=40, deadline=None)
def test_cubes_meeting_asks_keep_once_per_distinct_shape(m):
    n = len(next(iter(m)))
    for k in range(n + 1):
        asked = []
        kept = cubes_meeting(m, k, n, lambda axes, mask: asked.append((axes, mask)) or mask & 1)
        assert sorted(asked) == sorted({(axes, mask) for _, axes, mask in shapes_meeting_oracle(m, k, n)})
        assert kept == [c for c in cubes_meeting(m, k, n, lambda axes, mask: True) if c[2] & 1]


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.frozensets(st.tuples(*[st.integers(-9, 9)] * n), min_size=1, max_size=5)
    )
)
@settings(max_examples=60, deadline=None)
def test_half_keys_decode_sort_and_add_like_tuples(m):
    """Every doubled barycenter, corner and face of the cubes meeting m: keys
    decode to their points, sort as the points do, and adding an offset to a
    point adds its key delta."""
    n = len(next(iter(m)))
    grid, keys = half_keys(m, n)
    assert keys == [grid.key(double(p)) for p in m]
    points = set()
    for k in range(n + 1):
        for h, axes, _ in shapes_meeting_oracle(m, k, n):
            c = cube_of_barycenter(h)
            for f in (f for j in range(k + 1) for f in subcubes(c, j)):
                points.add(barycenter(f))
                offset = tuple(a - b for a, b in zip(barycenter(f), h))
                assert grid.key(h) + grid.offset(offset) == grid.key(barycenter(f))
    points = sorted(points)
    encoded = [grid.key(h) for h in points]
    assert [grid.point(key) for key in encoded] == points
    assert encoded == sorted(encoded) and len(set(encoded)) == len(encoded)


def test_row_major_strides_put_stride_one_last():
    assert row_major_strides([3, 4, 5]) == (20, 5, 1)
    assert row_major_strides([7]) == (1,)
    grid = HalfGrid.around([(-1, 4), (-3, 2)], 2)
    assert grid == HalfGrid((-5, 0), (7, 1))
    assert [grid.key(h) for h in itertools.product(range(-5, 2), range(7))] == list(range(49))


def test_cubes_meeting_an_empty_set():
    assert cubes_meeting(frozenset(), 2, 3, lambda axes, mask: True) == []


def test_half_keys_refuse_a_point_of_another_dimension():
    # the grid's box zips the points, so unchecked, (0, 0, 1) would share
    # the key of (0, 0)
    for m in ([(0, 0), (0, 0, 1)], [(1, 2, 3)], [(0, 0), (5,)]):
        with pytest.raises(ValueError, match="wrong dimension"):
            half_keys(m, 2)
        with pytest.raises(ValueError, match="wrong dimension"):
            shell_masks(m, 2)


def shell_mask_oracle(p, m):
    """The replaced per-point shell mask: bit i is set iff ``p +
    shell_offsets(n)[i]`` is in m, one tuple built and hashed per offset."""
    return sum(1 << i for i, v in enumerate(shell_offsets(len(p))) if vec_add(p, v) in m)


_FAR = 10**12


@st.composite
def far_sets(draw, n=None):
    """A set in n = 2..4: a random subset of a small box moved by up to
    10^12 per axis, plus up to two far points and a king-move neighbour of
    the first, so that keys are big ints on a grid that spans the distance."""
    if n is None:
        n = draw(st.integers(2, 4))
    r = {2: 3, 3: 2, 4: 1}[n]
    shift = draw(st.tuples(*[st.integers(-_FAR, _FAR)] * n))
    near = draw(st.frozensets(st.tuples(*[st.integers(-r, r)] * n), max_size=20))
    far = draw(st.lists(st.tuples(*[st.integers(-_FAR, _FAR)] * n), max_size=2))
    if far:
        far.append(vec_add(far[0], draw(st.sampled_from(shell_offsets(n)))))
    return frozenset(vec_add(p, shift) for p in near) | frozenset(far)


@given(far_sets(), st.data())
@settings(max_examples=150, deadline=None)
def test_the_shell_gather_matches_the_per_point_masks(m, data):
    n = len(next(iter(m))) if m else 2
    order = data.draw(st.permutations(sorted(m)))
    assert shell_masks(order, n) == [shell_mask_oracle(p, m) for p in order]
    count = data.draw(st.integers(0, len(order)))
    assert shell_masks(order, n)[:count] == [shell_mask_oracle(p, m) for p in order[:count]]
    if order:  # a point given twice is one point of m
        assert shell_masks((order[-1], *order), n)[:1] == [shell_mask_oracle(order[-1], m)]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_the_shell_gather_of_a_full_neighbourhood(n):
    # every shell point sees the points of the shell that are king moves away
    shell = shell_offsets(n)
    full = (1 << len(shell)) - 1
    masks = shell_masks(((0,) * n, *shell), n)
    assert masks == [full] + [shell_mask_oracle(p, frozenset(shell) | {(0,) * n}) for p in shell]
