from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digitop import _exact
from digitop._exact import (
    _solve_weights,
    integer_rank,
    open_simplices_intersect,
    point_in_closed_simplex,
    solve_affine,
)

F = Fraction


def barycentric_coordinates(vertices, point):
    """Affine weights expressing the point over affinely independent
    vertices, or None; raises ValueError on dependent ones."""
    solved = _solve_weights((vertices,), point)
    if solved is None:
        return None
    particular, basis = solved
    if basis:
        # affinely independent vertices always give a unique solution
        raise ValueError("vertices are affinely dependent")
    return particular


def point_in_closed_simplex_oracle(vertices, point) -> bool:
    """Reference: with affinely dependent vertices, the point is in their
    hull iff it is in the hull of some affinely independent subset of them
    (Caratheodory); with independent ones, iff its weights are nonnegative."""
    solved = _solve_weights((vertices,), point)
    if solved is None:
        return False
    weights, basis = solved
    if not basis:
        return all(c >= 0 for c in weights)
    return any(
        point_in_closed_simplex_oracle(s, point)
        for size in range(1, len(vertices))
        for s in combinations(vertices, size)
        if integer_rank([[x - y for x, y in zip(v, s[0])] for v in s[1:]]) == size - 1
    )


def strictly_feasible_oracle(strict_rows, strict_rhs) -> bool:
    """Reference: does a point with A y > b exist?  Fourier-Motzkin on
    strict inequalities only."""
    rows = [list(r) + [c] for r, c in zip(strict_rows, strict_rhs)]
    nvars = len(strict_rows[0]) if strict_rows else 0
    for var in range(nvars):
        lowers, uppers, rest = [], [], []
        for row in rows:
            coeff = row[var]
            if coeff > 0:
                lowers.append([(c / coeff) for c in row])
            elif coeff < 0:
                uppers.append([(c / -coeff) for c in row])
            else:
                rest.append(row)
        rows = rest + [[lo + hi for lo, hi in zip(low, up)] for low in lowers for up in uppers]
    return all(row[-1] < 0 for row in rows)


def open_simplices_intersect_oracle(a_vertices, b_vertices) -> bool:
    """Reference: the unique weights when the null space is trivial, the
    strict elimination over it otherwise."""
    negated = [[-c for c in v] for v in b_vertices]
    solved = _solve_weights((a_vertices, negated), (0,) * len(a_vertices[0]))
    if solved is None:
        return False
    particular, basis = solved
    if not basis:
        return all(x > 0 for x in particular)
    return strictly_feasible_oracle([list(row) for row in zip(*basis)], [-x for x in particular])


def point_in_open_simplex(vertices, point) -> bool:
    """Strict barycentric test; the library needs only the closed one."""
    coords = barycentric_coordinates(vertices, point)
    return coords is not None and all(c > 0 for c in coords)


def integer_rank_oracle(rows: list[list[int]]) -> int:
    """Reference: rank by its own Gauss-Jordan elimination over fractions."""
    mat = [list(map(Fraction, row)) for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] / inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def test_integer_rank():
    assert integer_rank([[1, 0], [0, 1]]) == 2
    assert integer_rank([[1, 1], [2, 2]]) == 1
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[2, 0, 0], [0, 2, 0], [1, 1, 0]]) == 2


@st.composite
def small_matrices(draw):
    """Integer matrices of up to 5 rows and 1-5 columns (wide, tall, all-zero
    or empty); with some rows replaced by integer combinations of the others,
    so that rank-deficient ones are common."""
    cols = draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=5))
    for i in range(1, len(rows)):
        if draw(st.booleans()):
            weights = draw(st.lists(entries, min_size=i, max_size=i))
            rows[i] = [sum(w * row[c] for w, row in zip(weights, rows)) for c in range(cols)]
    return rows


@given(small_matrices())
@example([])
@example([[0, 0, 0], [0, 0, 0]])
@example([[1, 2, 3, 4, 5]])
@example([[1], [2], [0], [-1]])
@example([[1, 2], [2, 4], [3, 6]])
@settings(max_examples=200, deadline=None)
def test_integer_rank_matches_the_elimination_oracle(rows):
    assert integer_rank(rows) == integer_rank_oracle(rows)


def test_solve_affine_unique():
    particular, basis = solve_affine(
        [[F(1), F(0)], [F(0), F(2)]], [F(3), F(4)]
    )
    assert particular == [F(3), F(2)]
    assert basis == []


def test_solve_affine_underdetermined():
    particular, basis = solve_affine([[F(1), F(1)]], [F(1)])
    assert particular[0] + particular[1] == 1
    assert len(basis) == 1


def test_solve_affine_inconsistent():
    assert solve_affine([[F(1), F(1)], [F(1), F(1)]], [F(0), F(1)]) is None


def test_barycentric_coordinates():
    triangle = [(0, 0), (2, 0), (0, 2)]
    inside = barycentric_coordinates(triangle, [F(1, 2), F(1, 2)])
    assert sum(inside) == 1 and all(c > 0 for c in inside)
    outside = barycentric_coordinates(triangle, [F(3), F(3)])
    assert outside is not None and any(c < 0 for c in outside)
    off_plane = barycentric_coordinates([(0, 0, 0), (2, 0, 0)], [F(0), F(1), F(0)])
    assert off_plane is None


def test_barycentric_coordinates_refuse_affinely_dependent_vertices():
    # three points on a line: the weights of a point on it are not unique
    with pytest.raises(ValueError, match="affinely dependent"):
        barycentric_coordinates([(0, 0), (2, 0), (4, 0)], [F(1), F(0)])


def test_point_in_simplex_open_vs_closed():
    triangle = [(0, 0), (2, 0), (0, 2)]
    vertex = [F(0), F(0)]
    assert point_in_closed_simplex(triangle, vertex)
    assert not point_in_open_simplex(triangle, vertex)
    edge_mid = [F(1), F(0)]
    assert point_in_closed_simplex(triangle, edge_mid)
    assert not point_in_open_simplex(triangle, edge_mid)
    interior = [F(1, 2), F(1, 2)]
    assert point_in_open_simplex(triangle, interior)


def test_point_in_the_hull_of_affinely_dependent_vertices():
    # Caratheodory: in the hull iff in the hull of an affinely independent subset
    line = [(0, 0), (2, 0), (4, 0)]
    assert point_in_closed_simplex(line, [F(1), F(0)])
    assert point_in_closed_simplex(line, [F(4), F(0)])
    assert not point_in_closed_simplex(line, [F(5), F(0)])
    assert not point_in_closed_simplex(line, [F(1), F(1)])  # off the affine hull
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]  # four points of a plane
    assert point_in_closed_simplex(square, [F(2), F(1)])
    assert point_in_closed_simplex(square, [F(3, 2), F(3, 2)])
    assert not point_in_closed_simplex(square, [F(3), F(1)])
    twice = [(0, 0), (0, 0), (2, 2)]  # one vertex named twice
    assert point_in_closed_simplex(twice, [F(1), F(1)])
    assert not point_in_closed_simplex(twice, [F(1), F(0)])
    once = [(2, 2), (2, 2)]  # one point: its independent subsets are single vertices
    assert point_in_closed_simplex(once, [F(2), F(2)])
    assert not point_in_closed_simplex(once, [F(2), F(1)])


# open-intersection battery: segments and triangles with half-integer
# coordinates stored doubled, the same convention the complex uses

CROSSING = ([(0, 0), (2, 2)], [(0, 2), (2, 0)])
PARALLEL = ([(0, 0), (2, 0)], [(0, 1), (2, 1)])
COLLINEAR_OVERLAP = ([(0, 0), (4, 0)], [(2, 0), (6, 0)])
COLLINEAR_TOUCH = ([(0, 0), (2, 0)], [(2, 0), (4, 0)])
SHARED_VERTEX = ([(0, 0), (2, 0)], [(0, 0), (0, 2)])


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (*CROSSING, True),
        (*PARALLEL, False),
        (*COLLINEAR_OVERLAP, True),
        (*COLLINEAR_TOUCH, False),
        (*SHARED_VERTEX, False),
    ],
)
def test_segment_pairs(a, b, expected):
    assert open_simplices_intersect(a, b) is expected
    assert open_simplices_intersect(b, a) is expected


def test_identical_simplices_intersect():
    t = [(0, 0), (2, 0), (0, 2)]
    assert open_simplices_intersect(t, t)


def test_triangle_pairs_in_plane():
    t = [(0, 0), (4, 0), (0, 4)]
    inside = [(1, 1), (2, 1), (1, 2)]
    assert open_simplices_intersect(t, inside)
    shared_edge = [(0, 0), (4, 0), (0, -4)]
    assert not open_simplices_intersect(t, shared_edge)
    far = [(10, 10), (12, 10), (10, 12)]
    assert not open_simplices_intersect(t, far)


def test_triangle_pairs_in_space():
    t = [(0, 0, 0), (4, 0, 0), (0, 4, 0)]
    piercing = [(1, 1, -2), (1, 1, 2)]
    assert open_simplices_intersect(t, piercing)
    # transverse segment whose excluded endpoint is the only plane contact
    ending = [(1, 1, 0), (1, 1, 4)]
    assert not open_simplices_intersect(t, ending)


def test_segment_through_triangle_vertex_misses_open_part():
    t = [(0, 0, 0), (4, 0, 0), (0, 4, 0)]
    through_vertex = [(0, 0, -2), (0, 0, 2)]
    assert not open_simplices_intersect(t, through_vertex)


def test_coplanar_segment_inside_triangle():
    t = [(0, 0, 0), (4, 0, 0), (0, 4, 0)]
    inside = [(1, 1, 0), (2, 1, 0)]
    assert open_simplices_intersect(t, inside)


@st.composite
def vertex_lists(draw, n=None):
    """Up to six doubled vertices in 2-D or 3-D: drawn freely (mostly
    independent), on one line or on one plane, with a vertex sometimes
    named twice."""
    n = n or draw(st.integers(2, 3))
    coord = st.integers(-4, 4)
    vec = st.tuples(*[coord] * n)
    kind = draw(st.sampled_from(["free", "line", "plane"]))
    if kind == "free":
        vertices = draw(st.lists(vec, min_size=1, max_size=n + 1))
    else:
        base = draw(vec)
        dirs = draw(st.lists(vec, min_size=1, max_size=1 if kind == "line" else 2, unique=True))
        steps = st.lists(st.integers(-2, 2), min_size=len(dirs), max_size=len(dirs))
        vertices = [
            tuple(b + sum(t * d[i] for t, d in zip(ts, dirs)) for i, b in enumerate(base))
            for ts in draw(st.lists(steps, min_size=2, max_size=6))
        ]
    if draw(st.booleans()):
        vertices.append(draw(st.sampled_from(vertices)))
    return vertices


@st.composite
def hulls_and_points(draw):
    """A vertex list and a point with half-integer coordinates: drawn near
    the vertices, or an affine combination of them with half-integer
    weights, inside or outside their hull, so that both answers are common
    on dependent vertices too."""
    vertices = draw(vertex_lists())
    n = len(vertices[0])
    if draw(st.booleans()):
        return vertices, [F(draw(st.integers(-10, 10)), 2) for _ in range(n)]
    halves = st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 2), F(1)])
    weights = draw(st.lists(halves, min_size=len(vertices) - 1, max_size=len(vertices) - 1))
    weights.append(1 - sum(weights))
    return vertices, [sum(w * v[i] for w, v in zip(weights, vertices)) for i in range(n)]


@given(hulls_and_points())
@example(([(0, 0), (2, 0), (4, 0)], [F(1), F(0)]))
@example(([(0, 0), (2, 0), (4, 0)], [F(1, 2), F(1, 2)]))
@example(([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 0)], [F(3, 2), F(1, 2), F(0)]))
@example(([(2, 2), (2, 2)], [F(2), F(2)]))
@example(([(1, 1, 1), (1, 1, 1)], [F(1), F(1), F(3, 2)]))
@settings(max_examples=400, deadline=None)
def test_closed_hull_membership_matches_the_caratheodory_oracle(case):
    vertices, point = case
    assert point_in_closed_simplex(vertices, point) is point_in_closed_simplex_oracle(vertices, point)


@st.composite
def simplex_pairs(draw):
    """Two vertex lists of one dimension; the second sometimes shares
    vertices with the first."""
    a = draw(vertex_lists())
    b = draw(vertex_lists(len(a[0])))
    if draw(st.booleans()):
        b = b[: draw(st.integers(0, len(b) - 1))] + draw(st.lists(st.sampled_from(a), min_size=1, max_size=2))
    return a, b


@given(simplex_pairs())
@example(([(0, 0), (2, 0)], [(0, 0), (0, 2)]))
@example(([(0, 0), (4, 0)], [(2, 0), (6, 0)]))
@example(([(0, 0, 0), (4, 0, 0), (0, 4, 0)], [(1, 1, 0), (1, 1, 4)]))
@settings(max_examples=400, deadline=None)
def test_open_intersection_matches_the_strict_elimination_oracle(case):
    a, b = case
    assert open_simplices_intersect(a, b) is open_simplices_intersect_oracle(a, b)


def test_a_dependent_hull_is_decided_by_one_solve_and_no_rank(monkeypatch):
    # one affine solve per question, then the elimination: no subset search
    calls = {"solve_affine": 0, "integer_rank": 0}
    for name in calls:
        real = getattr(_exact, name)
        monkeypatch.setattr(_exact, name, lambda *a, _real=real, _name=name: calls.__setitem__(_name, calls[_name] + 1) or _real(*a))
    cases = [
        ([(0, 0), (2, 0), (4, 0)], [F(1), F(0)], True),
        ([(0, 0), (2, 0), (4, 0)], [F(5), F(0)], False),
        ([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)], [F(3, 2), F(3, 2), F(0)], True),
        ([(0, 0), (0, 0), (2, 2)], [F(1), F(0)], False),
    ]
    for vertices, point, inside in cases:
        assert point_in_closed_simplex(vertices, point) is inside
    assert calls == {"solve_affine": len(cases), "integer_rank": 0}
