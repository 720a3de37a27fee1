from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digitop._exact import (
    barycentric_coordinates,
    integer_rank,
    open_simplices_intersect,
    point_in_closed_simplex,
    solve_affine,
)

F = Fraction


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
