"""Exact rational linear algebra for geometric predicates.

Everything here works over fractions of the doubled-integer vertex
coordinates, so no predicate ever sees a rounding error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Vec = Sequence[Fraction]


def integer_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix: its columns minus the dimension of its null space."""
    if not rows:
        return 0
    _, basis = solve_affine([list(map(Fraction, row)) for row in rows], [Fraction(0)] * len(rows))
    return len(rows[0]) - len(basis)


def solve_affine(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> Optional[tuple[list[Fraction], list[list[Fraction]]]]:
    """Solve M x = b exactly: particular solution plus a null-space basis.

    Returns None when the system is inconsistent.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    aug = [list(matrix[r]) + [rhs[r]] for r in range(rows)]
    pivots: list[int] = []
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = aug[rank][col]
        aug[rank] = [a / inv for a in aug[rank]]
        for r in range(rows):
            if r != rank and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    for r in range(rank, rows):
        if aug[r][cols] != 0:
            return None
    particular = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        particular[col] = aug[r][cols]
    free_cols = [c for c in range(cols) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][free]
        basis.append(vec)
    return particular, basis


def _strictly_feasible(strict_rows: list[list[Fraction]], strict_rhs: list[Fraction]) -> bool:
    """Does a point with A y > b exist?  Fourier-Motzkin on strict inequalities."""
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
        new_rows = rest
        for low in lowers:
            for up in uppers:
                # lower bound < upper bound, strictly; the var column cancels
                new_rows.append([lo + hi for lo, hi in zip(low, up)])
        rows = new_rows
    # all variables eliminated: rows are 0 > b
    return all(row[-1] < 0 for row in rows)


def open_simplices_intersect(
    a_vertices: Sequence[Sequence[int]], b_vertices: Sequence[Sequence[int]]
) -> bool:
    """Do the open simplices spanned by the two vertex lists meet?

    Solves the affine system of a common point, then asks for strictly
    positive barycentric weights over the solution space.
    """
    n = len(a_vertices[0])
    na, nb = len(a_vertices), len(b_vertices)
    # unknowns: la_0..la_{na-1}, mu_0..mu_{nb-1}
    matrix: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for coord in range(n):
        row = [Fraction(v[coord]) for v in a_vertices]
        row += [Fraction(-v[coord]) for v in b_vertices]
        matrix.append(row)
        rhs.append(Fraction(0))
    matrix.append([Fraction(1)] * na + [Fraction(0)] * nb)
    rhs.append(Fraction(1))
    matrix.append([Fraction(0)] * na + [Fraction(1)] * nb)
    rhs.append(Fraction(1))
    solved = solve_affine(matrix, rhs)
    if solved is None:
        return False
    particular, basis = solved
    if not basis:
        return all(x > 0 for x in particular)
    # need y with particular + B y > 0 componentwise
    strict_rows = [[vec[i] for vec in basis] for i in range(na + nb)]
    strict_rhs = [-particular[i] for i in range(na + nb)]
    return _strictly_feasible(strict_rows, strict_rhs)


def barycentric_coordinates(
    vertices: Sequence[Sequence[int]], point: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """Affine weights expressing the point over the vertices, if any."""
    n = len(vertices[0])
    matrix: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for coord in range(n):
        matrix.append([Fraction(v[coord]) for v in vertices])
        rhs.append(Fraction(point[coord]))
    matrix.append([Fraction(1)] * len(vertices))
    rhs.append(Fraction(1))
    solved = solve_affine(matrix, rhs)
    if solved is None:
        return None
    particular, basis = solved
    if basis:
        # affinely independent vertices always give a unique solution
        raise ValueError("vertices are affinely dependent")
    return particular


def point_in_closed_simplex(vertices: Sequence[Sequence[int]], point: Sequence[Fraction]) -> bool:
    coords = barycentric_coordinates(vertices, point)
    return coords is not None and all(c >= 0 for c in coords)
