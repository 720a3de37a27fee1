"""Exact rational linear algebra for geometric predicates.

Everything here works over fractions of the doubled-integer vertex
coordinates, so no predicate ever sees a rounding error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


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


def _feasible(particular: list[Fraction], basis: list[list[Fraction]], strict: bool) -> bool:
    """Is some point of particular + span(basis) positive (``strict``) or
    nonnegative in every coordinate?  Fourier-Motzkin elimination of the
    basis weights, exact for strict and for non-strict systems alike; with
    no basis, the particular solution is tested as it is."""
    # one row per coordinate i: sum_k basis[k][i] y_k > (or >=) -particular[i]
    rows = [[b[i] for b in basis] + [-x] for i, x in enumerate(particular)]
    for var in range(len(basis)):
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
                # lower bound below (or at) the upper bound; the var column cancels
                new_rows.append([lo + hi for lo, hi in zip(low, up)])
        rows = new_rows
    # all variables eliminated: rows are 0 > b, or 0 >= b
    return all(row[-1] < 0 if strict else row[-1] <= 0 for row in rows)


def _solve_weights(
    groups: Sequence[Sequence[Sequence[int]]], point: Sequence
) -> Optional[tuple[list[Fraction], list[list[Fraction]]]]:
    """``solve_affine`` for weights on the vertices of the groups: one row per
    coordinate (the weighted vertices sum to the point), then one per group
    (its weights sum to 1)."""
    vertices = [v for g in groups for v in g]
    coords = range(len(vertices[0]))
    matrix = [[Fraction(v[c]) for v in vertices] for c in coords]
    matrix += [[Fraction(int(i == j)) for j, g in enumerate(groups) for _ in g] for i in range(len(groups))]
    return solve_affine(matrix, [Fraction(point[c]) for c in coords] + [Fraction(1)] * len(groups))


def open_simplices_intersect(
    a_vertices: Sequence[Sequence[int]], b_vertices: Sequence[Sequence[int]]
) -> bool:
    """Do the open simplices spanned by the two vertex lists meet?

    Solves the affine system of a common point, then asks for strictly
    positive barycentric weights over the solution space.
    """
    # weights la on a and mu on b with sum la_i a_i - sum mu_j b_j = 0
    negated = [[-c for c in v] for v in b_vertices]
    solved = _solve_weights((a_vertices, negated), (0,) * len(a_vertices[0]))
    return solved is not None and _feasible(*solved, strict=True)


def point_in_closed_simplex(vertices: Sequence[Sequence[int]], point: Sequence) -> bool:
    """Is the point (ints or fractions) in the convex hull of the vertices?
    Solves for affine weights, then asks for nonnegative ones over the
    solution space, so affinely dependent vertices need no other test."""
    solved = _solve_weights((vertices,), point)
    return solved is not None and _feasible(*solved, strict=False)
