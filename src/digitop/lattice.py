"""Exact combinatorics of the integer lattice: points, cubes, barycenters.

All coordinates are plain Python integers.  Barycenters of cubes have
half-integer coordinates, so they are stored *doubled* (a "half point"):
the tuple ``h`` represents the real point ``h / 2``.  Doubling keeps every
value exact and removes all rounding questions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

Point = tuple[int, ...]
HalfPoint = tuple[int, ...]  # doubled coordinates
Translation = tuple[int, ...]


def vec_add(p: Point, v: Point) -> Point:
    return tuple(a + b for a, b in zip(p, v))


def vec_sub(p: Point, q: Point) -> Point:
    return tuple(a - b for a, b in zip(p, q))


def unit(n: int, axis: int, sign: int = 1) -> Translation:
    """The generator translation ±e_axis in dimension n."""
    v = [0] * n
    v[axis] = sign
    return tuple(v)


def is_lattice2(h: HalfPoint) -> bool:
    """True iff the doubled coordinates denote an actual lattice point."""
    return all(c % 2 == 0 for c in h)


def double(p: Point) -> HalfPoint:
    return tuple(2 * c for c in p)


@dataclass(frozen=True, order=True)
class Cube:
    """An axis-aligned k-cube: minimal-corner base plus k free axes.

    The vertex set is ``{base + sum_i e_i * unit(axis_i) : e_i in {0, 1}}``.
    Canonical form: the base is the coordinatewise-minimal vertex and the
    axes are sorted, which makes cubes directly comparable and hashable.
    """

    base: Point
    axes: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.base)
        if list(self.axes) != sorted(set(self.axes)):
            raise ValueError(f"axes must be sorted and distinct: {self.axes}")
        if self.axes and not (0 <= self.axes[0] and self.axes[-1] < n):
            raise ValueError(f"axis out of range for dimension {n}: {self.axes}")

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def n(self) -> int:
        return len(self.base)

    def vertices(self) -> tuple[Point, ...]:
        return cube_vertices(self)

    def box2(self) -> tuple[HalfPoint, HalfPoint]:
        """Closed bounding box in doubled coordinates."""
        lo = double(self.base)
        hi = tuple(2 * b + (2 if i in self.axes else 0) for i, b in enumerate(self.base))
        return lo, hi


def cube_vertices(c: Cube) -> tuple[Point, ...]:
    """All 2^k vertices of a canonical cube, in lexicographic order."""
    verts = []
    for bits in itertools.product((0, 1), repeat=c.dim):
        p = list(c.base)
        for axis, bit in zip(c.axes, bits):
            p[axis] += bit
        verts.append(tuple(p))
    return tuple(sorted(verts))


def subcubes(c: Cube, j: int) -> list[Cube]:
    """All j-dimensional subcubes of c, canonical and sorted."""
    if not 0 <= j <= c.dim:
        raise ValueError(f"subcube dimension {j} out of range for a {c.dim}-cube")
    out = []
    for free in itertools.combinations(c.axes, j):
        fixed = [a for a in c.axes if a not in free]
        for bits in itertools.product((0, 1), repeat=len(fixed)):
            base = list(c.base)
            for axis, bit in zip(fixed, bits):
                base[axis] += bit
            out.append(Cube(tuple(base), free))
    return sorted(out)


def supercubes(c: Cube, n: int | None = None) -> list[Cube]:
    """All (k+1)-cubes of Z^n containing c; 2*(n-k) of them."""
    if n is None:
        n = c.n
    if c.dim >= n:
        raise ValueError(f"a {c.dim}-cube has no supercubes in dimension {n}")
    out = []
    for axis in range(n):
        if axis in c.axes:
            continue
        new_axes = tuple(sorted(c.axes + (axis,)))
        out.append(Cube(c.base, new_axes))
        out.append(Cube(vec_add(c.base, unit(n, axis, -1)), new_axes))
    return sorted(out)


def barycenter(c: Cube) -> HalfPoint:
    """Barycenter of the cube in doubled coordinates: 2*base + indicator(axes)."""
    return tuple(2 * b + (1 if i in c.axes else 0) for i, b in enumerate(c.base))


def cube_of_barycenter(h: HalfPoint) -> Cube:
    """Inverse of :func:`barycenter`."""
    base = tuple(c // 2 for c in h)
    axes = tuple(i for i, c in enumerate(h) if c % 2 != 0)
    return Cube(base, axes)


def completing_translations(cstar: Cube, c: Cube) -> list[tuple[Translation, Translation]]:
    """Ordered generator pairs (t1, t2) with C = C* u t1(C*) u t2(C*) u t1t2(C*).

    ``cstar`` must be a codimension-2 subcube of ``c``.  The two
    translations run along the two axes of ``c`` that are not free in
    ``cstar``; their signs are forced by the corner of ``c`` at which
    ``cstar`` sits.  Both orderings are returned.
    """
    if cstar.dim != c.dim - 2:
        raise ValueError(f"expected a {c.dim - 2}-subcube, got a {cstar.dim}-cube")
    offset = vec_sub(cstar.base, c.base)
    pairs = None
    if cstar.n == c.n and all(d in (0, 1) for d in offset):
        pairs = _completing_translations(offset, cstar.axes, c.axes)
    if pairs is None:
        raise ValueError(f"{cstar} is not a subcube of {c}")
    return list(pairs)


@lru_cache(maxsize=None)
def _completing_translations(
    offset: Translation, star_axes: tuple[int, ...], axes: tuple[int, ...]
) -> tuple[tuple[Translation, Translation], ...] | None:
    """The pairs for C* at ``offset`` (a 0/1 vector) from the base of C,
    or None when C* is no subcube of C.

    The pairs are unit vectors fixed by the shape alone, so the key is
    relative and the cache holds at most one entry per shape.
    """
    cstar = Cube(offset, star_axes)
    c = Cube((0,) * len(offset), axes)
    if cstar not in subcubes(c, cstar.dim):
        return None
    missing = [a for a in c.axes if a not in cstar.axes]
    n = c.n
    target = set(cube_vertices(c))
    candidates = []
    for a1, a2 in (tuple(missing), tuple(reversed(missing))):
        for s1, s2 in itertools.product((1, -1), repeat=2):
            t1, t2 = unit(n, a1, s1), unit(n, a2, s2)
            union = set()
            for v in cube_vertices(cstar):
                union.update((v, vec_add(v, t1), vec_add(v, t2), vec_add(vec_add(v, t1), t2)))
            if union == target:
                candidates.append((t1, t2))
    return tuple(sorted(candidates))


def bounding_box(points: Iterable[Point]) -> tuple[Point, Point]:
    pts = list(points)
    if not pts:
        raise ValueError("empty point set has no bounding box")
    n = len(pts[0])
    lo = tuple(min(p[i] for p in pts) for i in range(n))
    hi = tuple(max(p[i] for p in pts) for i in range(n))
    return lo, hi


def cubes_meeting_box(lo: Point, hi: Point, k: int, n: int) -> list[Cube]:
    """All k-cubes whose closed box intersects [lo, hi], in sorted order."""
    out = []
    for axes in itertools.combinations(range(n), k):
        ranges = []
        for i in range(n):
            span = 1 if i in axes else 0
            ranges.append(range(lo[i] - span, hi[i] + 1))
        for base in itertools.product(*ranges):
            out.append(Cube(base, axes))
    return sorted(out)
