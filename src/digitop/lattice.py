"""Exact combinatorics of the integer lattice: points, cubes, barycenters.

All coordinates are plain Python integers.  Barycenters of cubes have
half-integer coordinates, so they are stored *doubled* (a "half point"):
the tuple ``h`` represents the real point ``h / 2``.  Doubling keeps every
value exact and removes all rounding questions.

A finite stretch of the doubled grid has one integer encoding, the
row-major key of :class:`HalfGrid`: the last axis has stride 1, so key
order is tuple order, and moving by a doubled offset adds one integer.
The cube enumeration keys barycenters, corners and faces this way, a
complement window keys its lattice cells with it, and a point set's
neighbours and shell masks are found by key sums on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add, mul, sub
from typing import AbstractSet, Callable, Iterable, Iterator, Sequence

Point = tuple[int, ...]
HalfPoint = tuple[int, ...]  # doubled coordinates
Translation = tuple[int, ...]


def vec_add(p: Point, v: Point) -> Point:
    return tuple(map(add, p, v))


def vec_sub(p: Point, q: Point) -> Point:
    return tuple(map(sub, p, q))


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

    def to_json(self) -> dict:
        return {"base": list(self.base), "axes": list(self.axes)}

    @staticmethod
    def from_json(d: dict) -> "Cube":
        return Cube(tuple(d["base"]), tuple(d["axes"]))


@lru_cache(maxsize=None)
def corners(n: int, axes: tuple[int, ...]) -> tuple[Translation, ...]:
    """Offsets from a cube's base to its 2^k vertices, in lexicographic order:
    the offset of mask bit i.  Corner 2^k - 1 - i is corner i's antipode."""
    return tuple(itertools.product(*((0, 1) if i in axes else (0,) for i in range(n))))


def cube_vertices(c: Cube) -> tuple[Point, ...]:
    """All 2^k vertices of a canonical cube, in lexicographic order."""
    base = c.base
    return tuple(tuple(map(add, base, d)) for d in corners(len(base), c.axes))


def subcubes(c: Cube, j: int) -> list[Cube]:
    """All j-dimensional subcubes of c, canonical and sorted."""
    if not 0 <= j <= c.dim:
        raise ValueError(f"subcube dimension {j} out of range for a {c.dim}-cube")
    out = []
    for free in itertools.combinations(c.axes, j):
        fixed = tuple(a for a in c.axes if a not in free)  # each subcube's base is a corner on these
        out += (Cube(tuple(map(add, c.base, d)), free) for d in corners(c.n, fixed))
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
    ``cstar``, each toward the rest of ``c``: +1 where ``cstar`` sits at
    ``c``'s low side on that axis, else -1.  Both orderings are returned.
    """
    if cstar.dim != c.dim - 2:
        raise ValueError(f"expected a {c.dim - 2}-subcube, got a {cstar.dim}-cube")
    if cstar.n != c.n or cstar not in subcubes(c, cstar.dim):
        raise ValueError(f"{cstar} is not a subcube of {c}")
    t1, t2 = (unit(c.n, a, 1 if cstar.base[a] == c.base[a] else -1) for a in c.axes if a not in cstar.axes)
    return sorted([(t1, t2), (t2, t1)])


def bounding_box(points: Iterable[Point]) -> tuple[Point, Point]:
    axes = list(zip(*points))
    if not axes:
        raise ValueError("empty point set has no bounding box")
    return tuple(map(min, axes)), tuple(map(max, axes))


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


def occupancy(c: Cube, m: AbstractSet[Point]) -> int:
    """The cube's occupancy mask: bit i is set iff vertex i of
    ``cube_vertices(c)`` is in m.  Every cube-local test depends only on the
    shape ``(c.axes, mask)``."""
    return sum(1 << i for i, v in enumerate(cube_vertices(c)) if v in m)


@lru_cache(maxsize=None)
def shell_offsets(n: int) -> tuple[Translation, ...]:
    """The 3^n - 1 offsets from a point to its punctured full neighbourhood,
    in lexicographic order: the offset of shell mask bit i."""
    return tuple(v for v in itertools.product((-1, 0, 1), repeat=n) if any(v))


@lru_cache(maxsize=None)
def half_corners(n: int, axes: tuple[int, ...]) -> tuple[HalfPoint, ...]:
    """Doubled offsets from a cube's barycenter to its vertices, in the order
    of ``cube_vertices``: the offset of mask bit i."""
    return tuple(tuple(2 * d - (i in axes) for i, d in enumerate(v)) for v in corners(n, axes))


def row_major_strides(sizes: Sequence[int]) -> tuple[int, ...]:
    """Strides of a row-major grid with these axis sizes: the last axis has
    stride 1, so index order is lexicographic order."""
    strides = [1]
    for size in reversed(sizes[1:]):
        strides.append(strides[-1] * size)
    return tuple(reversed(strides))


@dataclass(frozen=True)
class HalfGrid:
    """Row-major integer keys of the doubled points of a box with lower
    corner ``lo``: ``key(h)`` is the sum of ``(h - lo) * strides``.  Key
    order is tuple order, and ``key(h + d) == key(h) + offset(d)`` while
    both points lie in the box.  The same keys number a complement
    window's cells, which are lattice points, not doubled ones.
    """

    lo: HalfPoint
    strides: tuple[int, ...]

    @staticmethod
    def around(doubled: Iterable[HalfPoint], n: int) -> "HalfGrid":
        """The box of the doubled points widened by one lattice step: it holds
        every vertex, face and barycenter of the cubes that meet them."""
        span = list(zip(*doubled)) or [(0,)] * n
        lo = tuple(min(c) - 2 for c in span)
        return HalfGrid(lo, row_major_strides([max(c) + 3 - a for a, c in zip(lo, span)]))

    @property
    def n(self) -> int:
        return len(self.lo)

    def offset(self, d: HalfPoint) -> int:
        return sum(map(mul, d, self.strides))

    @cached_property
    def _lo_offset(self) -> int:
        return self.offset(self.lo)

    def key(self, h: HalfPoint) -> int:
        return sum(map(mul, h, self.strides)) - self._lo_offset

    def deltas(self, offsets: Callable[[int, tuple[int, ...]], Sequence[HalfPoint]]) -> Callable:
        """``axes -> offsets(n, axes)`` as key deltas, memoized per axes."""
        return lru_cache(maxsize=None)(lambda axes: list(map(self.offset, offsets(self.n, axes))))

    def point(self, key: int) -> HalfPoint:
        out = []
        for stride, a in zip(self.strides, self.lo):
            c, key = divmod(key, stride)
            out.append(c + a)
        return tuple(out)


def half_keys(m: Iterable[Point], n: int) -> tuple[HalfGrid, list[int]]:
    """The grid around the doubled points of m, and their keys, in m's order.
    The grid is widened by one lattice step, so each point plus a king move
    has a key of its own.  A point not in Z^n raises ``ValueError``."""
    pts = list(m)
    if set(map(len, pts)) - {n}:
        raise ValueError(f"point {next(p for p in pts if len(p) != n)} has wrong dimension (expected {n})")
    grid = HalfGrid.around([double(c) for c in bounding_box(pts)] if pts else [], n)
    strides, base = grid.strides, grid.key((0,) * n)
    return grid, [2 * sum(map(mul, p, strides)) + base for p in pts]


def shell_masks(m: Sequence[Point], n: int) -> list[int]:
    """The shell masks of the points of m, in m's order: bit i of p's mask
    is set iff ``p + shell_offsets(n)[i]`` is in m, found by one ``half_keys``
    sum and one set probe.  Every test local to p's punctured neighbourhood
    depends only on it."""
    grid, keys = half_keys(m, n)
    present = set(keys)
    deltas = [(1 << i, 2 * grid.offset(v)) for i, v in enumerate(shell_offsets(n))]
    return [sum([bit for bit, d in deltas if h + d in present]) for h in keys]


Shapes = tuple[tuple[int, ...], dict[int, int]]  # axes, and each cube's mask by barycenter key


def shapes_meeting(grid: HalfGrid, keys: Sequence[int], k: int) -> Iterator[Shapes]:
    """Every k-cube with a vertex among the doubled points ``keys`` of the
    grid, per axes: the occupancy mask of each, by barycenter key, in no
    particular order.  A point is vertex i of the cube whose barycenter is
    the point minus ``half_corners(n, axes)[i]``, so masks are gathered
    point by point, one key subtraction each."""
    for axes in itertools.combinations(range(grid.n), k):
        masks: dict[int, int] = {}
        for i, corner in enumerate(map(grid.offset, half_corners(grid.n, axes))):
            bit = 1 << i
            for h in keys:
                h -= corner
                masks[h] = masks.get(h, 0) | bit
        yield axes, masks


def cubes_meeting(
    m: AbstractSet[Point], k: int, n: int, keep: Callable[[tuple[int, ...], int], object]
) -> list[tuple[Point, tuple[int, ...], int]]:
    """Every k-cube of Z^n with a vertex in m whose shape passes ``keep(axes,
    mask)``, as ``(base, axes, mask)`` in cube order.  ``keep`` is asked once
    per distinct shape, and only the cubes it keeps are decoded and sorted.
    ``>>`` floors, so odd negative coordinates halve right."""
    grid, keys = half_keys(m, n)
    out = []
    for axes, masks in shapes_meeting(grid, keys, k):
        kept = {mask for mask in set(masks.values()) if keep(axes, mask)}
        out += [(tuple(c >> 1 for c in grid.point(h)), axes, mask) for h, mask in masks.items() if mask in kept]
    return sorted(out)
