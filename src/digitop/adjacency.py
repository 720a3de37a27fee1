"""Adjacency relations on Z^n and connectivity machinery.

An adjacency is a translation-invariant, symmetric, finitary relation given
by its offset set.  Every relation considered here is sandwiched between the
axis relation (2n neighbors) and the full relation (3^n - 1 neighbors).
Pairs (alpha, beta) carry alpha as the foreground relation and beta as the
background relation.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import le
from typing import Callable, Iterable, Iterator, Literal, Sequence

from .lattice import (
    HalfGrid,
    Point,
    Translation,
    bounding_box,
    half_keys,
    require_dimension,
    row_major_strides,
    shell_offsets,
    unit,
    vec_add,
)

Path = Sequence[Point]
_KING = frozenset((-1, 0, 1))
DEFAULT_BUDGET = 100_000  # the contractibility search's default --budget


def _axis_offsets(n: int) -> frozenset[Translation]:
    return frozenset(unit(n, i, s) for i in range(n) for s in (1, -1))


@dataclass(frozen=True)
class AdjacencySpec:
    """A symmetric offset set defining a translation-invariant adjacency."""

    n: int
    offsets: frozenset[Translation]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        for v in self.offsets:
            if len(v) != self.n:
                raise ValueError(f"offset {v} has wrong dimension (expected {self.n})")
            if tuple(-c for c in v) not in self.offsets:
                raise ValueError(f"offset set is not symmetric: missing {tuple(-c for c in v)}")
        if not _axis_offsets(self.n) <= self.offsets:
            raise ValueError("offset set must contain all axis unit offsets")
        # each offset a king move, tested per entry: the full set has 3^n - 1
        if not all(any(v) and _KING.issuperset(v) for v in self.offsets):
            raise ValueError("offset set must be contained in the full (king-move) offsets")

    @cached_property
    def sorted_offsets(self) -> tuple[Translation, ...]:
        return tuple(sorted(self.offsets))

    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self.offsets))

    def __hash__(self) -> int:  # every cached table lookup hashes its adjacency
        return self._hash

    def adjacent(self, p: Point, q: Point) -> bool:
        return tuple(a - b for a, b in zip(q, p)) in self.offsets


@lru_cache(maxsize=None)
def axis_adjacency(n: int) -> AdjacencySpec:
    """The 2n-neighbor relation generated by the unit translations."""
    return AdjacencySpec(n, _axis_offsets(n))


@lru_cache(maxsize=None)
def full_adjacency(n: int) -> AdjacencySpec:
    """The (3^n - 1)-neighbor king-move relation."""
    return AdjacencySpec(n, frozenset(shell_offsets(n)))


def custom_adjacency(n: int, offsets: Iterable[Translation]) -> AdjacencySpec:
    return AdjacencySpec(n, frozenset(tuple(v) for v in offsets))


@dataclass(frozen=True)
class AdjacencyPair:
    """Foreground relation alpha, background relation beta."""

    alpha: AdjacencySpec
    beta: AdjacencySpec

    def __post_init__(self) -> None:
        if self.alpha.n != self.beta.n:
            raise ValueError("alpha and beta must share one dimension")

    @property
    def n(self) -> int:
        return self.alpha.n

    @cached_property
    def _hash(self) -> int:
        return hash((self.alpha, self.beta))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class Region:
    """Axis-aligned box lo..hi (inclusive), the finite analysis window.

    A window memoizes the complement labeling of each (spec, m) it is asked
    for, so every check of one command reads one labeling.  The memo takes
    no part in equality or hashing, and a labeling is never mutated, so a
    window stays logically immutable.
    """

    lo: Point
    hi: Point
    _complements: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi) or any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"degenerate region {self.lo}..{self.hi}")

    @property
    def n(self) -> int:
        return len(self.lo)

    def strictly_contains(self, p: Point) -> bool:
        return all(a < c < b for a, c, b in zip(self.lo, p, self.hi))

    def require_inside(self, m: Iterable[Point]) -> None:
        """Raise ``ValueError`` unless every point of m is in Z^n and sits at
        least one step inside the window, as a complement labeling of it
        requires.  The bounding box of m decides; when it fails, each point
        is tried in turn, so that the first offender is named."""
        pts = list(m)
        require_dimension(pts, self.n)
        if all(a < min(c) and max(c) < b for a, c, b in zip(self.lo, zip(*pts), self.hi)):
            return
        for p in pts:
            if not self.strictly_contains(p):
                raise ValueError(f"region too small: {p} touches the margin zone")

    @staticmethod
    def around(points: Iterable[Point], margin: int = 2) -> "Region":
        lo, hi = bounding_box(points)
        return Region(tuple(a - margin for a in lo), tuple(b + margin for b in hi))

    def complement(self, spec: AdjacencySpec, m: Iterable[Point]) -> "ComponentLabeling":
        """``complement_components(spec, m, self)``, labeled once per window."""
        mset = frozenset(m)
        key = (spec, mset)
        labeling = self._complements.get(key)
        if labeling is None:
            labeling = self._complements[key] = complement_components(spec, mset, self)
        return labeling


class ComponentLabeling(Mapping):
    """Partition of a point set into connected components: a read-only
    ``Mapping`` from each point to its component id, the lexicographically
    smallest member.

    It is one list of ids over a numbering of points that follows their
    lexicographic order: ``index(p)`` is p's number (-1 for a point outside
    the numbering) and ``point(i)`` decodes one.  ``ids[i]`` is the smallest
    number in i's component, or -1 when i is no key; ``id_sizes`` maps each
    id to its component's size, in increasing order, as the flood counted
    it.  A point set numbers
    its sorted points through a dict.  A complement window numbers its
    cells by ``HalfGrid`` keys and passes ``steps``, each adjacency's key
    step per offset, so ``ids_near`` reads a point inside it by strides.
    ``infinite_ids`` holds the id of the component that touches the window's
    boundary, which stands in for the one infinite component of the
    complement.  Two labelings are equal when their labels and their
    ``infinite_ids`` are; a plain mapping compares by labels alone.
    """

    __slots__ = ("ids", "id_sizes", "index", "point", "infinite_ids", "_steps")

    def __init__(
        self,
        ids: list[int],
        id_sizes: dict[int, int],
        index: Callable[[Point], int],
        point: Callable[[int], Point],
        infinite_ids: frozenset[Point] = frozenset(),
        steps: Callable[[AdjacencySpec], list[int]] | None = None,
    ) -> None:
        self.ids, self.id_sizes, self.index, self.point = ids, id_sizes, index, point
        self.infinite_ids, self._steps = infinite_ids, steps

    @property
    def labels(self) -> "ComponentLabeling":
        return self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ComponentLabeling) and self.infinite_ids != other.infinite_ids:
            return False
        return Mapping.__eq__(self, other)

    def get(self, p: Point, default=None):
        i = self.index(p)
        c = self.ids[i] if i >= 0 else -1
        return default if c < 0 else self.point(c)

    def __getitem__(self, p: Point) -> Point:
        q = self.get(p)
        if q is None:
            raise KeyError(p)
        return q

    def __len__(self) -> int:
        return sum(self.id_sizes.values())

    def __iter__(self) -> Iterator[Point]:
        return (self.point(i) for i, c in enumerate(self.ids) if c >= 0)

    @property
    def count(self) -> int:
        """The number of components."""
        return len(self.id_sizes)

    def sizes(self) -> dict[Point, int]:
        """Each component id, in increasing order, with its number of points."""
        return {self.point(c): k for c, k in self.id_sizes.items()}

    def ids_near(self, spec: AdjacencySpec, p: Point) -> set[Point]:
        """The ids of the components that p's spec-neighbours in this labeling lie in."""
        if len(p) != spec.n:
            require_dimension((p,), spec.n)
        ids, i = self.ids, self.index(p)
        if i >= 0 and self._steps is not None:  # inside a window, every neighbour has a cell
            near = {ids[i + d] for d in self._steps(spec)}
        else:
            near = {ids[j] for v in spec.sorted_offsets if (j := self.index(vec_add(p, v))) >= 0}
        near.discard(-1)
        return set(map(self.point, near))

    def components(self) -> dict[Point, frozenset[Point]]:
        """Each component id, in increasing order, with its points."""
        acc: dict[int, list[Point]] = {}
        for i, c in enumerate(self.ids):  # a component's first number is its id
            if c >= 0:
                acc.setdefault(c, []).append(self.point(i))
        return {self.point(c): frozenset(pts) for c, pts in acc.items()}


def neighbors(spec: AdjacencySpec, p: Point) -> set[Point]:
    """The neighborhood {p + v : v in offsets}."""
    if len(p) != spec.n:
        require_dimension((p,), spec.n)
    return {vec_add(p, v) for v in spec.offsets}


def label(todo: bytearray, step: Callable[[list[int]], Iterable[int]]) -> tuple[list[int], dict[int, int]]:
    """Flood-fill labeling on integer ids: each id i with ``todo[i]`` set maps
    to the smallest such id of its component, every other id to -1; and each
    seed, in increasing order, with the number of ids it floods.

    ``step(frontier)`` returns the neighbour ids of every id of a frontier,
    under a symmetric relation; ids whose ``todo`` byte is clear are
    skipped.  The flood runs one breadth-first layer per call.  Seeds are
    found in increasing order, so a seed is the smallest id it floods.
    ``todo`` is consumed: every byte ends clear.
    """
    ids = [-1] * len(todo)
    sizes: dict[int, int] = {}
    seed = todo.find(1)
    while seed >= 0:
        todo[seed] = 0
        ids[seed] = seed
        frontier = [seed]
        size = 1
        while frontier:
            layer = []
            for q in step(frontier):
                if todo[q]:
                    todo[q] = 0
                    ids[q] = seed
                    layer.append(q)
            frontier = layer
            size += len(layer)
        sizes[seed] = size
        seed = todo.find(1, seed)
    return ids, sizes


def components(spec: AdjacencySpec, points: Iterable[Point]) -> ComponentLabeling:
    """Exact connected components of a finite set under the adjacency: its
    sorted points, ``label``-flooded through their uncached ``neighbour_table``."""
    pts = tuple(sorted(set(points)))
    index, table = neighbour_table.__wrapped__(spec, pts)
    ids, sizes = label(bytearray(b"\1") * len(pts), lambda fr: [j for i in fr for j in table[i]])
    return ComponentLabeling(ids, sizes, lambda p: index.get(p, -1), pts.__getitem__)


@lru_cache(maxsize=None)
def neighbour_table(spec: AdjacencySpec, points: tuple[Point, ...]) -> tuple[dict[Point, int], list[list[int]]]:
    """The numbering of distinct sorted points, and each one's neighbours
    among them as increasing numbers: two points are adjacent iff their
    difference is an offset.  A neighbour is found by one ``half_keys`` sum
    and one probe per offset; a point not in Z^n raises ``ValueError``.
    Cached per fixed tuple (a cube's ``corners``, ``shell_offsets``);
    ``__wrapped__`` is uncached."""
    grid, keys = half_keys(points, spec.n)
    at = {h: i for i, h in enumerate(keys)}.get
    deltas = [2 * grid.offset(v) for v in spec.sorted_offsets]  # a doubled offset's key delta
    return {p: i for i, p in enumerate(points)}, [[j for d in deltas if (j := at(h + d)) is not None] for h in keys]


@lru_cache(maxsize=None)
def neighbour_bits(spec: AdjacencySpec, points: tuple[Point, ...]) -> list[int]:
    """Each ``neighbour_table`` row as one mask: bit j of entry i is set iff j neighbours i."""
    return [sum(1 << j for j in row) for row in neighbour_table(spec, points)[1]]


def masked_components(spec: AdjacencySpec, points: tuple[Point, ...], mask: int) -> Iterator[int]:
    """The components of the points whose bit is set in ``mask`` (bit i is
    ``points[i]``; ``~occupied`` selects the free ones), each as one mask, in
    order of its lowest bit.  Each breadth-first layer from that bit is the
    OR of the frontier's ``neighbour_bits``, less the bits already reached."""
    nbits = neighbour_bits(spec, points)
    todo = mask & ~(-1 << len(points))
    while todo:
        comp = frontier = todo & -todo
        todo ^= comp
        while frontier:
            reach = 0
            while frontier:
                i = frontier.bit_length() - 1
                reach |= nbits[i]
                frontier ^= 1 << i
            frontier = reach & todo
            todo ^= frontier
            comp |= frontier
        yield comp


def masked_points(points: Sequence[Point], mask: int) -> tuple[Point, ...]:
    """The points whose bit is set in a nonnegative ``mask``, in order."""
    return tuple(p for i, p in enumerate(points) if mask >> i & 1)


def complement_components(
    spec: AdjacencySpec, m: Iterable[Point], region: Region
) -> ComponentLabeling:
    """Components of region \\ m; the one touching the region's boundary is flagged.

    Every point of m must sit at least one step inside the region.  Then
    the boundary shell of the region is free and axis-connected, and every
    spec contains the axis offsets, so exactly one component touches the
    boundary: the one of ``region.lo``, which is also its id.  It stands in
    for the one infinite component of the full complement.

    The cells of the region and a blocked one-cell rim are keyed by a
    ``HalfGrid`` with lower corner ``region.lo - 1`` (key order is
    lexicographic order, and the last axis has stride 1).  The points of m
    split each row along the last axis into maximal free runs, which
    ``label`` floods, numbered in key order.  A run meets the runs of each
    row one prefix move away that overlap its keys widened by the last-axis
    shifts the spec allows with that move (one interval per run of shifts:
    a spec may allow -1 and 1 but not 0).  Runs of one row never meet, and a
    seed run starts at the smallest key of its component, which is the id
    of each of its cells.  The window costs one list slot per cell.  Its
    keys are the free points of the region; a point outside it, or of
    another dimension, is none.
    """
    mset = set(m)
    region.require_inside(mset)
    lo, hi = region.lo, region.hi
    sizes = [b - a + 3 for a, b in zip(lo, hi)]
    grid = HalfGrid(tuple(a - 1 for a in lo), row_major_strides(sizes))
    cells = sizes[0] * grid.strides[0]
    rows = [1]  # the first cell of every row of the region, in key order
    for size, stride in zip(sizes[:-1], grid.strides):
        rows = [r + k * stride for r in rows for k in range(1, size - 1)]
    # the free runs [starts[r], stops[r]] of every row, in key order
    starts: list[int] = []
    stops: list[int] = []
    cuts = sorted(map(grid.key, mset)) + [cells]  # a sentinel past every row
    i, row = 0, sizes[-1] - 2
    for a in rows:
        end = a + row
        while cuts[i] < end:
            if cuts[i] > a:
                starts.append(a)
                stops.append(cuts[i] - 1)
            a = cuts[i] + 1
            i += 1
        if a < end:
            starts.append(a)
            stops.append(end - 1)
    # per prefix move, the key intervals that its last-axis shifts reach
    shifts: dict[int, list[int]] = {}
    for v in spec.sorted_offsets:
        if any(v[:-1]):
            shifts.setdefault(grid.offset(v[:-1]), []).append(v[-1])
    spans: list[tuple[int, int]] = []
    for d, s in shifts.items():
        spans += [(d - 1, d - 1), (d + 1, d + 1)] if s == [-1, 1] else [(d + s[0], d + s[-1])]
    # ids[k] first codes the runs around cell k: 2r + 1 in run r, and 2r in
    # the gap before it, so the runs that meet keys k..l are number
    # ids[k] >> 1 up to, not including, ids[l] + 1 >> 1
    ids: list[int] = []
    for r, (a, b) in enumerate(zip(starts, stops)):
        ids += [2 * r] * (a - len(ids))
        ids += [2 * r + 1] * (b + 1 - a)
    ids += [2 * len(starts)] * (cells - len(ids))

    def step(frontier: list[int]) -> list[int]:
        out: list[int] = []
        for r in frontier:
            a, b = starts[r], stops[r]
            for low, high in spans:
                out += range(ids[a + low] >> 1, ids[b + high] + 1 >> 1)
        return out

    seeds = label(bytearray(b"\1") * len(starts), step)[0]
    sizes: dict[int, int] = {}  # the runs' lengths per id; a seed run comes first, so ids ascend
    gap = 0
    for a, b, s in zip(starts, stops, seeds):
        ids[gap:a] = [-1] * (a - gap)
        c = starts[s]
        ids[a : b + 1] = [c] * (b + 1 - a)
        sizes[c] = sizes.get(c, 0) + b + 1 - a
        gap = b + 1
    ids[gap:] = [-1] * (cells - gap)
    steps = lru_cache(maxsize=None)(lambda s: list(map(grid.offset, s.sorted_offsets)))

    def index(p: Point) -> int:
        if len(p) == len(lo) and all(map(le, lo, p)) and all(map(le, p, hi)):
            return grid.key(p)
        return -1

    return ComponentLabeling(ids, sizes, index, grid.point, frozenset({lo}), steps)


def is_path(spec: AdjacencySpec, seq: Path) -> bool:
    """True iff consecutive members are adjacent (single points count)."""
    return all(spec.adjacent(p, q) for p, q in zip(seq, seq[1:]))


def elementary_equivalent(w: Path, w_other: Path, bound: int) -> bool:
    """Single bounded middle-run replacement between two paths.

    True iff the paths decompose as common prefix + middle + common suffix
    where the two middles have lengths k and n with 1 <= k + n <= bound + 2.
    Both inputs are assumed to be valid paths under one adjacency.
    """
    a, b = list(w), list(w_other)
    la, lb = len(a), len(b)
    for p in range(min(la, lb) + 1):
        if p > 0 and a[p - 1] != b[p - 1]:
            break
        for s in range(min(la, lb) - p + 1):
            if s > 0 and a[la - s] != b[lb - s]:
                continue
            k, n = la - p - s, lb - p - s
            if 1 <= k + n <= bound + 2:
                return True
    return False


class _CycleGraph:
    """A finite point set as a graph on vertex indices, for the search.

    Vertex i is the i-th point in lexicographic order, and each neighbour
    list is increasing.  A translation keeps that order, so index order is
    the order of ``sorted`` points and of ``spec.sorted_offsets``.  The
    walk counts toward each end vertex, and each walk list enumerated to its
    end, are kept for the graph.
    """

    def __init__(self, spec: AdjacencySpec, pts: Iterable[Point]) -> None:
        self.points = tuple(sorted(set(pts)))
        self.adj = neighbour_table.__wrapped__(spec, self.points)[1]
        self._toward: dict[int, list[dict[int, int]]] = {}
        self._walks: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}

    def generator_cycles(self) -> Iterator[tuple[int, ...]]:
        """The fundamental cycles of the BFS tree rooted at vertex 0, one per
        non-tree edge (i, j), i < j, in increasing order."""
        parent: dict[int, int | None] = {0: None}
        queue = [0]
        for p in queue:
            for q in self.adj[p]:
                if q not in parent:
                    parent[q] = p
                    queue.append(q)
        if len(parent) != len(self.points):
            raise ValueError("the set must be connected under the given adjacency")

        def root_path(p: int) -> list[int]:
            out = [p]
            while parent[out[-1]] is not None:
                out.append(parent[out[-1]])  # type: ignore[arg-type]
            out.reverse()
            return out

        for p, nbrs in enumerate(self.adj):
            for q in nbrs:
                if p < q and parent[p] != q and parent[q] != p:
                    yield tuple(root_path(p) + root_path(q)[::-1])

    def walk_counts(self, v: int, steps: int) -> list[dict[int, int]]:
        """``c[0..steps]`` (at least), where ``c[t][x]`` is the number of
        t-step walks from x to v, ``(A^t)[x][v]``; vertices with none are
        left out.  Each step spreads the counts over the neighbours, which
        the symmetric relation makes the same as gathering them."""
        counts = self._toward.get(v)
        if counts is None:
            counts = self._toward[v] = [{v: 1}]
        while len(counts) <= steps:
            step: dict[int, int] = {}
            for y, c in counts[-1].items():
                for x in self.adj[y]:
                    step[x] = step.get(x, 0) + c
            counts.append(step)
        return counts

    def walks(self, u: int, v: int, steps: int) -> Iterable[tuple[int, ...]]:
        """Every walk of ``steps`` steps from u to v, in lexicographic order.

        Walks are yielded as they are found, so a search that stops early
        never holds them all; a list enumerated to its end is kept.
        """
        key = (u, v, steps)
        done = self._walks.get(key)
        return done if done is not None else self._enumerate_walks(key)

    def _enumerate_walks(self, key: tuple[int, int, int]) -> Iterator[tuple[int, ...]]:
        # a prefix is extended only to vertices that still reach v in the
        # steps left, so no branch of the depth-first search is a dead end
        u, v, steps = key
        counts = self.walk_counts(v, steps)
        out: list[tuple[int, ...]] = []
        stack = [(u,)] if u in counts[steps] else []
        while stack:
            walk = stack.pop()
            left = steps + 1 - len(walk)
            if left:
                reach = counts[left - 1]
                stack.extend([walk + (x,) for x in reversed(self.adj[walk[-1]]) if x in reach])
            else:
                out.append(walk)
                yield walk
        self._walks[key] = out


def _contract_cycle(
    graph: _CycleGraph, cycle: Sequence[int], bound: int, budget: int, exact: bool = False
) -> bool:
    """Best-first search for a contraction of ``cycle`` to one vertex; False
    once more than ``budget`` distinct rewritten cycles have been queued.  One
    FIFO bucket per length: the shortest, then earliest, queued cycle goes first.

    A rewrite of w keeps ``w[:p]`` and ``w[q + 1:]`` and puts a walk from
    ``w[p]`` to ``w[q]`` between them, so the rewrites of one length from one
    (p, q) are a segment: every walk of one step count, in lexicographic
    order.  By default a segment is queued by its walk count alone; when it
    is popped, its cycles not popped before take its place, which keeps the
    pop order of a search that queues each cycle once.  While the counted
    rewrites stay within ``budget`` the budget cannot bind; once they pass
    it, the search starts again with ``exact``, which builds each rewrite as
    it is queued and counts only new ones against the budget.  The budget,
    not ``bound``, caps the work: walk counts are extended only to the steps
    read, and the buckets only to the longest length queued.
    """
    start = tuple(cycle)
    if len(start) <= 1:
        return True
    max_len = len(start) + bound + 2
    done = {start} if exact else set()  # exact: every cycle queued; else every cycle popped
    buckets: list[deque] = [deque() for _ in range(len(start) + 1)]  # grown to the longest queued
    buckets[len(start)].append(start)
    low = len(start)
    rewrites = 0
    while low < len(buckets):
        bucket = buckets[low]
        if not bucket:
            low += 1
            continue
        w = bucket.popleft()
        if type(w) is list:  # a segment: its cycles not popped before take its place
            w, p, q, steps = w
            head, tail = w[:p], w[q + 1 :]
            bucket.extendleft(
                reversed([c for walk in graph.walks(w[p], w[q], steps) if (c := head + walk + tail) not in done])
            )
            continue
        if not exact:
            done.add(w)
        length = len(w)
        ends = [graph.walk_counts(v, 0) for v in w]  # extended only to the steps read
        # 0 to bound + 2 - k new vertices (at least one if none go), up to max_len in all
        spans = [
            range(0 if k else 1, min(bound + 2 - k, max_len - length + k) + 1) for k in range(min(bound + 2, length) + 1)
        ]
        # the middle w[i:j] of k = j - i vertices gives way to r vertices, with
        # k + r <= bound + 2; the kept ends w[p] and w[q] join the walk
        for i in range(length + 1):
            p = i - 1 if i else 0
            u = w[p]
            for j in range(i, min(i + bound + 2, length) + 1):
                if j == length - 1 and not i:
                    return True  # w[j:] is one point, the first such rewrite
                k = j - i
                inner = 1 if i and j < length else 0  # both ends kept: one more step
                q = j if j < length else length - 1
                counts = ends[q]
                for r in spans[k]:
                    steps = r + inner
                    if steps >= len(counts):
                        counts = ends[q] = graph.walk_counts(w[q], steps)
                    count = counts[steps].get(u)
                    if not count:
                        continue
                    size = length - k + r
                    if size >= len(buckets):
                        buckets += [deque() for _ in range(size + 1 - len(buckets))]
                    if exact:
                        head, tail = w[:p], w[q + 1 :]
                        for walk in graph.walks(u, w[q], steps):
                            w2 = head + walk + tail
                            if w2 not in done:
                                if len(done) > budget:
                                    return False
                                done.add(w2)
                                buckets[size].append(w2)
                    else:
                        rewrites += count
                        if rewrites > budget:
                            return _contract_cycle(graph, start, bound, budget, exact=True)
                        buckets[size].append([w, p, q, steps])
                    if size < low:
                        low = size
    return False


def n_simply_connected_bounded(
    spec: AdjacencySpec,
    s: Iterable[Point],
    bound: int,
    budget: int = DEFAULT_BUDGET,
) -> Literal["yes", "unknown"]:
    """Bounded search: does every cycle in s contract to a point?

    The generator cycles are the fundamental cycles of a spanning tree
    rooted at the smallest point; every other cycle reduces to products of
    these by backtrack insertions and deletions, which are themselves legal
    bounded replacements.  Each generator cycle is contracted by best-first
    search over middle-run rewrites; ``budget`` caps the distinct rewritten
    cycles queued per generator cycle.  Returns "unknown" on budget
    exhaustion, never "no".

    The search answers "yes" at its first one-point rewrite unless more than
    ``budget`` distinct cycles were queued before it.  Those are at most the
    rewrites yielded before it, so when the yields number at most
    ``budget`` the answer is "yes" without deduplicating anything; a search
    that runs out of cycles is "unknown" under any budget.  The yields are
    counted, not built: the relation is symmetric, so the runs of r vertices
    from a start set S that end next to e number ``sum((A^r)[s][e] for s in
    S)`` over the adjacency matrix A, and the runs that end at e itself
    number the same with ``A^(r - 1)``.  ``_CycleGraph.walk_counts`` keeps
    these per end vertex.
    """
    graph = _CycleGraph(spec, s)
    if not graph.points:
        return "yes"
    for cycle in graph.generator_cycles():
        if not _contract_cycle(graph, cycle, bound, budget):
            return "unknown"
    return "yes"
