"""The cube-local separation property and the auxiliary counting bounds.

A set must not split its complement inside any cube in the disallowed
pattern: whenever a maximal codimension-2 slice of a cube meets a foreground
component and both completing translates reach the same global background
component, the opposite translate may only contain foreground points whose
two single-step preimages are foreground too.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Iterable, Optional

from .adjacency import AdjacencyPair, AdjacencySpec, Region, masked_components, masked_points
from .lattice import (
    Cube,
    Point,
    completing_translations,
    corners,
    cube_vertices,
    cubes_meeting,
    occupancy,
    subcubes,
    vec_add,
)
from .verdict import Verdict


@lru_cache(maxsize=None)
def _slices(n: int, axes: tuple[int, ...]) -> tuple:
    """Per codimension-2 slice of the cube of these axes at the origin, in
    scan order: the slice, its vertex mask and vertices, and per completing
    pair (tau1, tau2) the masks of their images under tau1 and tau2 and the
    images under tau1, tau2 and tau1 + tau2; a vertex is its ``corners`` number."""
    c, out = Cube((0,) * n, axes), []
    index = {v: i for i, v in enumerate(corners(n, axes))}.__getitem__
    for cstar in subcubes(c, c.dim - 2):
        verts, moves = cube_vertices(cstar), []
        for tau1, tau2 in completing_translations(cstar, c):
            images = [tuple(index(vec_add(v, t)) for v in verts) for t in (tau1, tau2, vec_add(tau1, tau2))]
            moves.append((tau1, tau2, *(sum(1 << i for i in side) for side in images[:2]), *images))
        out.append((cstar, sum(1 << index(v) for v in verts), tuple(map(index, verts)), moves))
    return tuple(out)


@lru_cache(maxsize=None)
def _candidates(alpha: AdjacencySpec, axes: tuple[int, ...], mask: int) -> tuple:
    """Scan-order (free-vertex offsets, cstar, tau1, tau2, point) of a cube
    shape on its ``corners``, kept where the diagonal test fails.  All but the
    global-label test lies inside the cube, so it is decided once per shape;
    a cube violates at the first candidate whose free vertices share a label.
    """
    pts = corners(alpha.n, axes)
    slices = _slices(alpha.n, axes)
    out = []
    for comp in masked_components(alpha, pts, mask):  # by lowest bit
        best = max((comp & star).bit_count() for _, star, _, _ in slices)
        for cstar, star, star_verts, moves in slices:
            if (comp & star).bit_count() != best:
                continue
            for tau1, tau2, bits1, bits2, side1, side2, diag in moves:
                if not bits1 & ~mask or not bits2 & ~mask:  # a side with no free vertex
                    continue
                for x, q1, q2, d in zip(star_verts, side1, side2, diag):
                    if comp >> d & 1 and not (comp >> q1 & comp >> q2 & 1):
                        out.append((masked_points(pts, (bits1 | bits2) & ~mask), cstar, tau1, tau2, pts[x]))
                        break
    return tuple(out)


def _violation_in_cube(
    base: Point, axes: tuple[int, ...], mask: int, pair: AdjacencyPair, region: Region, mset: frozenset[Point]
) -> Optional[dict]:
    """The first violation in the cube of this base and shape: the slice, both
    translations and the point whose diagonal image is foreground while a
    side image is not.  Only a shape with candidates reads the window's
    labeling, so the window is labeled at the first such cube."""
    for free, cstar, tau1, tau2, x in _candidates(pair.alpha, axes, mask):
        labels = region.complement(pair.beta, mset)
        if len({labels[vec_add(base, d)] for d in free}) == 1:
            return {
                "kind": "separation",
                "cube": Cube(base, axes).to_json(),
                "cstar": Cube(vec_add(base, cstar.base), cstar.axes).to_json(),
                "tau1": list(tau1),
                "tau2": list(tau2),
                "point": list(vec_add(base, x)),
            }
    return None


def not_separated_in_cube(
    m: Iterable[Point],
    c: Cube,
    pair: AdjacencyPair,
    region: Region | None = None,
) -> Verdict:
    """Check the separation condition for one cube of dimension 2..n."""
    if not 2 <= c.dim <= c.n:
        raise ValueError(f"cube dimension {c.dim} out of range 2..{c.n}")
    mset = frozenset(m)
    if region is None:
        region = Region.around(mset | set(cube_vertices(c)), margin=2)
    region.require_inside(mset)
    witness = _violation_in_cube(c.base, c.axes, occupancy(c, mset), pair, region, mset)
    return Verdict(witness is None, witness)


def has_separation_property(
    m: Iterable[Point],
    pair: AdjacencyPair,
    region: Region | None = None,
) -> Verdict:
    """Conjunction of the cube check over every cube near the set.

    Scans every k-cube, 2 <= k <= n, with a vertex in m; cubes that miss m
    hold vacuously, and so do cubes whose shape has no candidate, which are
    dropped before they are decoded.  The first failing witness in
    (dimension, base, axes) order is returned.
    """
    mset = frozenset(m)
    if not mset:
        return Verdict(True)
    n, has_candidates = pair.n, partial(_candidates, pair.alpha)
    if region is None:
        region = Region.around(mset, margin=2)
    region.require_inside(mset)
    for k in range(2, n + 1):
        for base, axes, mask in cubes_meeting(mset, k, n, has_candidates):
            witness = _violation_in_cube(base, axes, mask, pair, region, mset)
            if witness is not None:
                return Verdict(False, witness)
    return Verdict(True)


def replay_separation_witness(
    w: dict, m: Iterable[Point], pair: AdjacencyPair, region: Region | None = None
) -> bool:
    """True iff the recorded cube yields exactly the recorded violation."""
    return not_separated_in_cube(m, Cube.from_json(w["cube"]), pair, region).witness == w


REPLAYS = {"separation": replay_separation_witness}


def beta_neighbor_lower_bound(k: int, size: int) -> int:
    """Minimum foreground contacts of a size-l background component in a k-cube.

    Evaluates (k - m) * l + 2^m - l with m = ceil(log2 l).
    """
    if not 1 <= size <= 2**k:
        raise ValueError(f"component size {size} impossible in a {k}-cube")
    m = (size - 1).bit_length()
    return (k - m) * size + 2**m - size


def component_count_bounds_hold(m: Iterable[Point], c: Cube, pair: AdjacencyPair) -> bool:
    """Vertex-count bounds k <= |C n M| <= 2^k - 2 when C \\ M has two parts."""
    mask = occupancy(c, frozenset(m))
    count = len(list(masked_components(pair.beta, corners(c.n, c.axes), ~mask)))
    if count != 2:
        raise ValueError(f"cube complement has {count} components, expected exactly 2")
    return c.dim <= mask.bit_count() <= 2**c.dim - 2
