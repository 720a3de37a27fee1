"""The cube-local separation property and the auxiliary counting bounds.

A set must not split its complement inside any cube in the disallowed
pattern: whenever a maximal codimension-2 slice of a cube meets a foreground
component and both completing translates reach the same global background
component, the opposite translate may only contain foreground points whose
two single-step preimages are foreground too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .adjacency import AdjacencyPair, ComponentLabeling, Region, complement_components, components
from .lattice import (
    Cube,
    Point,
    Translation,
    bounding_box,
    completing_translations,
    cube_vertices,
    cubes_meeting_box,
    subcubes,
    vec_add,
)


@dataclass(frozen=True)
class SeparationWitness:
    """A replayable violation: the cube, the slice, both translations and
    the point whose diagonal image is foreground while a side image is not."""

    cube: Cube
    cstar: Cube
    tau1: Translation
    tau2: Translation
    point: Point

    def to_json(self) -> dict:
        return {
            "kind": "separation",
            "cube": {"base": list(self.cube.base), "axes": list(self.cube.axes)},
            "cstar": {"base": list(self.cstar.base), "axes": list(self.cstar.axes)},
            "tau1": list(self.tau1),
            "tau2": list(self.tau2),
            "point": list(self.point),
        }


@dataclass(frozen=True)
class SeparationVerdict:
    holds: bool
    witness: Optional[SeparationWitness] = None

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "witness": self.witness.to_json() if self.witness else None,
        }


def _violation_in_cube(
    mset: frozenset[Point],
    c: Cube,
    pair: AdjacencyPair,
    labels: ComponentLabeling,
) -> Optional[SeparationWitness]:
    cut = frozenset(v for v in cube_vertices(c) if v in mset)
    if not cut:
        return None
    slices = [(cstar, cube_vertices(cstar)) for cstar in subcubes(c, c.dim - 2)]
    for comp in sorted(components(pair.alpha, cut).components().values(), key=min):
        best = max(sum(1 for v in verts if v in comp) for _, verts in slices)
        if best == 0:
            continue
        for cstar, star_verts in slices:
            if sum(1 for v in star_verts if v in comp) != best:
                continue
            for tau1, tau2 in completing_translations(cstar, c):
                side1 = [vec_add(v, tau1) for v in star_verts]
                side2 = [vec_add(v, tau2) for v in star_verts]
                free1 = [q for q in side1 if q not in mset]
                free2 = [q for q in side2 if q not in mset]
                if not free1 or not free2:
                    continue
                ids = {labels.id_of(q) for q in free1 + free2}
                if len(ids) != 1:
                    continue
                diag = tuple(a + b for a, b in zip(tau1, tau2))
                for x in star_verts:
                    if vec_add(x, diag) in comp and (
                        vec_add(x, tau1) not in comp or vec_add(x, tau2) not in comp
                    ):
                        return SeparationWitness(c, cstar, tau1, tau2, x)
    return None


def not_separated_in_cube(
    m: Iterable[Point],
    c: Cube,
    pair: AdjacencyPair,
    region: Region | None = None,
    _labels: ComponentLabeling | None = None,
) -> SeparationVerdict:
    """Check the separation condition for one cube of dimension 2..n."""
    if not 2 <= c.dim <= c.n:
        raise ValueError(f"cube dimension {c.dim} out of range 2..{c.n}")
    mset = frozenset(m)
    if _labels is None:
        if region is None:
            region = Region.around(mset | set(cube_vertices(c)), margin=2)
        _labels = complement_components(pair.beta, mset, region)
    witness = _violation_in_cube(mset, c, pair, _labels)
    return SeparationVerdict(witness is None, witness)


def has_separation_property(
    m: Iterable[Point],
    pair: AdjacencyPair,
    region: Region | None = None,
) -> SeparationVerdict:
    """Conjunction of the cube check over every cube near the set.

    Scans every k-cube, 2 <= k <= n, meeting the bounding box of m dilated
    by one; cubes that miss m hold vacuously.  The first failing witness in
    (dimension, base, axes) order is returned.
    """
    mset = frozenset(m)
    if not mset:
        return SeparationVerdict(True)
    n = pair.n
    if region is None:
        region = Region.around(mset, margin=2)
    labels = complement_components(pair.beta, mset, region)
    lo, hi = bounding_box(mset)
    lo = tuple(c - 1 for c in lo)
    hi = tuple(c + 1 for c in hi)
    cubes = [
        c
        for k in range(2, n + 1)
        for c in cubes_meeting_box(lo, hi, k, n)
        if any(v in mset for v in cube_vertices(c))
    ]
    for c in cubes:
        witness = _violation_in_cube(mset, c, pair, labels)
        if witness is not None:
            return SeparationVerdict(False, witness)
    return SeparationVerdict(True)


def replay_separation_witness(
    w: SeparationWitness, m: Iterable[Point], pair: AdjacencyPair, region: Region | None = None
) -> bool:
    """Re-run the cube named by the witness; True iff it still violates."""
    verdict = not_separated_in_cube(m, w.cube, pair, region)
    return not verdict.holds


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
    mset = frozenset(m)
    free = [v for v in cube_vertices(c) if v not in mset]
    count = components(pair.beta, free).count
    if count != 2:
        raise ValueError(f"cube complement has {count} components, expected exactly 2")
    inside = 2**c.dim - len(free)
    return c.dim <= inside <= 2**c.dim - 2
