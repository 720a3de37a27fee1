"""Digital manifold certification, global sides, simple points, good pairs.

A finite foreground set is certified as a digital (n-1)-manifold when it is
alpha-connected and satisfies four properties: cube-wise alpha-connectivity,
exactly two local background components around every point, two-sidedness of
every alpha-neighbor, and the separation property.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Literal, Optional

from .adjacency import (
    DEFAULT_BUDGET,
    AdjacencyPair,
    AdjacencySpec,
    Region,
    axis_adjacency,
    components,
    masked_components,
    masked_points,
    n_simply_connected_bounded,
    neighbors,
    neighbour_bits,
    neighbour_table,
)
from .lattice import (
    Cube,
    Point,
    Translation,
    corners,
    cubes_meeting,
    occupancy,
    require_dimension,
    shell_masks,
    shell_offsets,
    vec_add,
    vec_sub,
)
from .separation import has_separation_property
from .verdict import Checks, Verdict


@dataclass(frozen=True)
class ManifoldReport(Checks, conjunction="certified"):
    """Per-property verdicts; ``local_components`` gives each point's local sides."""

    alpha_connected: Verdict
    cube_connectivity: Verdict
    local_two_components: Verdict
    two_sidedness: Verdict
    separation: Verdict


@dataclass(frozen=True)
class GlobalSides:
    """The two background components of the neighborhood shell of the set."""

    c_side: frozenset[Point]
    d_side: frozenset[Point]


@lru_cache(maxsize=None)
def _shell(pair: AdjacencyPair, mask: int) -> tuple[tuple[int, ...], Optional[tuple[Translation, int]]]:
    """The local sides of a shell mask, each a mask of ``shell_offsets``, in
    order of their lowest bits; with exactly two sides, also the first
    alpha-neighbour offset in M that is beta-adjacent to no offset of some
    side, with that side's index (None if there is none)."""
    offsets = shell_offsets(pair.n)
    sides = tuple(masked_components(pair.beta, offsets, ~mask))
    if len(sides) == 2:
        index, nbits = neighbour_table(pair.beta, offsets)[0], neighbour_bits(pair.beta, offsets)
        for a in pair.alpha.sorted_offsets:
            j = index[a]
            if mask >> j & 1:  # a foreground point
                for k, side in enumerate(sides):
                    if not nbits[j] & side:
                        return sides, (a, k)
    return sides, None


def local_components(p: Point, m: Iterable[Point], pair: AdjacencyPair) -> list[frozenset[Point]]:
    """Background components of the punctured neighborhood of p, sorted."""
    mset = frozenset(m)
    if p not in mset:
        raise ValueError(f"{p} is not a foreground point")
    require_dimension(mset, pair.n)
    offsets = shell_offsets(pair.n)  # bit i of p's shell mask is p + offsets[i] in m
    sides = _shell(pair, sum(1 << i for i, v in enumerate(offsets) if vec_add(p, v) in mset))[0]
    return [frozenset(vec_add(p, v) for v in masked_points(offsets, side)) for side in sides]


@lru_cache(maxsize=None)
def _cut_connected(alpha: AdjacencySpec, axes: tuple[int, ...], mask: int) -> bool:
    """Is the occupied part of a cube shape alpha-connected (or empty): does one flood reach every bit?"""
    return next(masked_components(alpha, corners(alpha.n, axes), mask), 0) == mask


def check_manifold(
    m: Iterable[Point], pair: AdjacencyPair, region: Region | None = None
) -> ManifoldReport:
    """Evaluate all certification properties of a finite foreground set."""
    mset = frozenset(m)
    if not mset:
        raise ValueError("the foreground set must be nonempty")
    n = pair.n

    lab = components(pair.alpha, mset)
    if lab.count == 1:
        alpha_connected = Verdict(True)
    else:
        reps = list(lab.sizes())[:2]
        alpha_connected = Verdict(False, {"kind": "alpha-disconnected", "components": [list(r) for r in reps]})

    # only the n-cubes of a disconnected shape are decoded and sorted
    failing = cubes_meeting(mset, n, n, lambda axes, mask: not _cut_connected(pair.alpha, axes, mask))
    cube_connectivity = Verdict(True)
    if failing:
        cube = Cube(*failing[0][:2]).to_json()
        cube_connectivity = Verdict(False, {"kind": "cube-intersection-disconnected", "cube": cube})

    # both local tests read one table entry per shell mask; two-sidedness
    # holds vacuously unless every point has two local sides
    local_two = two_sided = Verdict(True)
    pts = sorted(mset)
    for p, mask in zip(pts, shell_masks(pts, n)):
        sides, one_sided = _shell(pair, mask)
        if len(sides) != 2:
            local_two = Verdict(False, {"kind": "local-component-count", "point": list(p), "count": len(sides)})
            two_sided = Verdict(True)
            break
        if one_sided is not None and two_sided.holds:
            a, k = one_sided
            q, side = vec_add(p, a), [list(vec_add(p, v)) for v in masked_points(shell_offsets(n), sides[k])]
            two_sided = Verdict(False, {"kind": "one-sided-neighbor", "p": list(p), "q": list(q), "side": side})

    separation = has_separation_property(mset, pair, region)

    return ManifoldReport(
        alpha_connected=alpha_connected,
        cube_connectivity=cube_connectivity,
        local_two_components=local_two,
        two_sidedness=two_sided,
        separation=separation,
    )


class NotCertifiedError(ValueError):
    """Raised when an operation requires a certified manifold input."""


def global_sides(
    m: Iterable[Point], pair: AdjacencyPair, report: ManifoldReport | None = None
) -> GlobalSides:
    """Split the neighborhood shell of a certified set into its two sides.

    The shell components are computed by flood fill; every point's local
    side pair, read from one gather of the shell masks, must land in
    distinct shell components, otherwise the certification was
    inconsistent.  The side containing the smallest first-local-component
    point of the smallest foreground point is returned first.
    """
    mset = frozenset(m)
    if report is None:
        report = check_manifold(mset, pair)
    if not report.certified:
        raise NotCertifiedError("global sides are defined only for certified manifolds")
    shell = {vec_add(p, v) for p in mset for v in shell_offsets(pair.n)} - mset
    labels = components(pair.beta, shell)
    comps = labels.components()
    if len(comps) != 2:
        raise RuntimeError(
            f"certified set has {len(comps)} shell components; certification inconsistent"
        )
    pts = sorted(mset)
    # the shell component of each local side's smallest point, its lowest bit
    offs, masks = shell_offsets(pair.n), shell_masks(pts, pair.n)
    sides = [[labels[vec_add(p, offs[(s & -s).bit_length() - 1])] for s in _shell(pair, k)[0]] for p, k in zip(pts, masks)]
    for p, (c_p, d_p) in zip(pts, sides):
        if c_p == d_p:
            raise RuntimeError(
                f"local sides of {p} fall into one shell component; certification inconsistent"
            )
    first = sides[0][0]
    (second,) = comps.keys() - {first}
    return GlobalSides(comps[first], comps[second])


def is_simple_point(
    p: Point,
    m: Iterable[Point],
    pair: AdjacencyPair,
    region: Region | None = None,
) -> bool:
    """True iff deleting p changes neither side's component count.

    The background side is decided from the one labeling of region \\ m.
    Let k be the number of distinct labels among p's beta-neighbours.
    Moving p into the background joins those k components and p itself
    into one, so the count changes by 1 - k (by +1 when k = 0): it is
    unchanged iff k == 1.  This is exact because p lies strictly inside
    the region, so every beta-neighbour of p is either in m or labeled,
    and because the boundary-touching components already share one id,
    just as they would after the move.  Only when k == 1 are the two
    alpha-labelings of m and m \\ {p} compared.  The labeling is the
    one the region memoizes, so repeated tests in one window share it.
    """
    mset = frozenset(m)
    if p not in mset:
        raise ValueError(f"{p} is not a foreground point")
    if region is None:  # a given window checks the set once, as it labels it
        require_dimension(mset, pair.n)
        region = Region.around(mset, margin=2)
    if len(region.complement(pair.beta, mset).ids_near(pair.beta, p)) != 1:
        return False
    return components(pair.alpha, mset).count == components(pair.alpha, mset - {p}).count


def double_points(z: Point, pair: AdjacencyPair) -> list[dict]:
    """Exhaustive search for crossing configurations around one point: a
    foreground edge p-q crossing a background edge z-r inside one square.

    Each candidate (p a beta-neighbour of z, q an axis neighbour of z,
    tau = q - p, r = z - tau) is kept when its replay accepts it; the
    replay requires q to be an alpha-neighbour of p."""
    out = []
    axis = sorted(neighbors(axis_adjacency(pair.n), z))
    for p in sorted(neighbors(pair.beta, z)):
        for q in axis:
            tau = vec_sub(q, p)
            w = {"z": z, "p": p, "q": q, "r": vec_sub(z, tau), "tau": tau}
            if _replay_double_point(w, None, pair, None):
                out.append({"kind": "double-point", **{k: list(v) for k, v in w.items()}})
    return out


@dataclass(frozen=True)
class GoodPairReport:
    verdict: Literal["yes", "no", "unknown"]
    separating: Literal["yes", "no", "unknown"]
    contractibility: Literal["yes", "unknown", "skipped"]
    double_point_witnesses: tuple[dict, ...]
    sphere_report: ManifoldReport

    def witnesses(self) -> list[dict]:
        return [*self.double_point_witnesses, *self.sphere_report.witnesses()]

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "separating": self.separating,
            "contractibility": self.contractibility,
            "double_points": list(self.double_point_witnesses),
            "sphere_certified": self.sphere_report.certified,
        }


def is_separating_pair(
    pair: AdjacencyPair, bound: int = 2, budget: int = DEFAULT_BUDGET
) -> Literal["yes", "no", "unknown"]:
    """Is the background neighborhood of the origin a digital sphere?"""
    return is_good_pair(pair, bound, budget).separating


def is_good_pair(
    pair: AdjacencyPair, bound: int = 2, budget: int = DEFAULT_BUDGET
) -> GoodPairReport:
    """Separating pair with no double points; "unknown" only propagates
    from the bounded contractibility search.

    The pair separates when the background neighborhood of the origin is a
    digital sphere: it certifies, and the bounded search contracts every
    cycle of it.  Translation invariance of the offset sets makes the
    origin check sufficient.
    """
    doubles = tuple(double_points((0,) * pair.n, pair))
    sphere = pair.beta.offsets  # the origin's neighbours
    report = check_manifold(sphere, pair)
    if report.certified:
        separating = contractibility = n_simply_connected_bounded(pair.alpha, sphere, bound, budget)
    else:
        separating, contractibility = "no", "skipped"
    verdict = "no" if doubles else separating
    return GoodPairReport(verdict, separating, contractibility, doubles, report)


def is_regular_rotation(spec: AdjacencySpec) -> bool:
    """Offset-set invariance under every signed axis permutation."""
    offsets = spec.offsets
    for perm in itertools.permutations(range(spec.n)):
        for signs in itertools.product((1, -1), repeat=spec.n):
            image = frozenset(
                tuple(signs[i] * v[perm[i]] for i in range(spec.n)) for v in offsets
            )
            if image != offsets:
                return False
    return True


def _replay_alpha_disconnected(w: dict, mset, pair: AdjacencyPair, region) -> bool:
    ids = components(pair.alpha, mset).sizes().keys()
    reps = {tuple(r) for r in w["components"]}
    return len(w["components"]) == len(reps) == 2 and reps <= ids


def _replay_cube_disconnected(w: dict, mset, pair: AdjacencyPair, region) -> bool:
    c = Cube.from_json(w["cube"])
    return c.dim == pair.n and not _cut_connected(pair.alpha, c.axes, occupancy(c, mset))


def _replay_local_count(w: dict, mset, pair: AdjacencyPair, region) -> bool:
    p, count = tuple(w["point"]), w["count"]
    return p in mset and count != 2 and len(local_components(p, mset, pair)) == count


def _replay_one_sided(w: dict, mset, pair: AdjacencyPair, region) -> bool:
    p, q = tuple(w["p"]), tuple(w["q"])
    side = frozenset(map(tuple, w["side"]))
    return (
        p in mset
        and q in mset
        and pair.alpha.adjacent(p, q)
        and side in local_components(p, mset, pair)
        and not any(pair.beta.adjacent(q, x) for x in side)
    )


def _replay_double_point(w: dict, mset, pair: AdjacencyPair, region) -> bool:
    """Replay the defining conditions of the configuration."""
    z, p, q, r, tau = (tuple(w[k]) for k in ("z", "p", "q", "r", "tau"))
    alpha, beta, axis = pair.alpha, pair.beta, axis_adjacency(pair.n)
    return (
        beta.adjacent(z, p)
        and axis.adjacent(z, q)
        and alpha.adjacent(p, q)
        and beta.adjacent(z, r)
        # p, r axis-adjacent follows: r - p = z - q by the translations, and z, q are
        and vec_add(p, tau) == q
        and vec_add(r, tau) == z
        and alpha.adjacent(r, q)
        # tau simple (gcd 1) follows: tau = q - p, an alpha offset, and every
        # offset is a nonzero king move, so some entry of tau is +-1
    )


REPLAYS = {
    "alpha-disconnected": _replay_alpha_disconnected,
    "cube-intersection-disconnected": _replay_cube_disconnected,
    "local-component-count": _replay_local_count,
    "one-sided-neighbor": _replay_one_sided,
    "double-point": _replay_double_point,
}
