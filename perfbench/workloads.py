"""Seeded job lists for the three benchmark workloads.

Every workload has a finite *universe* of canonical jobs (untranslated
inputs) and a seeded *draw* that picks the jobs of one pass from it.  The
golden expectations cover the whole universe, so every seed is checked, not
only the default one.  A drawn input is shifted by a seeded translation
before it is written; reports are mapped back by that translation before
they are compared (see ``run.normalize``).

The point-set generators are re-implemented here, not imported from the
program, so that the inputs stay byte-identical whatever the program does.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

AF = ("axis", "full")
FA = ("full", "axis")


def rect_boundary(w: int, h: int) -> frozenset:
    return frozenset(
        (x, y) for x in range(w) for y in range(h) if x in (0, w - 1) or y in (0, h - 1)
    )


def box_surface(w: int, h: int, d: int) -> frozenset:
    return frozenset(
        (x, y, z)
        for x in range(w)
        for y in range(h)
        for z in range(d)
        if x in (0, w - 1) or y in (0, h - 1) or z in (0, d - 1)
    )


def sphere_shell(radius: int, n: int) -> frozenset:
    top = radius + 1
    lo, hi = (radius - 1) ** 2, (2 * radius + 1) ** 2
    return frozenset(
        p
        for p in itertools.product(range(-top, top + 1), repeat=n)
        if lo < sum(c * c for c in p) and 4 * sum(c * c for c in p) <= hi
    )


SHAPES = {"rect_boundary": rect_boundary, "box_surface": box_surface, "sphere_shell": sphere_shell}


@dataclass(frozen=True)
class Shape:
    """A generated point set, optionally with one point deleted."""

    kind: str
    params: tuple[int, ...]
    deleted: tuple[int, ...] | None = None

    def points(self) -> frozenset:
        pts = SHAPES[self.kind](*self.params)
        return pts - {self.deleted} if self.deleted else pts

    @property
    def dim(self) -> int:
        return len(next(iter(SHAPES[self.kind](*self.params))))

    @property
    def label(self) -> str:
        out = f"{self.kind}({','.join(map(str, self.params))})"
        if self.deleted:
            out += f"-({','.join(map(str, self.deleted))})"
        return out


@dataclass(frozen=True)
class Job:
    """One closed-loop request: a CLI invocation or a library call.

    ``command`` is a digitop subcommand, ``"replay"`` (``verify-manifold
    --replay`` on the report the preceding verify-manifold job wrote) or
    ``"library"`` (build K and K', then ``verify_complex_axioms(K')`` and
    ``lattice_correspondence(K, M)``, which have no subcommand).
    """

    command: str
    shape: Shape | None
    pair: tuple[str, str]
    n: int | None = None  # good-pair only; otherwise the shape's dimension
    largest: bool = False

    @property
    def key(self) -> str:
        what = self.shape.label if self.shape else f"n={self.n}"
        return f"{self.command} {what} {self.pair[0]}/{self.pair[1]}"

    def argv(self, points: str | None, report: str | None) -> list[str]:
        alpha, beta = self.pair
        if self.command == "good-pair":
            return [
                "good-pair", "--n", str(self.n), "--alpha", alpha, "--beta", beta,
                "--format", "json",
            ]
        common = ["--points", points, "--alpha", alpha, "--beta", beta]
        if self.command == "verify-manifold":
            return ["verify-manifold", *common, "--format", "json", "-o", report]
        if self.command == "replay":
            return ["verify-manifold", *common, "--replay", report]
        return [self.command, *common, "--format", "json"]


def _perms(sides: tuple[int, ...]) -> list[tuple[int, ...]]:
    return sorted(set(itertools.permutations(sides)))


def _pair_jobs(shape: Shape, pair, largest: bool = False) -> list[Job]:
    """verify-manifold writing a report, then the replay of that report."""
    return [Job("verify-manifold", shape, pair, largest=largest), Job("replay", shape, pair)]


# certify: rect sides from [9, 25] with w + h = 34, so the seed changes which
# rectangles run but barely changes the work of a pass.  A (3,3,4) box takes
# half again as long as any such rectangle, so with three of them the median
# job is a (3,3,4) box whatever the seed draws, and a run has several samples
# of it.  The orderings take different times, so every pass runs each of the
# three once, in seeded order (see NOTES.md).
RECT_SUM = 34
CERTIFY_RECTS = 2
MID_BOX = (3, 3, 4)
TOP_BOX = (5, 5, 5)


def certify(rng: random.Random | None) -> list[Job]:
    boxes = _perms(MID_BOX)
    if rng is None:
        rects = range(9, RECT_SUM - 9 + 1)
    else:
        rects = [rng.randint(9, RECT_SUM - 9) for _ in range(CERTIFY_RECTS)]
        rng.shuffle(boxes)
    jobs = [Job("jordan", Shape("rect_boundary", (w, RECT_SUM - w)), AF) for w in rects]
    jobs += [Job("jordan", Shape("box_surface", b), AF) for b in boxes]
    jobs.append(Job("jordan", Shape("box_surface", TOP_BOX), AF, largest=True))
    return jobs


# complex: four library rectangles put the median job in the middle of the
# (4,5,6) box's three jobs, not at the edge next to sphere_shell(3,3)
LIB_RECT_SUM = 26
LIB_RECTS = 4


def complex_(rng: random.Random | None) -> list[Job]:
    if rng is None:
        boxes = _perms((4, 5, 6))
        rects = range(9, LIB_RECT_SUM - 9 + 1)
    else:
        boxes = [tuple(rng.sample((4, 5, 6), 3))]
        rects = [rng.randint(9, LIB_RECT_SUM - 9) for _ in range(LIB_RECTS)]
    inputs = [(Shape("box_surface", b), AF) for b in boxes]
    inputs += [
        (Shape("sphere_shell", (3, 3)), AF),
        (Shape("sphere_shell", (4, 3)), FA),
        (Shape("box_surface", (4, 4, 4)), FA),
    ]
    jobs = [
        Job(cmd, shape, pair)
        for shape, pair in inputs
        for cmd in ("build", "check-pseudomanifold", "euler")
    ]
    jobs += [Job("library", Shape("rect_boundary", (w, LIB_RECT_SUM - w)), AF) for w in rects]
    jobs.append(Job("library", Shape("box_surface", (3, 3, 3)), AF, largest=True))
    return jobs


# witness: fixed shapes with seeded deletions; (shape, pair, deletions per pass).
# Each deletion adds a fast replay and a slower verify-manifold job.  With six
# rectangle deletions the median job falls in the middle of the rectangle
# verify-manifold jobs, not at their edge.  How long a verify-manifold job takes
# depends on where its first failing point comes in sorted order, so one
# deletion is drawn from each of `count` equal slices of the sorted points.
DELETIONS = (
    (Shape("rect_boundary", (12, 8)), AF, 3),
    (Shape("rect_boundary", (10, 10)), FA, 3),
    (Shape("box_surface", (4, 4, 4)), AF, 3),
)


def witness(rng: random.Random | None) -> list[Job]:
    jobs = []
    for base, pair, count in DELETIONS:
        pts = sorted(base.points())
        if rng is None:
            chosen = pts
        else:
            cuts = [len(pts) * i // count for i in range(count + 1)]
            chosen = [pts[rng.randrange(lo, hi)] for lo, hi in zip(cuts, cuts[1:])]
        for p in chosen:
            jobs += _pair_jobs(Shape(base.kind, base.params, p), pair)
    for r in (3, 4):
        for pair in (AF, FA):
            jobs += _pair_jobs(Shape("sphere_shell", (r, 3)), pair, largest=(r, pair) == (4, FA))
    boxes = _perms((3, 4, 5)) if rng is None else [tuple(rng.sample((3, 4, 5), 3))]
    for b in boxes:
        jobs += _pair_jobs(Shape("box_surface", b), FA)
    for n in (2, 3):
        for pair in itertools.product(("axis", "full"), repeat=2):
            jobs.append(Job("good-pair", None, pair, n=n))
    return jobs


WORKLOADS = {"certify": certify, "complex": complex_, "witness": witness}


def universe(workload: str) -> list[Job]:
    """Every job any seed can draw, each once, replays after their reports."""
    return list(dict.fromkeys(WORKLOADS[workload](None)))


def draw(workload: str, seed: int) -> tuple[list[Job], dict[Shape, tuple[int, ...]]]:
    """The jobs of one pass and the translation of every input shape."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = WORKLOADS[workload](rng)
    shifts: dict[Shape, tuple[int, ...]] = {}
    for job in jobs:
        if job.shape is not None and job.shape not in shifts:
            shifts[job.shape] = tuple(rng.randint(-40, 40) for _ in range(job.shape.dim))
    return jobs, shifts
