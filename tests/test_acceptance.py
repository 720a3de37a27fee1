"""Acceptance battery: one check per criterion, one pass/fail line each.

Every expected value is exact (combinatorial counts, component counts,
characteristic values); there are no tolerances anywhere.  The Z^2 and Z^3
corpus instances run under the pair alpha=axis, beta=full, the good pair
the pipeline itself certifies (criterion 3 records the full pair table).
Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
"""

import itertools
import json
import random
from functools import lru_cache

from digitop.adjacency import (
    AdjacencyPair,
    axis_adjacency,
    components,
    full_adjacency,
    neighbors,
)
from digitop.cli import main
from digitop.jordan import box_surface, jordan_check, rect_boundary
from digitop.lattice import Cube, bounding_box, cube_vertices
from digitop.manifold import REPLAYS, check_manifold, global_sides, is_good_pair
from digitop.pseudomanifold import is_pseudomanifold
from digitop.separation import beta_neighbor_lower_bound
from digitop.simplicial import (
    build_complex,
    euler_characteristic,
    lattice_correspondence,
    reduce_complex,
    skeleton_components,
    verify_complex_axioms,
)


def _pair(n: int) -> AdjacencyPair:
    return AdjacencyPair(axis_adjacency(n), full_adjacency(n))


CORPUS = (
    ("rect_boundary(5,5)", rect_boundary(5, 5), 2, 9),
    ("rect_boundary(7,3)", rect_boundary(7, 3), 2, 5),
    ("box_surface(3,3,3)", box_surface(3, 3, 3), 3, 1),
    ("box_surface(5,4,3)", box_surface(5, 4, 3), 3, 6),
)


@lru_cache(maxsize=None)
def corpus_report(name: str):
    instance = {label: (m, n) for label, m, n, _ in CORPUS}[name]
    m, n = instance
    return check_manifold(m, _pair(n))


@lru_cache(maxsize=None)
def corpus_complexes(name: str):
    instance = {label: (m, n) for label, m, n, _ in CORPUS}[name]
    m, n = instance
    full = build_complex(m, _pair(n))
    reduced = reduce_complex(full, m, _pair(n))
    return full, reduced


def _criterion(num: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}: {description}")
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"criterion {num}: {failures}"


def test_criterion_01_neighborhood_cardinalities():
    failures = []
    for n in (2, 3, 4):
        p = tuple(range(n))
        if len(neighbors(axis_adjacency(n), p)) != 2 * n:
            failures.append(f"axis count wrong in dimension {n}")
        if len(neighbors(full_adjacency(n), p)) != 3**n - 1:
            failures.append(f"full count wrong in dimension {n}")
    _criterion(1, "neighborhood cardinalities 2n and 3^n-1 for n in 2..4", failures)


def test_criterion_02_axis_connectivity():
    failures = []
    for n in (2, 3, 4):
        shell = neighbors(full_adjacency(n), (0,) * n)
        if components(axis_adjacency(n), shell).count != 1:
            failures.append(f"full neighborhood not axis-connected in dimension {n}")
        box = set(itertools.product(range(5), repeat=n))
        if components(axis_adjacency(n), box).count != 1:
            failures.append(f"5^{n} box not axis-connected")
    _criterion(2, "full neighborhoods and 5^n boxes are axis-connected, exhaustive", failures)


def test_criterion_03_good_pair_table():
    # table entries are (background, foreground) numerals: 4 = axis, 8 = full;
    # this is the reading consistent with the manifold corpus criteria
    failures = []
    ax, full = axis_adjacency(2), full_adjacency(2)

    r48 = is_good_pair(AdjacencyPair(alpha=full, beta=ax), bound=2)
    print("    (4,8) = alpha full, beta axis ->", r48.verdict)
    if r48.verdict != "yes":
        failures.append(f"(4,8) expected yes, got {r48.verdict}")

    r84 = is_good_pair(AdjacencyPair(alpha=ax, beta=full), bound=2)
    print("    (8,4) = alpha axis, beta full -> recorded:", r84.verdict,
          f"(separating={r84.separating}, contractibility={r84.contractibility})")
    if r84.verdict == "unknown":
        if not (r84.sphere_report.certified and r84.contractibility == "unknown"):
            failures.append("(8,4) unknown but not only on contractibility")
        confirm = is_good_pair(AdjacencyPair(alpha=ax, beta=full), bound=4)
        print("    (8,4) at rewrite bound 4 ->", confirm.verdict)
        if confirm.verdict != "yes":
            failures.append("(8,4) did not confirm yes at rewrite bound 4")
    elif r84.verdict != "yes":
        failures.append(f"(8,4) expected yes or unknown, got {r84.verdict}")

    r88 = is_good_pair(AdjacencyPair(alpha=full, beta=full))
    if r88.verdict != "no" or not r88.double_point_witnesses:
        failures.append("(8,8) expected no with a double-point witness")
    elif not all(
        REPLAYS["double-point"](w, None, AdjacencyPair(alpha=full, beta=full), None) for w in r88.double_point_witnesses
    ):
        failures.append("(8,8) double-point witnesses do not replay")

    r44 = is_good_pair(AdjacencyPair(alpha=ax, beta=ax))
    if r44.verdict != "no":
        failures.append(f"(4,4) expected no, got {r44.verdict}")

    _criterion(3, "good-pair table for the plane with replaying witnesses", failures)


def test_criterion_04_manifold_certification_and_deletions():
    failures = []
    for name, m, n, _ in CORPUS:
        report = corpus_report(name)
        if not report.certified:
            failures.append(f"{name} not certified: {report.to_json()}")
            continue
        for verdict_name, verdict in (
            ("cube connectivity", report.cube_connectivity),
            ("local two components", report.local_two_components),
            ("two-sidedness", report.two_sidedness),
        ):
            if not verdict.holds:
                failures.append(f"{name}: {verdict_name} fails")
        if not report.separation.holds:
            failures.append(f"{name}: separation fails")
        pair = _pair(n)
        for p in sorted(m):
            if check_manifold(m - {p}, pair).certified:
                failures.append(f"{name}: deleting {p} kept certification")
    _criterion(4, "corpus certifies and every single-point deletion breaks it", failures)


def test_criterion_05_two_global_sides_with_closed_forms():
    failures = []
    for name, m, n, interior in CORPUS:
        report = corpus_report(name)
        if not report.certified:
            failures.append(f"{name} not certified")
            continue
        sides = global_sides(m, _pair(n), report)
        total = set(sides.c_side) | set(sides.d_side)
        if not (sides.c_side and sides.d_side and sides.c_side.isdisjoint(sides.d_side)):
            failures.append(f"{name}: shell sides not a two-part partition")
        shell = set()
        for p in m:
            shell |= neighbors(full_adjacency(n), p)
        shell -= set(m)
        if total != shell:
            failures.append(f"{name}: shell sides do not cover the neighborhood shell")
        jr = jordan_check(m, _pair(n), report=report)
        if jr.inside_size != interior:
            failures.append(f"{name}: interior {jr.inside_size} != closed form {interior}")
    _criterion(5, "exactly two shell sides; interior sizes match closed forms", failures)


def test_criterion_06_pseudomanifold_pipeline():
    failures = []
    # the corpus pair must itself be a certified good pair in each dimension
    for n, bound in ((2, 4), (3, 2)):
        verdict = is_good_pair(_pair(n), bound=bound, budget=200_000).verdict
        if verdict != "yes":
            failures.append(f"corpus pair not certified good in dimension {n}: {verdict}")
    for name, m, n, _ in CORPUS:
        if not corpus_report(name).certified:
            failures.append(f"{name} not certified")
            continue
        _, reduced = corpus_complexes(name)
        report = is_pseudomanifold(reduced, n - 1)
        if not report.all_hold:
            failures.append(f"{name}: {report.to_json()}")
    _criterion(6, "reduced complexes are (n-1)-pseudomanifolds, zero failures", failures)


def test_criterion_07_euler_characteristics():
    failures = []
    for name, m, n, _ in CORPUS:
        _, reduced = corpus_complexes(name)
        expected = 0 if n == 2 else 2
        chi = euler_characteristic(reduced)
        if chi != expected:
            failures.append(f"{name}: chi {chi} != {expected}")
    point = build_complex({(0, 0)}, _pair(2))
    if euler_characteristic(point) != 1:
        failures.append("single point: chi != 1")
    _criterion(7, "characteristic 0 for rings, 2 for box surfaces, 1 for a point", failures)


def test_criterion_08_jordan_battery():
    failures = []
    for name, m, n, interior in CORPUS:
        report = corpus_report(name)
        if not report.certified:
            failures.append(f"{name} not certified")
            continue
        at2 = jordan_check(m, _pair(n), margin=2, report=report)
        at4 = jordan_check(m, _pair(n), margin=4, report=report)
        if not at2.all_true:
            failures.append(f"{name}: jordan fails at margin 2: {at2.to_json()}")
        if (at2.all_true, at2.component_count, at2.inside_size) != (
            at4.all_true,
            at4.component_count,
            at4.inside_size,
        ):
            failures.append(f"{name}: margin 2 vs 4 disagree")
        if at2.component_count != 2 or at2.inside_size != interior:
            failures.append(f"{name}: complement statistics wrong")
    _criterion(8, "jordan verdicts all-true and margin-invariant on the corpus", failures)


def _random_chain(rng: random.Random, lo, hi, n: int) -> list[Cube]:
    base = tuple(rng.randint(lo[i], hi[i]) for i in range(n))
    axes_order = list(range(n))
    rng.shuffle(axes_order)
    chain = [Cube(base, ())]
    for axis in axes_order:
        prev = chain[-1]
        new_base = list(prev.base)
        if rng.random() < 0.5:
            new_base[axis] -= 1
        chain.append(Cube(tuple(new_base), tuple(sorted(prev.axes + (axis,)))))
    return chain


def test_criterion_09_component_counts_along_cube_chains():
    rng = random.Random(90_125)
    failures = []
    z3 = [(name, m) for name, m, n, _ in CORPUS if n == 3]
    pair = _pair(3)
    for _ in range(200):
        name, m = z3[rng.randrange(len(z3))]
        lo, hi = bounding_box(m)
        lo = tuple(c - 1 for c in lo)
        hi = tuple(c + 1 for c in hi)
        chain = _random_chain(rng, lo, hi, 3)
        counts = []
        for cube in chain:
            free = [v for v in cube_vertices(cube) if v not in m]
            counts.append(components(pair.beta, free).count if free else 0)
        for a, b in zip(counts, counts[1:]):
            if b < a - 1:
                failures.append(f"{name}: counts {counts} drop by more than one")
                break
    _criterion(9, "background counts drop at most one along 200 random cube chains", failures)


def test_criterion_10_background_contact_lower_bound():
    rng = random.Random(90_126)
    failures = []
    z3 = [(name, m) for name, m, n, _ in CORPUS if n == 3]
    pair = _pair(3)
    samples = 0
    while samples < 500:
        name, m = z3[rng.randrange(len(z3))]
        lo, hi = bounding_box(m)
        k = rng.randint(1, 3)
        axes = tuple(sorted(rng.sample(range(3), k)))
        base = tuple(rng.randint(lo[i] - 1, hi[i]) for i in range(3))
        cube = Cube(base, axes)
        free = [v for v in cube_vertices(cube) if v not in m]
        if not free:
            continue
        for comp in components(pair.beta, free).components().values():
            samples += 1
            bound = beta_neighbor_lower_bound(k, len(comp))
            contacts = set()
            for p in comp:
                contacts |= {q for q in neighbors(pair.beta, p) if q in m}
            if len(contacts) < bound:
                failures.append(
                    f"{name}: component {sorted(comp)} in {cube} has "
                    f"{len(contacts)} contacts < bound {bound}"
                )
            if samples >= 500:
                break
    _criterion(10, "500 random background components meet the contact lower bound", failures)


def test_criterion_11_complex_axioms_and_correspondences():
    failures = []
    for name, m, n, _ in CORPUS:
        full, reduced = corpus_complexes(name)
        for label, complex_ in (("K", full), ("K'", reduced)):
            ok, witness = verify_complex_axioms(complex_)
            if not ok:
                failures.append(f"{name} {label}: axioms fail: {witness}")
        if euler_characteristic(full) != euler_characteristic(reduced):
            failures.append(f"{name}: characteristic changes under reduction")
        if skeleton_components(full).count != skeleton_components(reduced).count:
            failures.append(f"{name}: component count changes under reduction")
        if any(len(s) == n + 1 for s in reduced.simplices):
            failures.append(f"{name}: reduced complex contains a top-dimension simplex")
        ok, witness = lattice_correspondence(full, m)
        if not ok:
            failures.append(f"{name}: lattice correspondence fails: {witness}")
    _criterion(11, "complex axioms, reduction surrogates and lattice correspondence", failures)


def test_criterion_12_cli_determinism(tmp_path, capsys):
    failures = []
    points = tmp_path / "ring.txt"
    main(["generate", "--kind", "rect-boundary", "--params", "5", "5", "-o", str(points)])
    runs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(
            ["jordan", "--points", str(points), "--alpha", "axis", "--beta", "full",
             "--format", "json", "-o", str(out)]
        )
        text = out.read_bytes()
        # normalize the only legitimately differing field, the output path
        payload = json.loads(text)
        payload["config"]["output"] = None
        runs.append((code, json.dumps(payload, sort_keys=True)))
    if runs[0] != runs[1]:
        failures.append("jordan reports differ between identical runs")
    capsys.readouterr()
    gp = []
    for _ in range(2):
        code = main(["good-pair", "--n", "2", "--alpha", "full", "--beta", "full", "--format", "json"])
        gp.append((code, capsys.readouterr().out))
    if gp[0] != gp[1]:
        failures.append("good-pair reports differ between identical runs")
    _criterion(12, "identical inputs produce byte-identical reports", failures)
