import itertools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from digitop import pseudomanifold, simplicial
from digitop.adjacency import AdjacencyPair, axis_adjacency, full_adjacency
from digitop.cli import main
from digitop.fileio import format_points
from digitop.jordan import box_surface, rect_boundary
from digitop.pseudomanifold import is_pseudomanifold
from digitop.simplicial import SimplicialComplex, build_complex, build_complexes, reduce_complex
from test_simplicial import complexes_with_an_extra_simplex

AXIS_FULL_2 = AdjacencyPair(axis_adjacency(2), full_adjacency(2))
FULL_AXIS_2 = AdjacencyPair(full_adjacency(2), axis_adjacency(2))
AXIS_FULL_3 = AdjacencyPair(axis_adjacency(3), full_adjacency(3))


def reduced(m, pair):
    return reduce_complex(build_complex(m, pair), m, pair)


def test_ring_reduction_is_a_circle_pseudomanifold():
    k = reduced(rect_boundary(5, 5), AXIS_FULL_2)
    report = is_pseudomanifold(k, 1)
    assert report.all_hold


def test_box_reduction_is_a_sphere_pseudomanifold():
    k = reduced(box_surface(3, 3, 3), AXIS_FULL_3)
    report = is_pseudomanifold(k, 2)
    assert report.all_hold


def test_dangling_vertex_breaks_homogeneity():
    k = SimplicialComplex.of(2, [((0, 0),), ((4, 4),), ((0, 0), (1, 1)), ((1, 1),)])
    verdict = is_pseudomanifold(k, 1).homogeneous
    assert not verdict.holds
    assert verdict.witness["simplex"] == [[4, 4]]


def test_empty_complex_is_vacuous():
    k = SimplicialComplex.of(2, ())
    assert is_pseudomanifold(k, 1).all_hold


def test_unreduced_triangle_complex_is_not_homogeneous_at_one():
    m = {(0, 0), (1, 0), (1, 1)}
    k = build_complex(m, FULL_AXIS_2)
    verdict = is_pseudomanifold(k, 1).homogeneous
    assert not verdict.holds  # the 2-simplices are their own witnesses


def test_open_arc_is_degenerate():
    # an open polyline: endpoints have one coface
    k = SimplicialComplex.of(
        2,
        frozenset(
            [
                ((0, 0),),
                ((1, 0),),
                ((2, 0),),
                ((0, 0), (1, 0)),
                ((1, 0), (2, 0)),
            ]
        ),
    )
    verdict = is_pseudomanifold(k, 1).nondegenerate
    assert not verdict.holds
    assert verdict.witness["cofaces"] == 1


def test_three_edges_at_a_vertex_are_degenerate():
    k = SimplicialComplex.of(
        2,
        frozenset(
            [
                ((0, 0),),
                ((2, 0),),
                ((0, 2),),
                ((2, 2),),
                ((0, 0), (2, 0)),
                ((0, 0), (0, 2)),
                ((0, 0), (2, 2)),
            ]
        ),
    )
    verdict = is_pseudomanifold(k, 1).nondegenerate
    assert not verdict.holds
    assert verdict.witness["cofaces"] == 3


def test_two_disjoint_edges_are_not_strongly_connected():
    k = SimplicialComplex.of(
        2,
        frozenset(
            [
                ((0, 0),),
                ((2, 0),),
                ((6, 0),),
                ((8, 0),),
                ((0, 0), (2, 0)),
                ((6, 0), (8, 0)),
            ]
        ),
    )
    verdict = is_pseudomanifold(k, 1).strongly_connected
    assert not verdict.holds
    assert verdict.witness == {
        "kind": "strong-connectivity",
        "simplex": [[0, 0], [2, 0]],
        "other": [[6, 0], [8, 0]],
    }


def test_single_top_simplex_is_strongly_connected():
    k = SimplicialComplex.of(
        2, frozenset([((0, 0),), ((2, 0),), ((0, 0), (2, 0))])
    )
    assert is_pseudomanifold(k, 1).strongly_connected.holds


def test_circle_dual_graph_is_two_regular():
    k = reduced(rect_boundary(4, 4), AXIS_FULL_2)
    assert is_pseudomanifold(k, 1).nondegenerate.holds  # every vertex on exactly two edges


def is_homogeneous_oracle(k, d):
    """Reference: each simplex in sorted order against every top simplex at
    its first vertex; the first one outside them all is the witness."""
    top = [s for s in k.simplices if len(s) == d + 1]
    by_vertex: dict = {}
    for t in top:
        for v in t:
            by_vertex.setdefault(v, []).append(t)
    for s in sorted(k.simplices):
        if len(s) - 1 > d:
            return False, {"kind": "homogeneity", "simplex": [list(v) for v in s]}
        vset = set(s)
        candidates = by_vertex.get(s[0], [])
        if not any(vset <= set(t) for t in candidates):
            return False, {"kind": "homogeneity", "simplex": [list(v) for v in s]}
    return True, None


@given(complexes_with_an_extra_simplex())
@settings(max_examples=40, deadline=None)
def test_homogeneity_matches_the_oracle_with_an_extra_simplex(k):
    for d in range(1, k.n + 1):
        verdict = is_pseudomanifold(k, d).homogeneous
        assert (verdict.holds, verdict.witness) == is_homogeneous_oracle(k, d)


def is_strongly_connected_oracle(k, d):
    """Reference: a depth-first search of the dual graph from the smallest
    top simplex, with the first one it misses as the witness."""
    top = sorted(s for s in k.simplices if len(s) == d + 1)
    if len(top) <= 1:
        return True, None
    seen = {top[0]}
    stack = [top[0]]
    while stack:
        t = stack.pop()
        for other in top:
            if other not in seen and len(set(t) & set(other)) == d:
                seen.add(other)
                stack.append(other)
    stranded = next((t for t in top if t not in seen), None)
    if stranded is None:
        return True, None
    return False, {
        "kind": "strong-connectivity",
        "simplex": [list(v) for v in top[0]],
        "other": [list(v) for v in stranded],
    }


def is_nondegenerate_oracle(k, d):
    """Reference: each (d-1)-simplex in sorted order, with the d-simplices
    that contain it counted by brute force; the first count other than two
    is the witness."""
    top = [set(t) for t in k.simplices if len(t) == d + 1]
    for s in sorted(s for s in k.simplices if len(s) == d):
        count = sum(1 for t in top if t.issuperset(s))
        if count != 2:
            return False, {"kind": "nondegeneracy", "simplex": [list(v) for v in s], "cofaces": count}
    return True, None


@given(complexes_with_an_extra_simplex())
@settings(max_examples=40, deadline=None)
def test_nondegeneracy_and_strong_connectivity_match_the_oracles_with_an_extra_simplex(k):
    for d in range(1, k.n + 1):
        report = is_pseudomanifold(k, d)
        assert (report.nondegenerate.holds, report.nondegenerate.witness) == is_nondegenerate_oracle(k, d)
        verdict = report.strongly_connected
        assert (verdict.holds, verdict.witness) == is_strongly_connected_oracle(k, d)


@st.composite
def boxed_sets(draw):
    """A random subset of a 4x4 or 3x3x3 box, translated, under one of the
    four axis/full pairs."""
    sides = draw(st.sampled_from([(4, 4), (3, 3, 3)]))
    cells = sorted(itertools.product(*(range(s) for s in sides)))
    chosen = draw(st.frozensets(st.sampled_from(cells)))
    shift = draw(st.tuples(*[st.integers(-5, 5)] * len(sides)))
    n = len(sides)
    alpha = draw(st.sampled_from((axis_adjacency, full_adjacency)))(n)
    beta = draw(st.sampled_from((axis_adjacency, full_adjacency)))(n)
    m = frozenset(tuple(a + b for a, b in zip(p, shift)) for p in chosen)
    return m, AdjacencyPair(alpha, beta)


@given(boxed_sets())
@settings(max_examples=40, deadline=None)
def test_strong_connectivity_matches_the_oracle(case):
    m, pair = case
    k = build_complex(m, pair)
    for c in (k, reduce_complex(k, m, pair)):
        verdict = is_pseudomanifold(c, pair.n - 1).strongly_connected
        assert (verdict.holds, verdict.witness) == is_strongly_connected_oracle(c, pair.n - 1)


@given(boxed_sets())
@settings(max_examples=40, deadline=None)
def test_nondegeneracy_matches_the_oracle(case):
    m, pair = case
    full, reduced = build_complexes(m, pair)
    for c in (full, reduced):
        verdict = is_pseudomanifold(c, pair.n - 1).nondegenerate
        assert (verdict.holds, verdict.witness) == is_nondegenerate_oracle(c, pair.n - 1)


def test_replay_builds_the_complex_once_for_all_witnesses(tmp_path, monkeypatch):
    block = set(itertools.product(range(4), range(4), range(3)))
    block -= {(0, 0, 0), (1, 2, 1), (3, 3, 2)}
    points, report = tmp_path / "block.txt", tmp_path / "report.json"
    points.write_text(format_points(block), encoding="utf-8")
    common = ["--points", str(points), "--alpha", "axis", "--beta", "full"]
    assert main(["check-pseudomanifold", *common, "--format", "json", "-o", str(report)]) == 1
    witnesses = json.loads(report.read_text(encoding="utf-8"))["witnesses"]
    assert [w["kind"] for w in witnesses] == ["homogeneity", "nondegeneracy"]

    calls = []
    enumerate_chains = simplicial._order_complex

    def counting_enumeration(*args, **kwargs):
        calls.append(args)
        return enumerate_chains(*args, **kwargs)

    monkeypatch.setattr(simplicial, "_order_complex", counting_enumeration)
    pseudomanifold._fresh_witnesses.cache_clear()
    assert main(["check-pseudomanifold", *common, "--replay", str(report)]) == 1
    assert len(calls) == 1
