import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digitop import adjacency, jordan, manifold
from digitop.adjacency import AdjacencyPair, ComponentLabeling, Region, axis_adjacency, full_adjacency, neighbors
from digitop.jordan import (
    GENERATORS,
    REPLAYS,
    JordanReport,
    box_surface,
    jordan_check,
    rect_boundary,
    simple_point_witness,
    sphere_shell,
)
from digitop.lattice import vec_add
from digitop.manifold import ManifoldReport, NotCertifiedError, check_manifold, is_simple_point
from digitop.verdict import Verdict

AXIS_FULL_2 = AdjacencyPair(axis_adjacency(2), full_adjacency(2))
AXIS_FULL_3 = AdjacencyPair(axis_adjacency(3), full_adjacency(3))


def test_rect_boundary_counts():
    assert len(rect_boundary(5, 5)) == 16
    assert len(rect_boundary(7, 3)) == 16


def test_box_surface_counts():
    assert len(box_surface(3, 3, 3)) == 26
    assert len(box_surface(5, 4, 3)) == 5 * 4 * 3 - 3 * 2 * 1


def test_generators_reject_degenerate_parameters():
    with pytest.raises(ValueError):
        rect_boundary(2, 5)
    with pytest.raises(ValueError):
        box_surface(3, 3, 2)
    with pytest.raises(ValueError):
        sphere_shell(1, 2)


def test_generate_dispatch():
    assert GENERATORS["rect-boundary"](5, 5) == rect_boundary(5, 5)
    assert GENERATORS["box-surface"](3, 3, 3) == box_surface(3, 3, 3)
    assert GENERATORS["sphere-shell"](2, 2) == sphere_shell(2, 2)
    assert "torus" not in GENERATORS


def test_sphere_shell_is_a_ring():
    shell = sphere_shell(2, 2)
    assert shell  # nonempty
    assert all(len(p) == 2 for p in shell)
    # membership rule is exact: radius-1 < |p| <= radius+1/2
    for p in shell:
        sq = sum(c * c for c in p)
        assert sq > 1 and 4 * sq <= 25


def test_jordan_ring():
    report = jordan_check(rect_boundary(5, 5), AXIS_FULL_2, margin=2)
    assert report.all_true
    assert report.two_components and report.component_count == 2
    assert report.inside_size == 9
    assert report.outside_flagged


def test_jordan_box():
    report = jordan_check(box_surface(3, 3, 3), AXIS_FULL_3, margin=2)
    assert report.all_true
    assert report.inside_size == 1


def test_jordan_interior_closed_forms():
    for w, h in [(5, 5), (7, 3)]:
        report = jordan_check(rect_boundary(w, h), AXIS_FULL_2)
        assert report.inside_size == (w - 2) * (h - 2)


def test_jordan_margin_invariance():
    ring = rect_boundary(5, 5)
    a = jordan_check(ring, AXIS_FULL_2, margin=2)
    b = jordan_check(ring, AXIS_FULL_2, margin=4)
    assert (a.all_true, a.two_components, a.inside_size) == (
        b.all_true,
        b.two_components,
        b.inside_size,
    )


def test_jordan_refuses_uncertified():
    arc = {(0, 0), (1, 1), (2, 2)}  # open diagonal arc
    with pytest.raises(NotCertifiedError):
        jordan_check(arc, AdjacencyPair(full_adjacency(2), axis_adjacency(2)))


def test_jordan_rejects_small_margin():
    with pytest.raises(ValueError):
        jordan_check(rect_boundary(5, 5), AXIS_FULL_2, margin=1)


def test_jordan_accepts_precomputed_report():
    ring = rect_boundary(5, 5)
    report = check_manifold(ring, AXIS_FULL_2)
    assert jordan_check(ring, AXIS_FULL_2, report=report).all_true


def test_jordan_report_adds_the_component_terms_to_its_verdicts():
    # a certified set always gives two components and a flagged outside, so
    # only a report built by hand shows that the conjunction reads them
    simple = {"kind": "simple-point", "point": [0, 0]}
    report = JordanReport(False, 3, 4, True, Verdict(True), Verdict(False, simple))
    assert [name for name, _ in report.verdicts()] == ["common_boundary", "no_simple_points"]
    assert report.witnesses() == [{"kind": "component-count", "count": 3}, simple]
    assert report.to_json() == {
        "all_true": False,
        "two_components": False,
        "component_count": 3,
        "inside_size": 4,
        "outside_flagged": True,
        "common_boundary": {"holds": True, "witness": None},
        "no_simple_points": {"holds": False, "witness": simple},
    }
    for two, flagged in ((False, True), (True, False), (True, True)):
        report = JordanReport(two, 2, 4, flagged, Verdict(True), Verdict(True))
        assert report.all_true is report.holds is (two and flagged)
        assert report.witnesses() == ([] if two else [{"kind": "component-count", "count": 2}])


def jordan_check_two_scans(m, pair, margin=2, report=None):
    """``jordan_check`` as it was before its one scan: the component sets are
    collected, and each point's beta-neighbour ids are read once for the
    common boundary and again inside ``is_simple_point``."""
    mset = frozenset(m)
    region = Region.around(mset, margin)
    if report is None:
        report = check_manifold(mset, pair, region)
    if not report.certified:
        raise NotCertifiedError("jordan check requires a certified manifold")
    labeling = region.complement(pair.beta, mset)
    comps = labeling.components()
    two = len(comps) == 2
    inside_size = 0
    outside_flagged = False
    for cid, pts in comps.items():
        if cid in labeling.infinite_ids:
            outside_flagged = True
        else:
            inside_size = len(pts)
    common = Verdict(True)
    if two:
        ids = sorted(comps)
        for p in sorted(mset):
            reached = {labeling.labels[q] for q in neighbors(pair.beta, p) if q in labeling.labels}
            missing = [cid for cid in ids if cid not in reached]
            if missing:
                witness = {"kind": "not-common-boundary", "point": list(p), "missing_component": list(missing[0])}
                common = Verdict(False, witness)
                break
    no_simple = Verdict(True)
    for p in sorted(mset):
        if is_simple_point(p, mset, pair, region):
            no_simple = Verdict(False, simple_point_witness(p))
            break
    return JordanReport(two, len(comps), inside_size, outside_flagged, common, no_simple)


CERTIFIED = ManifoldReport(*[Verdict(True)] * 5)  # forced, so that every failing path runs
RING = rect_boundary(5, 5)
FULL_AXIS_2 = AdjacencyPair(full_adjacency(2), axis_adjacency(2))
FULL_AXIS_3 = AdjacencyPair(full_adjacency(3), axis_adjacency(3))


@st.composite
def shifted_sets(draw):
    """A nonempty random subset of a 5x4, 4x4 or 3x3x3 box, moved by a
    translation that may be negative and odd, under one of the four
    axis/full pairs."""
    sides = draw(st.sampled_from([(5, 4), (4, 4), (3, 3, 3)]))
    cells = sorted(itertools.product(*(range(s) for s in sides)))
    chosen = draw(st.frozensets(st.sampled_from(cells), min_size=1))
    shift = draw(st.tuples(*[st.integers(-41, 41)] * len(sides)))
    n = len(sides)
    alpha = draw(st.sampled_from((axis_adjacency, full_adjacency)))(n)
    beta = draw(st.sampled_from((axis_adjacency, full_adjacency)))(n)
    m = frozenset(tuple(a + b for a, b in zip(p, shift)) for p in chosen)
    return m, AdjacencyPair(alpha, beta)


@given(shifted_sets())
@example((RING, AXIS_FULL_2))  # everything holds
@example((RING | {(5, 2)}, AXIS_FULL_2))  # a spur that misses the inside and is simple
@example((RING | {(2, 2)}, AXIS_FULL_2))  # a point that misses the outside; none is simple
@example((RING | {(1, 2), (2, 2)}, AXIS_FULL_2))  # two points miss the outside; the second is simple
@example((RING | {(x + 6, y) for x, y in rect_boundary(4, 4)}, AXIS_FULL_2))  # three components, of 9 and 4 inside
@example((frozenset(vec_add(p, (-7, -1, -3)) for p in box_surface(3, 3, 3)) | {(-6, 0, -2)}, FULL_AXIS_3))  # a filled cube: one component
@settings(max_examples=150, deadline=None)
def test_one_scan_matches_the_two_scan_oracle(case):
    m, pair = case
    got = jordan_check(m, pair, report=CERTIFIED)
    assert got.to_json() == jordan_check_two_scans(m, pair, report=CERTIFIED).to_json()
    region = Region.around(m, 2)
    for w in got.witnesses():
        assert REPLAYS[w["kind"]](w, m, pair, region)


def test_a_certified_box_reads_each_point_once(monkeypatch):
    box, pair = box_surface(5, 5, 5), AXIS_FULL_3
    report = check_manifold(box, pair)
    assert report.certified
    calls = {"ids_near": 0, "neighbors": 0, "is_simple_point": 0, "components": 0}

    def counted(name, f):
        def spy(*args):
            calls[name] += 1
            return f(*args)

        return spy

    spy = counted("neighbors", neighbors)
    for module in (adjacency, jordan, manifold):  # wherever the name may be bound
        if getattr(module, "neighbors", None) is neighbors:
            monkeypatch.setattr(module, "neighbors", spy)
    monkeypatch.setattr(ComponentLabeling, "ids_near", counted("ids_near", ComponentLabeling.ids_near))
    monkeypatch.setattr(jordan, "is_simple_point", counted("is_simple_point", jordan.is_simple_point))
    monkeypatch.setattr(ComponentLabeling, "components", counted("components", ComponentLabeling.components))
    assert jordan_check(box, pair, report=report).all_true
    # one read of beta-neighbour ids per point of M, by strides, with no
    # neighbour tuples; every point touches both components, so none is
    # tested for simplicity, and no component is collected
    assert len(box) == 98
    assert calls == {"ids_near": 98, "neighbors": 0, "is_simple_point": 0, "components": 0}
    # on an arc the first point is simple, and the scan stops there: its one
    # read, and the read inside ``is_simple_point``
    calls.update(dict.fromkeys(calls, 0))
    arc = {(-1, -3), (0, -2), (1, -1)}
    assert jordan_check(arc, FULL_AXIS_2, report=CERTIFIED).no_simple_points.witness["point"] == [-1, -3]
    assert calls == {"ids_near": 2, "neighbors": 0, "is_simple_point": 1, "components": 0}


def test_a_not_common_boundary_witness_replays_only_where_the_point_misses_the_component():
    spur = RING | {(5, 2)}  # (5, 2) is beta-adjacent to the outside only
    region = Region.around(spur, 2)
    inside, outside = [1, 1], list(region.lo)
    replay = REPLAYS["not-common-boundary"]
    missed = {"kind": "not-common-boundary", "point": [5, 2], "missing_component": inside}
    assert replay(missed, spur, AXIS_FULL_2, region)
    # (0, 0) is beta-adjacent to both components, and (5, 2) reaches the outside
    for point, component in (([0, 0], inside), ([0, 0], outside), ([5, 2], outside)):
        reached = {"kind": "not-common-boundary", "point": point, "missing_component": component}
        assert not replay(reached, spur, AXIS_FULL_2, region)


def test_a_missing_component_outside_the_window_never_replays():
    spur = RING | {(5, 2)}
    region = Region.around(spur, 2)  # (-2, -2)..(7, 6): 12 by 11 cells with the rim
    labels = region.complement(AXIS_FULL_2.beta, spur).labels
    replay = REPLAYS["not-common-boundary"]
    assert labels.get((1, 1)) == (1, 1)
    # (2, 1 - 11) and (0, 1 + 11) sum their strides to the inside's cell (1, 1);
    # the others lie on the rim, beyond it, or in another dimension
    for missing in ([2, -10], [0, 12], [1, 7], [8, 1], [1, 1, 0], [1], [-40, 1]):
        assert labels.get(tuple(missing)) is None
        w = {"kind": "not-common-boundary", "point": [5, 2], "missing_component": missing}
        assert not replay(w, spur, AXIS_FULL_2, region)
