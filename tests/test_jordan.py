import pytest

from digitop.adjacency import AdjacencyPair, axis_adjacency, full_adjacency
from digitop.jordan import (
    GENERATORS,
    JordanReport,
    box_surface,
    jordan_check,
    rect_boundary,
    sphere_shell,
)
from digitop.manifold import NotCertifiedError, check_manifold
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
