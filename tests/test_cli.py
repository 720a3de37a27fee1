import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digitop import adjacency, cli, jordan, manifold, pseudomanifold, separation
from digitop.adjacency import AdjacencyPair, AdjacencySpec, Region, axis_adjacency, full_adjacency
from digitop.cli import main
from digitop.jordan import rect_boundary
from digitop.simplicial import build_reduced_complex, complex_to_off
from digitop.verdict import malformed
from digitop.fileio import (
    InputFormatError,
    format_points,
    load_points,
    parse_adjacency_arg,
    parse_points,
)


@pytest.fixture
def ring_file(tmp_path):
    path = tmp_path / "ring.txt"
    assert main(["generate", "--kind", "rect-boundary", "--params", "5", "5", "-o", str(path)]) == 0
    return path


@pytest.fixture
def box_file(tmp_path):
    path = tmp_path / "box.txt"
    assert main(["generate", "--kind", "box-surface", "--params", "3", "3", "3", "-o", str(path)]) == 0
    return path


def test_parse_points_comments_and_blanks():
    pts, n = parse_points("# header\n\n1 2\n3 4 # trailing\n")
    assert n == 2 and pts == frozenset({(1, 2), (3, 4)})


def test_parse_points_errors_carry_line_numbers():
    with pytest.raises(InputFormatError, match=":2:"):
        parse_points("1 2\n1 x\n")
    with pytest.raises(InputFormatError, match=":2:"):
        parse_points("1 2\n1 2 3\n")
    with pytest.raises(InputFormatError, match="no data"):
        parse_points("# nothing\n")


def test_adjacency_arg_names():
    assert parse_adjacency_arg("axis", 2) is axis_adjacency(2)
    assert parse_adjacency_arg("full", 3) is full_adjacency(3)
    with pytest.raises(InputFormatError):
        parse_adjacency_arg("king", 2)


def test_adjacency_custom_file(tmp_path):
    path = tmp_path / "adj.txt"
    path.write_text("1 0\n-1 0\n0 1\n0 -1\n1 1\n-1 -1\n", encoding="utf-8")
    spec = parse_adjacency_arg(f"custom:{path}", 2)
    assert (1, 1) in spec.offsets
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0\n-1 0\n0 1\n0 -1\n1 1\n", encoding="utf-8")
    with pytest.raises(InputFormatError):
        parse_adjacency_arg(f"custom:{bad}", 2)


def test_generate_and_reload(tmp_path, ring_file):
    pts, n = load_points(ring_file)
    assert n == 2 and len(pts) == 16


def test_jordan_command_passes(ring_file, capsys):
    assert main(["jordan", "--points", str(ring_file), "--alpha", "axis", "--beta", "full"]) == 0
    out = capsys.readouterr().out
    assert "all-true: True" in out


def test_jordan_uncertified_input_is_a_usage_error(tmp_path):
    path = tmp_path / "arc.txt"
    path.write_text("0 0\n1 1\n2 2\n", encoding="utf-8")
    assert main(["jordan", "--points", str(path), "--alpha", "full", "--beta", "axis"]) == 2


def test_verify_manifold_exit_codes(ring_file, tmp_path):
    assert (
        main(["verify-manifold", "--points", str(ring_file), "--alpha", "axis", "--beta", "full"])
        == 0
    )
    broken = tmp_path / "broken.txt"
    pts, _ = load_points(ring_file)
    broken.write_text(format_points(sorted(pts)[1:]), encoding="utf-8")
    assert (
        main(["verify-manifold", "--points", str(broken), "--alpha", "axis", "--beta", "full"])
        == 1
    )


def test_good_pair_exit_codes():
    assert main(["good-pair", "--n", "2", "--alpha", "full", "--beta", "axis"]) == 0
    assert main(["good-pair", "--n", "2", "--alpha", "full", "--beta", "full"]) == 1
    # inconclusive contractibility at the default rewrite bound
    assert main(["good-pair", "--n", "2", "--alpha", "axis", "--beta", "full"]) == 3
    assert main(["good-pair", "--n", "2", "--alpha", "axis", "--beta", "full", "--N", "4"]) == 0


@pytest.mark.parametrize("budget", [None, 1000])
def test_a_long_rewrite_bound_enumerates_only_the_walks_the_budget_reaches(monkeypatch, budget):
    # a walk of up to 42 steps on the 4-cycle: 2^41 closed walks of 42 steps
    # from each vertex, so they are counted, and walks are enumerated only as
    # far as the search consumes them
    graph = adjacency._CycleGraph
    walks, enumerate_walks = graph.walks, graph._enumerate_walks
    limit = (budget or 100_000) + 1
    yielded, produced = [], []

    def counted(walk_list, counter):
        for walk in walk_list:
            counter.append(walk)
            if len(counter) > limit:
                raise AssertionError(f"more than {limit} walks: the budget does not bound them")
            yield walk

    monkeypatch.setattr(graph, "walks", lambda self, *key: counted(walks(self, *key), yielded))
    monkeypatch.setattr(graph, "_enumerate_walks", lambda self, key: counted(enumerate_walks(self, key), produced))
    argv = ["good-pair", "--n", "2", "--alpha", "full", "--beta", "axis", "--N", "40"]
    assert main(argv + ([] if budget is None else ["--budget", str(budget)])) == 3
    # each walk closes a new cycle here, and the search stops at push budget + 1
    assert len(yielded) == len(produced) == limit


def test_a_huge_rewrite_bound_counts_walks_only_as_far_as_the_budget_reads(monkeypatch):
    # walk counts grow geometrically, so the counted rewrites pass --budget
    # within a few steps; no count, span or bucket is made for each step --N allows
    walk_counts = adjacency._CycleGraph.walk_counts

    def bounded(self, v, steps):
        if steps > 64:
            raise AssertionError(f"walk counts of {steps} steps requested")
        return walk_counts(self, v, steps)

    monkeypatch.setattr(adjacency._CycleGraph, "walk_counts", bounded)
    code, out, err = _run_all(["good-pair", "--n", "2", "--alpha", "full", "--beta", "axis", "--N", "5000"])
    assert (code, err) == (3, "") and "contractibility: unknown" in out


def test_simple_points_command(ring_file, tmp_path):
    assert main(["simple-points", "--points", str(ring_file), "--alpha", "axis", "--beta", "full"]) == 0
    arc = tmp_path / "arc.txt"
    arc.write_text("0 0\n1 1\n2 2\n", encoding="utf-8")
    assert main(["simple-points", "--points", str(arc), "--alpha", "full", "--beta", "axis"]) == 1


def test_json_reports_are_byte_identical(ring_file, tmp_path, capsys):
    argv = ["jordan", "--points", str(ring_file), "--alpha", "axis", "--beta", "full", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["tool"] == "digitop"
    assert payload["result"]["all_true"] is True


def test_build_json_and_euler(ring_file, capsys):
    assert main(["build", "--points", str(ring_file), "--alpha", "axis", "--beta", "full", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["K"]["n"] == 2
    assert payload["result"]["K_prime"]["simplices"]
    assert main(["euler", "--points", str(ring_file), "--alpha", "axis", "--beta", "full", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == {"chi_K": 0, "chi_K_prime": 0}


@pytest.mark.parametrize("points", ["ring_file", "box_file"])
def test_build_text_counts_equal_the_json_report(points, request, capsys):
    argv = ["build", "--points", str(request.getfixturevalue(points)), "--alpha", "axis", "--beta", "full"]
    assert main([*argv, "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert main([*argv, "--format", "text"]) == 0
    assert capsys.readouterr().out == "".join(
        f"{name}: {len(result[key]['simplices'])} simplices on {len(result[key]['vertices'])} vertices\n"
        for name, key in (("K", "K"), ("K'", "K_prime"))
    )


def test_an_internal_inconsistency_exits_4_without_a_traceback(ring_file, monkeypatch, capsys):
    message = "certified set has 3 shell components; certification inconsistent"

    def inconsistent(*args, **kwargs):
        raise RuntimeError(message)

    # no command splits a set into its global sides, so verify-manifold is
    # made to do it after its check
    def check_then_split(mset, pair, region=None):
        report = manifold.check_manifold(mset, pair, region)
        manifold.global_sides(mset, pair, report)
        return report

    monkeypatch.setattr(manifold, "global_sides", inconsistent)
    monkeypatch.setattr(cli, "check_manifold", check_then_split)
    assert main(["verify-manifold", "--points", str(ring_file), "--alpha", "axis", "--beta", "full"]) == 4
    captured = capsys.readouterr()
    assert captured.err == f"error: internal: {message}\n"
    assert "Traceback" not in captured.out + captured.err


def test_check_pseudomanifold_command(ring_file, box_file):
    assert main(["check-pseudomanifold", "--points", str(ring_file), "--alpha", "axis", "--beta", "full"]) == 0
    assert main(["check-pseudomanifold", "--points", str(box_file), "--alpha", "axis", "--beta", "full"]) == 0


def test_check_separation_command(ring_file, tmp_path):
    assert main(["check-separation", "--points", str(ring_file), "--alpha", "axis", "--beta", "full"]) == 0
    plate = tmp_path / "plate.txt"
    plate.write_text("0 0 0\n1 0 0\n0 1 1\n1 1 1\n", encoding="utf-8")
    assert main(["check-separation", "--points", str(plate), "--alpha", "full", "--beta", "axis"]) == 1


def test_off_export(box_file, tmp_path, capsys):
    out = tmp_path / "box.off"
    code = main(
        ["build", "--points", str(box_file), "--alpha", "axis", "--beta", "full",
         "--format", "off", "-o", str(out)]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "OFF"
    nv, nf, _ = map(int, lines[1].split())
    assert nv > 0 and nf > 0
    assert "warning" in capsys.readouterr().err


@pytest.mark.parametrize("alpha, beta", [("axis", "full"), ("full", "axis")])
def test_off_stdout_is_the_off_text_byte_for_byte(box_file, tmp_path, capsysbinary, alpha, beta):
    m, _ = load_points(str(box_file))
    pair = AdjacencyPair(parse_adjacency_arg(alpha, 3), parse_adjacency_arg(beta, 3))
    text = complex_to_off(build_reduced_complex(m, pair))[0]
    argv = ["build", "--points", str(box_file), "--alpha", alpha, "--beta", beta, "--format", "off"]
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == text.encode()
    out = tmp_path / "box.off"
    assert main([*argv, "-o", str(out)]) == 0
    assert out.read_bytes() == text.encode()


@pytest.mark.parametrize(
    "command,option",
    [
        ("verify-manifold", ["--format", "off"]),
        ("euler", ["--format", "off"]),
        ("jordan", ["--format", "off"]),
        ("build", ["--replay", "report.json"]),
        ("euler", ["--replay", "report.json"]),
    ],
)
def test_options_are_offered_only_where_they_act(ring_file, command, option, capsys):
    common = ["--points", str(ring_file), "--alpha", "axis", "--beta", "full"]
    assert main([command, *common, *option]) == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build", "euler"])
def test_build_and_euler_refuse_a_window_over_max_cells(ring_file, command):
    argv = [command, "--points", str(ring_file), "--alpha", "axis", "--beta", "full", "--format", "json"]
    code, out, err = _run_all([*argv, "--max-cells", "5"])
    assert (code, out) == (2, "") and "usage:" not in err and "more than --max-cells 5" in err
    cells = err.split("window has ")[1].split()[0]
    # the bound is not part of the report: at the window's size the bytes are unchanged
    assert _run_all([*argv, "--max-cells", cells]) == _run_all(argv) == (0, _run_all(argv)[1], "")


def test_common_flags_stay_on_every_command_and_in_the_envelope(ring_file, capsys):
    for command in ("build", "euler"):
        argv = [command, "--points", str(ring_file), "--alpha", "axis", "--beta", "full",
                "--N", "3", "--budget", "7", "--margin", "4", "--format", "json"]
        assert main(argv) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["N"], config["budget"], config["margin"]) == (3, 7, 4)


@pytest.fixture
def labelings(monkeypatch):
    """The arguments of every complement labeling run while the test runs."""
    from digitop.adjacency import complement_components

    calls = []

    def counting_label(*args):
        calls.append(args)
        return complement_components(*args)

    # every module that holds the name, as the benchmark's tracer patches it
    for name, module in list(sys.modules.items()):
        if name.startswith("digitop") and getattr(module, "complement_components", None) is complement_components:
            monkeypatch.setattr(module, "complement_components", counting_label)
    return calls


@pytest.mark.parametrize("margin", ["2", "4"])
@pytest.mark.parametrize("command", ["jordan", "simple-points"])
def test_one_complement_labeling_per_command(ring_file, labelings, command, margin):
    argv = [command, "--points", str(ring_file), "--alpha", "axis", "--beta", "full", "--margin", margin]
    assert main(argv) == 0
    assert len(labelings) == 1


@pytest.mark.parametrize("command", ["verify-manifold", "check-separation"])
def test_certification_labels_the_window_only_for_a_cube_with_a_candidate(ring_file, tmp_path, labelings, command):
    plate, far = tmp_path / "plate.txt", tmp_path / "far.txt"
    plate.write_text("0 0 0\n1 0 0\n0 1 1\n1 1 1\n", encoding="utf-8")
    far.write_text("0 0\n995 995\n", encoding="utf-8")  # margin 2: 1000 x 1000 cells, the default cap
    cases = [
        (ring_file, "axis", "full", 0, 0),
        (far, "full", "axis", 1 if command == "verify-manifold" else 0, 0),
        # the plate's unit cube violates separation: the scan labels once and stops there
        (plate, "full", "axis", 1, 1),
    ]
    for path, alpha, beta, code, labeled in cases:
        labelings.clear()
        argv = [command, "--points", str(path), "--alpha", alpha, "--beta", beta, "--max-cells", "1000000"]
        assert (_run_all(argv)[0], len(labelings)) == (code, labeled)


def test_replay_round_trip(tmp_path, capsys):
    report = tmp_path / "gp.json"
    argv = ["good-pair", "--n", "2", "--alpha", "full", "--beta", "full", "--format", "json", "-o", str(report)]
    assert main(argv) == 1
    capsys.readouterr()
    assert main(["good-pair", "--n", "2", "--alpha", "full", "--beta", "full", "--replay", str(report)]) == 1
    out = capsys.readouterr().out
    assert "violation reproduced" in out
    # a passing report replays to a fresh run with the same verdict
    passing = tmp_path / "ok.json"
    assert main(["good-pair", "--n", "2", "--alpha", "full", "--beta", "axis", "--format", "json", "-o", str(passing)]) == 0
    assert main(["good-pair", "--n", "2", "--alpha", "full", "--beta", "axis", "--replay", str(passing)]) == 0


def test_replay_separation_witness(tmp_path, capsys):
    plate = tmp_path / "plate.txt"
    plate.write_text("0 0 0\n1 0 0\n0 1 1\n1 1 1\n", encoding="utf-8")
    report = tmp_path / "sep.json"
    argv = ["check-separation", "--points", str(plate), "--alpha", "full", "--beta", "axis",
            "--format", "json", "-o", str(report)]
    assert main(argv) == 1
    assert main(["check-separation", "--points", str(plate), "--alpha", "full", "--beta", "axis",
                 "--replay", str(report)]) == 1


def test_usage_errors(tmp_path):
    assert main(["jordan", "--points", str(tmp_path / "missing.txt")]) == 2
    assert main(["verify-manifold", "--points", "", "--n", "2"]) == 2  # the path "" is read, not skipped
    pts = tmp_path / "p.txt"
    pts.write_text("0 0\n1 0\n", encoding="utf-8")
    assert main(["jordan", "--points", str(pts), "--n", "3"]) == 2
    assert main(["jordan", "--points", str(pts), "--margin", "1"]) == 2
    assert main(["good-pair", "--alpha", "full", "--beta", "axis"]) == 2  # no --n
    # a 5^16-cell window is refused before the 3^16 - 1 full offsets are built
    far = tmp_path / "p16.txt"
    far.write_text(" ".join("0" * 16) + "\n", encoding="utf-8")
    for command, alpha in itertools.product(("verify-manifold", "build", "euler"), ("axis", "full")):
        code, out, err = _run_all([command, "--points", str(far), "--alpha", alpha, "--beta", "axis"])
        assert (code, out) == (2, "") and "Traceback" not in err and f"{5**16} cells" in err


@pytest.mark.parametrize("where", ["points", "custom"])
def test_a_file_that_is_not_utf8_is_an_input_error_naming_it(tmp_path, capsys, where):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"0 0\n1 \xff\n")
    pts = tmp_path / "p.txt"
    pts.write_text("0 0\n1 0\n", encoding="utf-8")
    points, alpha = (bad, "full") if where == "points" else (pts, f"custom:{bad}")
    assert main(["build", "--points", str(points), "--alpha", alpha]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "UTF-8" in err


@pytest.mark.parametrize(
    "where, text, message",
    [
        ("points", "0 0\n1 x\n", "{path}:2: not an integer vector: '1 x'"),
        ("points", "# one axis\n0\n", "{path}:2: dimension must be at least 2"),
        ("points", "0 0\n\n1 0 0\n", "{path}:3: expected 2 coordinates, found 3"),
        ("points", "# nothing\n\n", "{path}: no data lines"),
        ("custom", "1 0\n-1 0 # back\n0 1.5\n", "{path}:3: not an integer vector: '0 1.5'"),
        ("custom", "1 0\n-1 0\n0 1 0\n0 -1\n", "{path}:3: expected 2 coordinates, found 3"),
        ("custom", "1\n", "{path}:1: expected 2 coordinates, found 1"),
    ],
)
def test_a_malformed_line_exits_2_naming_its_file_and_line(tmp_path, capsys, where, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    pts = tmp_path / "p.txt"
    pts.write_text("0 0\n1 0\n", encoding="utf-8")
    points, alpha = (bad, "full") if where == "points" else (pts, f"custom:{bad}")
    assert main(["build", "--points", str(points), "--alpha", alpha]) == 2
    assert capsys.readouterr().err == "error: " + message.format(path=bad) + "\n"


def test_replay_manifold_witness(tmp_path):
    broken = tmp_path / "broken.txt"
    pts = sorted(p for p in __import__("digitop").rect_boundary(5, 5))
    broken.write_text(format_points(pts[1:]), encoding="utf-8")
    report = tmp_path / "vm.json"
    argv = ["verify-manifold", "--points", str(broken), "--alpha", "axis", "--beta", "full",
            "--format", "json", "-o", str(report)]
    assert main(argv) == 1
    assert main(["verify-manifold", "--points", str(broken), "--alpha", "axis", "--beta", "full",
                 "--replay", str(report)]) == 1


def test_replay_of_a_malformed_report_is_an_input_error(tmp_path, capsys):
    pts = tmp_path / "diag.txt"
    pts.write_text("0 0\n1 1\n", encoding="utf-8")
    common = ["--points", str(pts), "--alpha", "axis", "--beta", "full"]
    report = tmp_path / "vm.json"
    assert main(["verify-manifold", *common, "--format", "json", "-o", str(report)]) == 1
    saved = json.loads(report.read_text(encoding="utf-8"))
    kinds = [w["kind"] for w in saved["witnesses"]]
    assert "cube-intersection-disconnected" in kinds
    for w in saved["witnesses"]:
        w.pop("cube", None)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(saved), encoding="utf-8")
    assert main(["verify-manifold", *common, "--replay", str(broken)]) == 2
    assert "malformed cube-intersection-disconnected witness" in capsys.readouterr().err
    for payload in ([], {"witnesses": ["simple-point"]}, {"witnesses": [{"kind": "simple-point", "point": 7}]}):
        broken.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify-manifold", *common, "--replay", str(broken)]) == 2
    broken.write_text("[" * 100_000, encoding="utf-8")  # deeper than the JSON decoder recurses
    assert main(["verify-manifold", *common, "--replay", str(broken)]) == 2


def test_replay_simple_points_under_the_recorded_margin(tmp_path):
    arc = tmp_path / "arc.txt"
    arc.write_text("0 0\n1 1\n2 2\n", encoding="utf-8")
    common = ["--points", str(arc), "--alpha", "full", "--beta", "axis", "--margin", "4"]
    report = tmp_path / "sp.json"
    assert main(["simple-points", *common, "--format", "json", "-o", str(report)]) == 1
    assert main(["simple-points", *common, "--replay", str(report)]) == 1


RING = format_points(sorted(rect_boundary(5, 5)))


def _replay_bogus(tmp_path, capsys, command, points, alpha, beta, witness):
    report = tmp_path / "bogus.json"
    report.write_text(json.dumps({"witnesses": [witness]}), encoding="utf-8")
    code = main([command, "--points", str(points), "--alpha", alpha, "--beta", beta, "--replay", str(report)])
    return code, capsys.readouterr()


@pytest.mark.parametrize("alpha,beta", [("full", "axis"), ("axis", "full")])
def test_replay_checks_the_recorded_side_of_a_one_sided_neighbor(ring_file, tmp_path, capsys, alpha, beta):
    bogus = {"kind": "one-sided-neighbor", "p": [0, 0], "q": [9, 9], "side": []}
    code, out = _replay_bogus(tmp_path, capsys, "verify-manifold", ring_file, alpha, beta, bogus)
    assert code == 2
    assert "replay one-sided-neighbor: NOT reproduced" in out.out


@pytest.mark.parametrize(
    "text,alpha,beta,kind,field,value",
    [
        ("0 0\n5 5\n", "axis", "full", "alpha-disconnected", "components", [[0, 0], [0, 0]]),
        ("0 0\n5 5\n", "axis", "full", "alpha-disconnected", "components", [[0, 0], [1, 1]]),
        ("0 0\n1 0\n5 5\n", "axis", "full", "alpha-disconnected", "components", [[1, 0], [5, 5]]),
        ("0 0\n5 5\n", "axis", "full", "local-component-count", "count", 3),
        (RING, "full", "axis", "one-sided-neighbor", "side", []),
    ],
    ids=["same-component", "not-in-the-set", "not-a-component-id", "local-count", "empty-side"],
)
def test_replay_of_a_tampered_witness_is_not_reproduced(tmp_path, capsys, text, alpha, beta, kind, field, value):
    points = tmp_path / "m.txt"
    points.write_text(text, encoding="utf-8")
    report = tmp_path / "vm.json"
    argv = ["verify-manifold", "--points", str(points), "--alpha", alpha, "--beta", beta]
    assert main([*argv, "--format", "json", "-o", str(report)]) == 1
    (witness,) = [w for w in json.loads(report.read_text(encoding="utf-8"))["witnesses"] if w["kind"] == kind]
    code, out = _replay_bogus(tmp_path, capsys, "verify-manifold", points, alpha, beta, {**witness, field: value})
    assert code == 2
    assert f"replay {kind}: NOT reproduced" in out.out


def test_replay_reproduces_a_cube_witness_only_on_an_n_cube(tmp_path, capsys):
    # the 2-cube at the origin holds 000 and 110, a cut that axis adjacency
    # splits, but check_manifold scans only the n-cubes, and every 3-cube of
    # this set has a connected cut: the report says cube_connectivity holds
    points = tmp_path / "m.txt"
    points.write_text("0 0 0\n1 1 0\n0 0 1\n0 1 1\n1 1 1\n0 0 -1\n0 1 -1\n1 1 -1\n", encoding="utf-8")
    report = tmp_path / "vm.json"
    argv = ["verify-manifold", "--points", str(points), "--alpha", "axis", "--beta", "full"]
    assert main([*argv, "--format", "json", "-o", str(report)]) == 1
    saved = json.loads(report.read_text(encoding="utf-8"))
    assert saved["result"]["cube_connectivity"]["holds"]
    square = {"kind": "cube-intersection-disconnected", "cube": {"base": [0, 0, 0], "axes": [0, 1]}}
    report.write_text(json.dumps({**saved, "witnesses": [square]}), encoding="utf-8")
    assert main([*argv, "--replay", str(report)]) == 2
    assert "replay cube-intersection-disconnected: NOT reproduced" in capsys.readouterr().out
    # a recorded n-cube witness still replays
    two = tmp_path / "two.txt"
    two.write_text("0 0 0\n1 1 1\n", encoding="utf-8")
    argv = ["verify-manifold", "--points", str(two), "--alpha", "axis", "--beta", "full"]
    assert main([*argv, "--format", "json", "-o", str(report)]) == 1
    (cube,) = [w for w in json.loads(report.read_text(encoding="utf-8"))["witnesses"] if w["kind"] == square["kind"]]
    assert cube["cube"]["axes"] == [0, 1, 2]
    report.write_text(json.dumps({"witnesses": [cube]}), encoding="utf-8")
    capsys.readouterr()
    assert main([*argv, "--replay", str(report)]) == 1
    assert "replay cube-intersection-disconnected: violation reproduced" in capsys.readouterr().out


def _plate_witness(tmp_path):
    plate = tmp_path / "plate.txt"
    plate.write_text("0 0 0\n1 0 0\n0 1 1\n1 1 1\n", encoding="utf-8")
    report = tmp_path / "sep.json"
    argv = ["check-separation", "--points", str(plate), "--alpha", "full", "--beta", "axis",
            "--format", "json", "-o", str(report)]
    assert main(argv) == 1
    (witness,) = json.loads(report.read_text(encoding="utf-8"))["witnesses"]
    return plate, witness


def test_replay_checks_every_field_of_a_separation_witness(tmp_path, capsys):
    plate, witness = _plate_witness(tmp_path)
    bogus = dict(witness, cstar={"base": [5, 5, 5], "axes": [0]}, point=[9, 9, 9])
    code, out = _replay_bogus(tmp_path, capsys, "check-separation", plate, "full", "axis", bogus)
    assert code == 2
    assert "replay separation: NOT reproduced" in out.out


def test_replay_rejects_a_witness_of_another_dimension(tmp_path, capsys):
    plate, witness = _plate_witness(tmp_path)
    bogus = dict(witness, cube={"base": [0, 0, 0, 0], "axes": [0, 1, 2, 3]})
    code, out = _replay_bogus(tmp_path, capsys, "check-separation", plate, "full", "axis", bogus)
    assert code == 2
    assert "not of dimension 3" in out.err and "replay" not in out.out


@pytest.mark.parametrize(
    "command, text, witness, value",
    [
        ("jordan", "0 0\n", {"kind": "component-count", "count": True}, "true"),
        ("simple-points", "0 0\n1 0\n2 0\n", {"kind": "simple-point", "point": [False, False]}, "false"),
    ],
)
def test_replay_refuses_a_witness_holding_a_boolean(tmp_path, capsys, command, text, witness, value):
    # both replayed as "violation reproduced" (exit 1): True passed for an int
    points = tmp_path / "m.txt"
    points.write_text(text, encoding="utf-8")
    code, out = _replay_bogus(tmp_path, capsys, command, points, "full", "axis", witness)
    assert code == 2
    assert f"holds the boolean {value}" in out.err and "replay" not in out.out


@pytest.mark.parametrize(
    "witness, why",
    [
        ({"cube": {"base": [True, 0, 0], "axes": [0]}}, "holds the boolean true"),
        ({"cube": {"base": [0, 0, 0], "axes": [False]}}, "holds the boolean false"),
        ({"side": [[0, 0, 0], [1, False, 0]]}, "holds the boolean false"),
        ({"cube": {"base": [0, 0, 0], "axes": [0, 1]}, "count": 1}, None),  # axes are no point
        ({"cube": {"base": [0, 0], "axes": [0]}}, "is not of dimension 3: {'base': [0, 0], 'axes': [0]}"),
        ({"point": [0, 0]}, "is not of dimension 3: [0, 0]"),
    ],
)
def test_malformed_names_the_first_boolean_or_point_of_another_dimension(witness, why):
    assert malformed({"kind": "x", **witness}, 3) == why


def test_replay_checks_the_recorded_simplex_of_a_pseudomanifold_witness(tmp_path, capsys):
    from digitop.simplicial import build_complex, reduce_complex

    arc = tmp_path / "arc.txt"
    arc.write_text("0 0\n1 1\n2 2\n", encoding="utf-8")
    common = ["--points", str(arc), "--alpha", "full", "--beta", "axis"]
    report = tmp_path / "pm.json"
    assert main(["check-pseudomanifold", *common, "--format", "json", "-o", str(report)]) == 1
    assert main(["check-pseudomanifold", *common, "--replay", str(report)]) == 1
    (witness,) = json.loads(report.read_text(encoding="utf-8"))["witnesses"]
    pair = AdjacencyPair(full_adjacency(2), axis_adjacency(2))
    m = frozenset({(0, 0), (1, 1), (2, 2)})
    other = next(
        [list(v) for v in s]
        for s in sorted(reduce_complex(build_complex(m, pair), m, pair).simplices)
        if len(s) == len(witness["simplex"]) and [list(v) for v in s] != witness["simplex"]
    )
    capsys.readouterr()
    code, out = _replay_bogus(tmp_path, capsys, "check-pseudomanifold", arc, "full", "axis",
                              dict(witness, simplex=other))
    assert code == 2
    assert f"replay {witness['kind']}: NOT reproduced" in out.out


@st.composite
def boxed_cases(draw):
    """A nonempty random subset of a 4x4 or 3x3x3 box, translated, under one
    of the four axis/full pairs, as point-file text and adjacency names."""
    sides = draw(st.sampled_from([(4, 4), (3, 3, 3)]))
    cells = list(itertools.product(*(range(s) for s in sides)))
    chosen = draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
    shift = draw(st.tuples(*[st.integers(-20, 20)] * len(sides)))
    alpha, beta = draw(st.sampled_from(list(itertools.product(("axis", "full"), repeat=2))))
    moved = sorted(tuple(a + b for a, b in zip(p, shift)) for p in chosen)
    return format_points(moved), alpha, beta


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@given(boxed_cases())
@example((RING, "full", "axis"))  # one-sided-neighbor
@example(("\n".join(RING.splitlines()[1:]), "axis", "axis"))  # cube and one-sided
@example(("0 0 0\n1 0 0\n0 1 1\n1 1 1\n", "full", "axis"))  # separation
@settings(max_examples=40, deadline=None)
def test_every_recorded_witness_replays(case):
    text, alpha, beta = case
    with tempfile.TemporaryDirectory() as tmp:
        points = os.path.join(tmp, "m.txt")
        report = os.path.join(tmp, "report.json")
        with open(points, "w", encoding="utf-8") as fh:
            fh.write(text)
        common = ["--points", points, "--alpha", alpha, "--beta", beta]
        for command in ("verify-manifold", "check-separation", "check-pseudomanifold"):
            code, _ = _run([command, *common, "--format", "json", "-o", report])
            with open(report, encoding="utf-8") as fh:
                witnesses = json.load(fh)["witnesses"]
            assert (code == 1) == bool(witnesses)
            if witnesses:
                code, out = _run([command, *common, "--replay", report])
                assert code == 1
                assert out.splitlines() == [
                    f"replay {w['kind']}: violation reproduced" for w in witnesses
                ]


@given(boxed_cases())
@settings(max_examples=40, deadline=None)
def test_reports_do_not_depend_on_the_margin(case):
    text, alpha, beta = case
    with tempfile.TemporaryDirectory() as tmp:
        points = os.path.join(tmp, "m.txt")
        with open(points, "w", encoding="utf-8") as fh:
            fh.write(text)
        common = ["--points", points, "--alpha", alpha, "--beta", beta, "--format", "json"]
        for command in ("verify-manifold", "check-separation"):
            at2, at4 = (json.loads(_run([command, *common, "--margin", m])[1]) for m in ("2", "4"))
            assert at2["config"].pop("margin") == 2 and at4["config"].pop("margin") == 4
            assert at2 == at4


@pytest.mark.parametrize(
    "argv",
    [
        ["simple-points", "--points", "{arc}", "--alpha", "full", "--beta", "axis"],
        ["good-pair", "--n", "2", "--alpha", "full", "--beta", "full"],
    ],
    ids=["simple-points", "good-pair"],
)
def test_replay_uses_the_recorded_margin(tmp_path, monkeypatch, argv):
    arc, report = tmp_path / "arc.txt", tmp_path / "r.json"
    arc.write_text("0 0\n1 1\n2 2\n", encoding="utf-8")
    argv = [a.format(arc=arc) for a in argv]
    assert _run([*argv, "--margin", "4", "--format", "json", "-o", str(report)])[0] == 1
    assert json.loads(report.read_text(encoding="utf-8"))["witnesses"]
    around, margins = Region.around, []

    def spy(points, margin=2):
        margins.append(margin)
        return around(points, margin)

    monkeypatch.setattr(Region, "around", staticmethod(spy))
    code, out = _run([*argv, "--replay", str(report)])  # no --margin: the default is 2
    assert code == 1 and "NOT reproduced" not in out
    assert margins[-1] == 4
    saved = json.loads(report.read_text(encoding="utf-8"))
    for bad in (1, -3, "4", 4.5, True, None, [4]):
        saved["config"]["margin"] = bad
        report.write_text(json.dumps(saved), encoding="utf-8")
        assert _run([*argv, "--replay", str(report)])[0] == 2
    report.write_text(json.dumps(dict(saved, config=[4])), encoding="utf-8")
    assert _run([*argv, "--replay", str(report)])[0] == 2


_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-3, 3), st.text(max_size=3))
_VEC = st.one_of(st.lists(st.integers(-3, 3), max_size=4), _LEAF)
_CUBE = st.one_of(
    st.fixed_dictionaries({"base": _VEC, "axes": st.one_of(st.lists(st.integers(-1, 4), max_size=4), _LEAF)}),
    _LEAF,
)
_KINDS = sorted({"bogus", *manifold.REPLAYS, *separation.REPLAYS, *jordan.REPLAYS, *pseudomanifold.REPLAYS})
_WITNESS = st.fixed_dictionaries(
    {"kind": st.one_of(st.sampled_from(_KINDS), _LEAF)},
    optional={
        **dict.fromkeys(("cube", "cstar"), _CUBE),
        **dict.fromkeys(("tau1", "tau2", "point", "p", "q", "z", "r", "tau", "missing_component"), _VEC),
        **dict.fromkeys(("side", "components", "simplex"), st.one_of(st.lists(_VEC, max_size=3), _LEAF)),
        "count": _LEAF,
    },
)
_CONFIG = st.one_of(st.fixed_dictionaries({}, optional={"margin": st.one_of(st.integers(-1, 4), _LEAF)}), _LEAF)


def _text_lines(tokens, width):
    line = st.lists(st.sampled_from(tokens), max_size=width).map(" ".join)
    return st.lists(line, max_size=5).map(lambda lines: "\n".join(lines).encode("utf-8"))


_BYTES = st.one_of(st.binary(max_size=12), st.just(b"0 0\n\xff\xfe 1\n"))
_VALID_POINTS = st.integers(2, 3).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(-1, 2)] * n), min_size=1, max_size=6)
).map(lambda pts: format_points(pts).encode("utf-8"))
_POINTS = st.one_of(_VALID_POINTS, _text_lines(["0", "1", "-1", "2", "x", "1.5", "#", ""], 3), _BYTES)
_ADJACENCY = st.one_of(st.sampled_from(["axis", "full"]), _text_lines(["0", "1", "-1", "2", "a", "#"], 3), _BYTES)
_REPLAYABLE = ["verify-manifold", "check-separation", "check-pseudomanifold", "jordan", "simple-points", "good-pair"]
_DROP = object()


def _exit_code(tmp, command, points, alpha, report=None, extra=()):
    """Runs main on the given file contents (bytes) or adjacency names; exit
    codes stay in 0..3 and nothing escapes ``main`` as a traceback."""
    files = {}
    for name, content in (("points", points), ("adjacency", alpha), ("report", report)):
        if isinstance(content, bytes):
            files[name] = os.path.join(tmp, name)
            with open(files[name], "wb") as fh:
                fh.write(content)
    argv = [command, "--n", "2"] if command == "good-pair" else [command, "--points", files["points"]]
    argv += ["--alpha", f"custom:{files['adjacency']}" if "adjacency" in files else alpha, "--beta", "axis"]
    if report is not None:
        argv += ["--replay", files["report"]]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, *extra])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    return code


@given(st.sampled_from([*_REPLAYABLE, "build", "euler"]), _POINTS, _ADJACENCY)
@example("verify-manifold", b"0 " * 16 + b"\n", "axis")  # refused before its 3^16 - 1 offsets exist
@example("jordan", b"0 " * 16 + b"\n", "full")
@settings(max_examples=60, deadline=None)
def test_malformed_point_and_adjacency_files_never_raise(command, points, alpha):
    with tempfile.TemporaryDirectory() as tmp:
        _exit_code(tmp, command, points, alpha)


@given(st.sampled_from(_REPLAYABLE), _VALID_POINTS, st.sampled_from(["axis", "full"]), st.data())
@settings(max_examples=100, deadline=None)
def test_malformed_reports_never_raise(command, points, alpha, data):
    """A recorded report with one field dropped or replaced, or junk."""
    with tempfile.TemporaryDirectory() as tmp:
        recorded = os.path.join(tmp, "recorded.json")
        _exit_code(tmp, command, points, alpha, extra=["--format", "json", "-o", recorded])
        saved = {"config": {"margin": 2}, "witnesses": []}
        if os.path.exists(recorded):  # jordan refuses uncertified sets
            with open(recorded, encoding="utf-8") as fh:
                saved = json.load(fh)
        saved["witnesses"] = saved["witnesses"] or [data.draw(_WITNESS)]
        target = data.draw(st.sampled_from([saved, saved["config"], *saved["witnesses"]]))
        key = data.draw(st.sampled_from(sorted(target)))
        value = data.draw(st.one_of(st.just(_DROP), _LEAF, _VEC, _CUBE))
        if value is _DROP:
            del target[key]
        else:
            target[key] = value
        junk = st.one_of(st.lists(_LEAF, max_size=2).map(json.dumps).map(str.encode), _BYTES)
        report = data.draw(st.one_of(st.just(json.dumps(saved).encode("utf-8")), junk))
        _exit_code(tmp, command, points, alpha, report)


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(),
    st.sampled_from(["\u00e9\u4e2d", "\x00\x1f\t\n\"\\", "\ud83d\ude00"]),
)
# keys that hold a template's "%" or need escapes
_KEYS = st.one_of(st.text(max_size=4), st.sampled_from(["%", "%d", "%s%%", 'a"%\\', "\u00e9%", "\x00\n"]))
_INT_ROW = st.lists(st.integers(-(2**70), 2**70), max_size=3)
_ROW = st.one_of(_INT_ROW, _INT_ROW.map(tuple), st.lists(st.one_of(st.integers(-2, 2), st.booleans()), max_size=3))


@st.composite
def _record_dicts(draw, inner):
    """Dicts of dicts: one key set of int-list fields, or a few key sets, or other fields."""
    fields = draw(st.lists(_KEYS, min_size=1, max_size=3, unique=True))
    value = st.one_of(_ROW, inner) if draw(st.booleans()) else _ROW
    records = {}
    for key in draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True)):
        names = fields if draw(st.booleans()) else draw(st.lists(st.sampled_from([*fields, "x"]), unique=True))
        records[key] = {name: draw(value) for name in names}
    return records


_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.one_of(st.integers(-5, 5), st.booleans()), max_size=4),
        st.lists(_ROW, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=4),
        _record_dicts(inner),
    ),
    max_leaves=20,
)


@given(st.dictionaries(st.text(max_size=6), _JSON, max_size=5))
@settings(max_examples=300, deadline=None)
# a dict of records with one key set, with empty fields and ints beyond 2^63
@example({"p": {"1": {"base": [-1, 2**64], "axes": [0]}, "0": {"base": (3, -(2**70)), "axes": []}}})
# records with unequal key sets, the smaller or the larger first
@example({"p": {"1": {"base": [1], "axes": [0]}, "2": {"base": [1]}}})
@example({"p": {"1": {"base": [1]}, "2": {"base": [1], "axes": [0]}}})
@example({"p": {"1": {"base": [1]}, "2": {"axes": [1]}}})
# a bool in one record's field
@example({"p": {"a": {"x": [True, 0]}, "b": {"x": [1]}}})
# record keys and field names that hold "%" or need escapes
@example({"p": {"%s": {"%d": [1, 2], 'a"%%\n': (3,)}, "\u00e9%": {"%d": [], 'a"%%\n': (4, 5)}}})
# int rows mixing lists, tuples and bools
@example({"r": [[1, 2], (3,), [], (2**65, -(2**65))]})
@example({"r": [[1, 2], (True, 4)], "f": [1, False, 2]})
def test_report_writer_matches_the_stdlib_encoder(envelope):
    assert cli._json(envelope) == json.dumps(envelope, sort_keys=True, indent=2)


def _run_all(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_a_labeled_window_costs_a_byte_and_a_list_slot_per_cell(tmp_path):
    # two points 295 apart: simple-points labels the whole 300 x 300 window
    path = tmp_path / "two.txt"
    path.write_text("0 0\n295 295\n")
    tracemalloc.start()
    code, out, err = _run_all(["simple-points", "--points", str(path), "--alpha", "full", "--beta", "axis"])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (code, out, err) == (0, "simple points: 0\n", "")
    assert peak < 10_000_000  # a dict entry and a point per cell took 30 MB


def test_a_window_over_max_cells_exits_2_before_labeling(tmp_path, monkeypatch, labelings):
    specs = []
    post_init = AdjacencySpec.__post_init__

    def counted_post_init(self):
        specs.append(self)
        post_init(self)

    monkeypatch.setattr(AdjacencySpec, "__post_init__", counted_post_init)
    axis_adjacency.cache_clear()
    full_adjacency.cache_clear()
    far = tmp_path / "far.txt"
    far.write_text("0 0\n3000 3000\n", encoding="utf-8")
    # good-pair's sphere check labels [-3, 3]^n around the origin: 7^n cells
    for given, cells in ((["check-separation", "--points", str(far)], 9030025), (["good-pair", "--n", "9"], 7**9)):
        code, out, err = _run_all([*given, "--alpha", "full", "--beta", "axis"])
        assert (code, out) == (2, "")
        assert "Traceback" not in err and f"{cells} cells" in err and "--max-cells 1000000" in err
        # refused before any adjacency (3^9 - 1 offsets for full) is built or any cell labeled
        assert (specs, labelings) == ([], [])


def test_a_window_of_unprintably_many_cells_is_refused_by_a_product_that_stops_at_the_cap(monkeypatch):
    # 7^5000 has 4 226 digits and still prints; 7^100000 has 84 510, more than
    # Python converts, and is never formed: the product stops at 7^8 > 10^6
    products = []
    prod = cli.math.prod
    monkeypatch.setattr(cli.math, "prod", lambda sides: products.append(len(sides)) or prod(sides))
    code, out, err = _run_all(["good-pair", "--n", "5000"])
    assert (code, out, err) == (2, "", f"error: the analysis window has {7**5000} cells, more than --max-cells 1000000\n")
    assert products == [5000]
    code, out, err = _run_all(["good-pair", "--n", "100000"])
    assert (code, out) == (2, "") and products == [5000]
    assert err == "error: the analysis window has at least 5764801 cells, more than --max-cells 1000000\n"


def test_a_window_at_max_cells_still_runs(tmp_path):
    pair = tmp_path / "pair.txt"
    pair.write_text("0 0\n3 3\n", encoding="utf-8")  # margin 2: an 8 x 8 window
    for given, cells in ((["check-separation", "--points", str(pair)], 64), (["good-pair", "--n", "3"], 343)):
        argv = [*given, "--alpha", "full", "--beta", "axis"]
        assert _run_all(argv)[0] == 0
        assert _run_all([*argv, "--max-cells", str(cells)])[0] == 0
        code, _, err = _run_all([*argv, "--max-cells", str(cells - 1)])
        assert code == 2 and err == f"error: the analysis window has {cells} cells, more than --max-cells {cells - 1}\n"


@pytest.mark.parametrize("cells", ["0", "-5"])
@pytest.mark.parametrize("command", ["check-separation", "good-pair"])
def test_max_cells_below_one_is_a_usage_error(ring_file, command, cells):
    given = ["--n", "2"] if command == "good-pair" else ["--points", str(ring_file)]
    code, out, err = _run_all([command, *given, "--alpha", "axis", "--beta", "full", "--max-cells", cells])
    assert (code, out) == (2, "")
    assert err == "error: --max-cells must be at least 1\n"


@pytest.mark.parametrize(
    "given, message",
    [
        (["--n", "1"], "--n must be at least 2"),
        (["--n", "2", "--N", "0"], "--N must be at least 1"),
        (["--n", "2", "--budget", "-1"], "--budget must be nonnegative"),
    ],
)
def test_good_pair_refuses_a_dimension_bound_or_budget_out_of_range(given, message):
    assert _run_all(["good-pair", *given, "--alpha", "full", "--beta", "axis"]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("target", ["missing/x.json", "."])
@pytest.mark.parametrize(
    "argv",
    [
        ["jordan", "--alpha", "axis", "--beta", "full"],
        ["build", "--format", "off"],
        ["generate", "--kind", "rect-boundary", "--params", "5", "5"],
    ],
)
def test_an_output_path_that_cannot_be_written_is_an_input_error(box_file, tmp_path, argv, target):
    given = [] if argv[0] == "generate" else ["--points", str(box_file)]
    path = tmp_path / target  # a missing directory, or a directory
    code, out, err = _run_all([*argv, *given, "-o", str(path)])
    assert (code, out) == (2, "")
    # build's OFF warning about skipped simplices may come first
    assert err.splitlines()[-1].startswith(f"error: {path}: ") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


# per kind: parameters whose margin-2 window has at most 1000000 cells, and a step over
@pytest.mark.parametrize(
    "kind, at_cap, over_cap",
    [
        ("rect-boundary", ["996", "996"], ["996", "997"]),  # (w + 4)(h + 4)
        ("box-surface", ["96", "96", "96"], ["96", "96", "97"]),  # (w + 4)(h + 4)(d + 4)
        ("sphere-shell", ["47", "3"], ["48", "3"]),  # (2r + 5)^n: 99^3 and 101^3
        ("sphere-shell", ["497", "2"], ["498", "2"]),  # 999^2 and 1001^2
        ("sphere-shell", ["2", "6"], ["2", "10000000"]),  # 9^6 and 9^(10^7): its axes are never listed
    ],
)
def test_generate_refuses_a_set_whose_window_is_over_the_cap_before_building_it(monkeypatch, kind, at_cap, over_cap):
    built = []
    monkeypatch.setitem(jordan.GENERATORS, kind, lambda *params: built.append(params) or {(0, 0)})
    assert _run_all(["generate", "--kind", kind, "--params", *at_cap])[0] == 0
    assert built == [tuple(map(int, at_cap))]
    tracemalloc.start()
    code, out, err = _run_all(["generate", "--kind", kind, "--params", *over_cap])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (code, out) == (2, "") and "; the --max-cells default is 1000000" in err
    assert peak < 1_000_000
    assert built == [tuple(map(int, at_cap))]


def test_generate_names_the_partial_product_that_passed_the_cap():
    # 9^7 > 10^6 >= 9^6: the product stops at the seventh of 10^7 axes
    expected = "error: generate sphere-shell: its margin-2 window has at least 4782969 cells; the --max-cells default is 1000000\n"
    assert _run_all(["generate", "--kind", "sphere-shell", "--params", "2", "10000000"]) == (2, "", expected)


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("rect-boundary", ["2", "100000000"], "sides must be at least 3 so the interior is nonempty"),
        ("box-surface", ["100000", "100000"], "box_surface() missing 1 required positional argument: 'd'"),
        ("sphere-shell", ["1", "100"], "radius must be at least 2"),
        ("sphere-shell", ["100000", "1"], "dimension must be at least 2"),
        ("sphere-shell", ["100000"], "sphere_shell() missing 1 required positional argument: 'n'"),
    ],
)
def test_generate_reports_bad_parameters_in_the_generators_words(kind, params, message):
    assert _run_all(["generate", "--kind", kind, "--params", *params]) == (2, "", f"error: generate {kind}: {message}\n")


def test_replay_bounds_the_window_of_the_recorded_margin(tmp_path):
    arc, report = tmp_path / "arc.txt", tmp_path / "sp.json"
    arc.write_text("0 0 0\n1 1 1\n2 2 2\n", encoding="utf-8")
    argv = ["simple-points", "--points", str(arc), "--alpha", "full", "--beta", "axis"]
    assert _run_all([*argv, "--format", "json", "-o", str(report)])[0] == 1
    saved = json.loads(report.read_text(encoding="utf-8"))
    assert saved["witnesses"]
    saved["config"]["margin"] = 300  # a 603^3-cell window
    report.write_text(json.dumps(saved), encoding="utf-8")
    code, out, err = _run_all([*argv, "--replay", str(report)])
    assert (code, out) == (2, "")
    assert "Traceback" not in err and f"{603**3} cells" in err and "--max-cells" in err
    # the same report at a margin whose window is exactly the cap replays
    saved["config"]["margin"] = 3  # a 9^3-cell window
    report.write_text(json.dumps(saved), encoding="utf-8")
    assert _run_all([*argv, "--replay", str(report), "--max-cells", "729"])[0] == 1
    code, _, err = _run_all([*argv, "--replay", str(report), "--max-cells", "728"])
    assert code == 2 and "729 cells" in err


def test_main_reuses_one_parser_with_the_bytes_of_a_fresh_one(ring_file, tmp_path, monkeypatch):
    arc = tmp_path / "arc.txt"
    arc.write_text("0 0\n1 1\n2 2\n", encoding="utf-8")
    ring = ["--points", str(ring_file), "--alpha", "axis", "--beta", "full"]
    calls = [
        ["jordan", *ring, "--format", "json"],
        ["jordan", *ring],
        ["simple-points", "--points", str(arc), "--alpha", "full", "--beta", "axis", "--format", "json"],
        ["simple-points", "--points", str(arc), "--alpha", "full", "--beta", "axis", "--margin", "4"],
        ["good-pair", "--n", "2", "--alpha", "full", "--beta", "full", "--format", "json"],
        ["good-pair", "--n", "2", "--alpha", "full", "--beta", "axis"],
        ["verify-manifold", *ring, "--format", "json", "--max-cells", "10"],
        ["verify-manifold", *ring],
        ["build", *ring, "--format", "off"],  # 2: OFF needs n = 3
        ["euler", *ring, "--bogus"],
        ["euler", *ring],
    ]
    assert cli._parser() is cli._parser() and cli.build_parser() is not cli.build_parser()
    reused = [_run_all(argv) for argv in calls]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert [_run_all(argv) for argv in calls] == reused
    assert [code for code, _, _ in reused] == [0, 0, 1, 1, 1, 0, 2, 0, 2, 2, 0]
