"""Byte identity of the reports, one cheap job per command.

Each job runs through ``digitop.cli.main`` on an untranslated input, and its
exit code and the sha256 of its canonical report must equal what the
benchmark's ``perfbench/golden.json`` records.  A change that alters any
report byte fails here, in the tier-1 suite, not only in a benchmark run.
"""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

from digitop.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_run():
    name = "perfbench_run"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        # the dataclasses of run.py look their module up while they are built
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


RUN = _load_run()
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))["workloads"]

# (workload, job keys run in order in one directory); a replay reads the
# report of the verify-manifold job before it
GROUPS = [
    ("certify", ["jordan rect_boundary(10,24) axis/full"]),
    ("complex", ["build sphere_shell(3,3) axis/full"]),
    ("complex", ["euler sphere_shell(3,3) axis/full"]),
    ("complex", ["check-pseudomanifold sphere_shell(3,3) axis/full"]),
    # full/axis drops barycenters, so K' differs from K
    ("complex", ["build box_surface(4,4,4) full/axis"]),
    ("complex", ["euler box_surface(4,4,4) full/axis"]),
    ("complex", ["check-pseudomanifold box_surface(4,4,4) full/axis"]),
    ("witness", ["good-pair n=2 full/axis"]),
    ("witness", ["good-pair n=2 axis/full"]),
    ("witness", ["good-pair n=3 axis/full"]),
    # full/full has double points, so these pin the double-point witness bytes
    ("witness", ["good-pair n=2 full/full"]),
    ("witness", ["good-pair n=3 full/full"]),
    (
        "witness",
        [
            "verify-manifold rect_boundary(12,8)-(0,0) axis/full",
            "replay rect_boundary(12,8)-(0,0) axis/full",
        ],
    ),
]


def _digest(job, points: str | None) -> tuple[int, str]:
    report = RUN.report_path(points)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(job.argv(points, report))
    text = Path(report).read_text(encoding="utf-8") if job.command == "verify-manifold" else out.getvalue()
    zero_shift = (0,) * job.shape.dim if job.shape else ()
    return code, hashlib.sha256(RUN.canonical(text, zero_shift).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workload,keys", GROUPS, ids=[keys[-1] for _, keys in GROUPS])
def test_report_bytes_match_the_golden_file(workload, keys, tmp_path):
    jobs = {job.key: job for job in RUN.workloads.universe(workload)}
    for key in keys:
        job = jobs[key]
        points = None
        if job.shape is not None:
            points = str(tmp_path / "input.txt")
            lines = (" ".join(map(str, p)) + "\n" for p in sorted(job.shape.points()))
            Path(points).write_text("".join(lines), encoding="utf-8")
        code, sha = _digest(job, points)
        expected = GOLDEN[workload][key]
        assert (code, sha) == (expected["exit"], expected["sha256"]), key


# check-separation and simple-points have no job in the golden file.  These
# (exit, sha256) pairs were recorded from the reports of the scan that decided
# every cube on its own, before cube shapes were decided once; the two inputs
# at negative coordinates were recorded from the scan that built each cube's
# vertex list, before cubes were found from doubled barycenters.  The golden
# file has no 4-D complex and no failing pseudomanifold check; those pairs
# were recorded from complexes whose chains were tuples of points.  The build
# of the shifted scatter was recorded from the writer that encoded one scalar at
# a time and built a Cube per provenance entry.
PLATE = "0 0 0\n1 0 0\n0 1 1\n1 1 1\n"
SCATTER = "0 0 2\n0 2 0\n0 2 1\n0 2 2\n1 2 1\n2 1 0\n"  # fails in a 3-cube
RING_5_5 = "".join(f"{x} {y}\n" for x in range(5) for y in range(5) if x in (0, 4) or y in (0, 4))
ARC = "0 0\n1 0\n2 0\n2 1\n2 2\n"
BOX_SURFACE_3333 = "".join(
    " ".join(map(str, p)) + "\n" for p in itertools.product(range(3), repeat=4) if {0, 2} & set(p)
)
SCATTER_SHIFTED = "".join(
    " ".join(str(int(c) + d) for c, d in zip(line.split(), (-7, -3, -5))) + "\n" for line in SCATTER.splitlines()
)
UNCOVERED = [
    ("check-separation", PLATE, "full", "axis", 1, "9cdea29ddfe803e846ccf9fdf3ab8fb180a20adf7771d5d87c69d6510cfc35d3"),
    ("check-separation", SCATTER, "full", "axis", 1, "5a6844d149262f5eef7d3751c6b57d4130a0ab0323643c72dbd1b898dfa51cf6"),
    ("check-separation", RING_5_5, "axis", "full", 0, "a6f8bf5055c5a60e4417974d814fdb1d167b7afae8753917d9aaafdae8cebbdb"),
    ("simple-points", ARC, "full", "axis", 1, "cb81f53b29690e6a103a3345371e7d884a3b5eb18aae636efddab24e74aa785f"),
    # odd negative coordinates: a cube's base is its halved barycenter, floored
    ("check-separation", SCATTER_SHIFTED, "full", "axis", 1, "84c43e00e38293dea4db54352a9a1aa0e1aff36e38b9f8fceecae049c956cef7"),
    ("verify-manifold", "-3 -3\n-2 -2\n-3 -1\n", "axis", "full", 1, "61777fa875b4031609579561a8bfe1dad8821fa544d5e267855061570149c172"),
    ("build", BOX_SURFACE_3333, "axis", "full", 0, "d580b6d9e50a90125af51136668eeb3cae7bae4882a6855786479589dfc6259a"),
    ("euler", BOX_SURFACE_3333, "axis", "full", 0, "9f8abc22d8d5a25f5672800336ac12e0131b7f1a26d54c7d5eb9d6e6cbbe40ed"),
    ("check-pseudomanifold", BOX_SURFACE_3333, "axis", "full", 0, "207989e462cc51fdc879a8d800a7eff2688a68ba578fecbe5ca0bf2abe4b1665"),
    # the witness ids map back to points
    ("check-pseudomanifold", ARC, "full", "axis", 1, "f6629d1f3330ae2cdecd6f79a0f513dc5eee71cdddce32c5f2b7ea4eacef7fba"),
    # the provenance bases of cubes at odd negative doubled coordinates floor
    ("build", SCATTER_SHIFTED, "full", "axis", 0, "53d0f65b42e6e7d5c22fc034dbb6066f4d0c07461237316f98d01374a238f542"),
]


@pytest.mark.parametrize(
    "command,points,alpha,beta,code,sha", UNCOVERED, ids=[f"{c[0]}-{i}" for i, c in enumerate(UNCOVERED)]
)
def test_report_bytes_the_golden_file_does_not_cover(command, points, alpha, beta, code, sha, tmp_path):
    path = tmp_path / "input.txt"
    path.write_text(points, encoding="utf-8")
    out = io.StringIO()
    argv = [command, "--points", str(path), "--alpha", alpha, "--beta", beta, "--format", "json"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = main(argv)
    n = len(points.split("\n", 1)[0].split())
    text = RUN.canonical(out.getvalue(), (0,) * n)
    assert (got, hashlib.sha256(text.encode("utf-8")).hexdigest()) == (code, sha)


# good-pair runs the golden file holds only with the default --N and --budget;
# these (exit, sha256) pairs were recorded from the point-based search
GOOD_PAIR = [
    (["--n", "2", "--alpha", "axis", "--beta", "full", "--N", "4"], 0,
     "67cf1587d1fd5ec3fc4882ffcbf25aea3d438765dd97f47b7da43526036ba83a"),
    (["--n", "3", "--alpha", "axis", "--beta", "full", "--budget", "1000"], 3,
     "29d515419898786d58b97fabe106d095cd9e17029b7d7eb532d6ba9eeb0fff52"),
    # recorded before the search counted its rewrites instead of building them
    (["--n", "4", "--alpha", "axis", "--beta", "full"], 0,
     "de5a823ff3aff3f308e07a5d31ba01b85f6ae7eae068a7b22d4ba7d850e8eb1b"),
    (["--n", "3", "--alpha", "axis", "--beta", "full", "--N", "3"], 0,
     "96b0797ea815311932ef1c3f837bc2e00bbf6ac7608c9dba60f3df6b1a0de505"),
]


@pytest.mark.parametrize("args,code,sha", GOOD_PAIR, ids=[" ".join(c[0]) for c in GOOD_PAIR])
def test_good_pair_bytes_under_other_bounds_and_budgets(args, code, sha):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = main(["good-pair", *args, "--format", "json"])
    text = RUN.canonical(out.getvalue(), ())
    assert (got, hashlib.sha256(text.encode("utf-8")).hexdigest()) == (code, sha)


# the default text format of every command; (exit, sha256(stdout),
# sha256(stderr)) recorded from the handlers that each loaded their own
# context and replayed on their own, before one command table fed them
BOX_SURFACE_333 = "".join(
    " ".join(map(str, p)) + "\n" for p in itertools.product(range(3), repeat=3) if {0, 2} & set(p)
)
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
TEXT = [
    (["verify-manifold"], RING_5_5, "axis", "full", 0, "73babe4ee25d084c22763b26fe2b794fbad83acbe5d8588b5148f91f305f2eb0", EMPTY),
    (["verify-manifold"], ARC, "full", "axis", 1, "256ac18e1d60fd9f4e96322398f7d6dd002d9dc391c982fce274dddae30b0098", EMPTY),
    (["check-separation"], PLATE, "full", "axis", 1, "13180dd39f8a7358c9b3e6e0dd79ca4ff5ce7426be340908af3dada659f284b7", EMPTY),
    (["build"], RING_5_5, "axis", "full", 0, "20b60ac157a3adbcab5acb320adaa40ed884d5bb8091854981079c596587e60e", EMPTY),
    (["build", "--format", "off"], BOX_SURFACE_333, "axis", "full", 0,
     "c8eb623369feb3dedd2d6b91da0577581da83e64d442e16d460b8fc7dd6eaaef",
     "aa8e0f402c731134aa909d30b57e9a338604405eb502fc4234d0abfa2eb3abb5"),
    (["check-pseudomanifold"], ARC, "full", "axis", 1, "eaa50d6747259868713f0b29fbed4aa871f4fc1d4ec1da5b4c164059b3b3954d", EMPTY),
    (["euler"], RING_5_5, "axis", "full", 0, "765006c745b19ca579b837e506c42354ab3a4d6da35be0fda40482e0342e3fd3", EMPTY),
    (["jordan"], RING_5_5, "axis", "full", 0, "2d1b9e50db0af00d00f40804f368d49512bd0245f66475804b08f3bc3405945a", EMPTY),
    (["simple-points"], ARC, "full", "axis", 1, "1060635d1807e60d4c6cbc5f3183b14a2235c4b61e463949fcf74da6883ff821", EMPTY),
    (["good-pair", "--n", "2"], None, "full", "full", 1, "400be45faf10c6430b8e5bbd99758f005125f1e5921680d0793d06f9d4378630", EMPTY),
    (["good-pair", "--n", "2"], None, "full", "axis", 0, "616437c5926f93dc8038c873a2623fa772c84a89c91c687ba8fdbacda9b3386f", EMPTY),
    (["good-pair", "--n", "3", "--budget", "1000"], None, "axis", "full", 3,
     "7487f890824bf13be941f853579821e0db5d8ba352b44a0eaa6b847cb4589b6c", EMPTY),
    (["generate", "--kind", "rect-boundary", "--params", "5", "5"], None, None, None, 0,
     "0f4d4880cca28ac7794699fd4d27df6bfe05dbca747201aa9f29f82af9aa7921", EMPTY),
]


@pytest.mark.parametrize(
    "args,points,alpha,beta,code,out_sha,err_sha", TEXT, ids=[f"{c[0][0]}-{i}" for i, c in enumerate(TEXT)]
)
def test_text_report_bytes(args, points, alpha, beta, code, out_sha, err_sha, tmp_path):
    argv = list(args)
    if points is not None:
        path = tmp_path / "input.txt"
        path.write_text(points, encoding="utf-8")
        argv += ["--points", str(path)]
    if alpha is not None:
        argv += ["--alpha", alpha, "--beta", beta]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main(argv)
    digest = [hashlib.sha256(s.getvalue().encode("utf-8")).hexdigest() for s in (out, err)]
    assert (got, *digest) == (code, out_sha, err_sha)
