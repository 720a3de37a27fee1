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
    ("witness", ["good-pair n=2 full/axis"]),
    ("witness", ["good-pair n=2 axis/full"]),
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
