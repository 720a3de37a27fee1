"""digitop benchmark: one closed-loop client driving the CLI in process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

The seed draws the inputs (sides, translations, deleted points), which are
written as point files before timing starts; the program sees only those
files and its argv.  Jobs run one after another in this process with
``DIGITOP_THREADS`` unset.  Every output is checked against the recorded
expectations in ``golden.json``; a job with a wrong exit code or report, or
one that raised, is a failure.  The last stdout line is the JSON result.

``--trace 0`` reports the end-to-end metrics, with every time scaled to a
reference host speed by the probe of ``probe.py``.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead; its end-to-end numbers are never reported.

``--record-golden`` re-records ``golden.json`` from the program as it is,
over every job any seed can draw.  See NOTES.md for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from probe import HostProbe  # noqa: E402
from spans import COUNTERS, Tracer  # noqa: E402

GOLDEN = BENCH / "golden.json"
WORK = Path("perfbench") / "work"
# Set-ups timed at the start of every cycle of passes, so that setup_s is the
# median over the whole run rather than over one moment of it
SETUP_REPS = 8
MODULES = ("digitop", "digitop.cli")

# Report keys whose values hold lattice points, and those holding doubled
# (half-integer grid) vertices; both are moved back by the input's translation.
POINT_KEYS = frozenset(
    {"point", "p", "q", "r", "z", "base", "components", "side", "missing_component"}
)
DOUBLED_KEYS = frozenset({"vertices", "simplex", "other", "face"})


def _shift(value, delta):
    if isinstance(value, list):
        if len(value) == len(delta) and all(type(c) is int for c in value):
            return [c - d for c, d in zip(value, delta)]
        return [_shift(v, delta) for v in value]
    return value


def normalize(obj, shift):
    """The report as the untranslated input would give it, paths blanked."""
    doubled = tuple(2 * c for c in shift)

    def walk(node):
        if isinstance(node, dict):
            out = {}
            for k, v in node.items():
                if k in POINT_KEYS:
                    out[k] = _shift(v, shift)
                elif k in DOUBLED_KEYS:
                    out[k] = _shift(v, doubled)
                else:
                    out[k] = walk(v)
            return out
        if isinstance(node, list):
            return [walk(v) for v in node]
        return node

    out = walk(obj)
    config = out.get("config")
    if isinstance(config, dict):
        for k in ("points", "output"):
            if config.get(k) is not None:
                config[k] = f"<{k}>"
    return out


def canonical(text: str, shift) -> str:
    """JSON outputs normalized and re-serialized as the CLI does; text as is."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return text
    return json.dumps(normalize(obj, shift), sort_keys=True, indent=2) + "\n"


@dataclass
class Outcome:
    job: workloads.Job
    code: int | None
    output: object  # stdout or report text; a dict for library jobs
    stderr: str
    error: str | None
    seconds: float
    probes: tuple[int, int] | None = None  # the probes that fell into the job


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer: Tracer | None = None
        self.probe: HostProbe | None = None

    def mark(self) -> int | None:
        return self.probe.mark() if self.probe else None

    def clock(self, start: float, mark: int | None) -> tuple[float, tuple[int, int] | None]:
        """Seconds since ``start`` less the probes since ``mark``, and the
        range of those probes, from which the span's host speed is taken."""
        seconds = time.perf_counter() - start
        if self.probe is None:
            return seconds, None
        return seconds - self.probe.since(mark), (mark, self.probe.mark())

    # -- set-up ---------------------------------------------------------

    def setup_once(self) -> tuple[tuple, str]:
        """Fresh import, seeded inputs, file writes; returns (clock, digest)."""
        start, mark = time.perf_counter(), self.mark()
        for name in [k for k in sys.modules if k == "digitop" or k.startswith("digitop.")]:
            del sys.modules[name]
        for name in MODULES:
            importlib.import_module(name)
        self.jobs, self.shifts = workloads.draw(self.workload, self.seed)
        self.paths = self.write_inputs(self.shifts)
        elapsed = self.clock(start, mark)
        digest = hashlib.sha256()
        for path in self.paths.values():
            digest.update(Path(path).read_bytes())
        return elapsed, digest.hexdigest()

    def write_inputs(self, shifts) -> dict:
        self.workdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for i, (shape, shift) in enumerate(shifts.items()):
            moved = sorted(tuple(c + d for c, d in zip(p, shift)) for p in shape.points())
            path = self.workdir / f"in{i:03d}.txt"
            path.write_text("".join(" ".join(map(str, p)) + "\n" for p in moved), encoding="utf-8")
            paths[shape] = str(path)
        return paths

    # -- one pass -------------------------------------------------------

    def run_job(self, job: workloads.Job) -> Outcome:
        points = self.paths.get(job.shape)
        report = report_path(points)
        if job.command == "verify-manifold":
            Path(report).unlink(missing_ok=True)  # a stale report must not pass
        out, err = io.StringIO(), io.StringIO()
        code, error, output = None, None, None
        start, mark = time.perf_counter(), self.mark()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if job.command == "library":
                    output = library_job(points, job.pair)
                    code = 0
                else:
                    code = sys.modules["digitop.cli"].main(job.argv(points, report))
        except Exception:
            error = traceback.format_exc()
        seconds, probes = self.clock(start, mark)
        if output is None:
            output = out.getvalue()
        return Outcome(job, code, output, err.getvalue(), error, seconds, probes)

    def run_pass(self, traced: bool) -> tuple[tuple, list[Outcome]]:
        gc.collect()
        if traced:
            self.tracer.reset()
            self.tracer.install()
        try:
            outcomes = []
            start, mark = time.perf_counter(), self.mark()
            for i, job in enumerate(self.jobs):
                if traced:
                    self.tracer.job = i + 1
                outcomes.append(self.run_job(job))
            wall = self.clock(start, mark)
        finally:
            if traced:
                self.tracer.remove()
        for o in outcomes:
            if o.job.command == "verify-manifold" and o.error is None:
                report = Path(report_path(self.paths[o.job.shape]))
                if report.is_file():
                    o.output = report.read_text(encoding="utf-8")
                else:
                    o.error = f"no report written to {report}"
        return wall, outcomes

    # -- checking -------------------------------------------------------

    def shift_of(self, job: workloads.Job):
        return self.shifts.get(job.shape, ())

    def digest(self, o: Outcome) -> str:
        if isinstance(o.output, dict):
            text = json.dumps(normalize(o.output, self.shift_of(o.job)), sort_keys=True)
        else:
            text = canonical(o.output, self.shift_of(o.job))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def check(self, o: Outcome, golden: dict) -> str | None:
        """None when the outcome matches its recorded expectation."""
        if o.error:
            return "raised: " + o.error.strip().splitlines()[-1]
        if "Traceback" in o.stderr:
            return "traceback on stderr"
        expected = golden.get(o.job.key)
        if expected is None:
            return "no recorded expectation"
        if o.code != expected["exit"]:
            return f"exit {o.code}, expected {expected['exit']}"
        if "result" in expected:
            if normalize(o.output, self.shift_of(o.job)) != expected["result"]:
                return "library verdict differs"
        elif self.digest(o) != expected["sha256"]:
            return "report digest differs"
        return None


def report_path(points: str | None) -> str | None:
    """Where verify-manifold writes the report of an input, for its replay."""
    return points and points[: -len(".txt")] + ".report.json"


def library_job(points: str, pair: tuple[str, str]) -> dict:
    """verify_complex_axioms(K') and lattice_correspondence(K, M), plus chi."""
    fileio = sys.modules["digitop.fileio"]
    simplicial = sys.modules["digitop.simplicial"]
    m, n = fileio.load_points(points)
    adj = sys.modules["digitop.adjacency"].AdjacencyPair(
        fileio.parse_adjacency_arg(pair[0], n), fileio.parse_adjacency_arg(pair[1], n)
    )
    k = simplicial.build_complex(m, adj)
    reduced = simplicial.reduce_complex(k, m, adj)
    axioms = simplicial.verify_complex_axioms(reduced)
    corr = simplicial.lattice_correspondence(k, m)
    return {
        "axioms": {"holds": axioms[0], "witness": axioms[1]},
        "correspondence": {"holds": corr[0], "witness": corr[1]},
        "chi_K": simplicial.euler_characteristic(k),
        "chi_K_prime": simplicial.euler_characteristic(reduced),
    }


# -- metrics ---------------------------------------------------------------


def _module_self(rows: dict, module: str) -> float:
    return sum(r["self_s"] for name, r in rows.items() if name.split(".")[0] == module)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _row(rows: dict, name: str, field: str):
    return rows.get(name, {}).get(field, 0)


# Per-layer metrics that are not a plain "<span>.<field>" of the layer table;
# trace.overhead_s comes from the wall times, not the table.
LAYER_SPECIAL = {
    "lattice.self_s": lambda rows: _module_self(rows, "lattice"),
    "fileio.self_s": lambda rows: _module_self(rows, "fileio"),
    "fileio.bytes_read": lambda rows: _row(rows, "fileio.load", "bytes"),
    "simplicial.bary.tests": lambda rows: _row(rows, "simplicial.bary", "calls"),
    "simplicial.bary.distinct_ratio": lambda rows: _ratio(
        _row(rows, "simplicial.bary", "distinct"), _row(rows, "simplicial.bary", "calls")
    ),
    "simplicial.axioms.candidate_ratio": lambda rows: _ratio(
        _row(rows, "exact.lp", "calls"), _row(rows, "simplicial.axioms", "pairs")
    ),
}
END_TO_END = ("setup_s", "wall_s", "job_ms_p50", "largest_job_s", "peak_rss_mb")


def layer_value(name: str, rows: dict):
    if name in LAYER_SPECIAL:
        return LAYER_SPECIAL[name](rows)
    span, field = name.rsplit(".", 1)
    return _row(rows, span, field)


def declared_metrics() -> dict[str, list[tuple[str, str]]]:
    """(name, unit) of the metrics BENCHMARK.json declares; each must be computable."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {
        kind: [(m["name"], m["unit"]) for m in spec[kind]] for kind in ("end_to_end", "per_layer")
    }
    for name, _ in out["end_to_end"]:
        if name not in END_TO_END:
            raise ValueError(f"BENCHMARK.json declares {name}, which run.py does not measure")
    for name, _ in out["per_layer"]:
        span, field = name.rsplit(".", 1)
        fields = ("calls", "self_s", "incl_s", *COUNTERS.get(span, ()))
        known = name in LAYER_SPECIAL or name == "trace.overhead_s"
        if not known and (span not in COUNTERS or field not in fields):
            raise ValueError(f"BENCHMARK.json declares {name}, which the tracer does not record")
    return out


def env_stamp(seed: int, threads_env: str | None) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": nproc(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "DIGITOP_THREADS": "unset" if threads_env is None else f"unset (was {threads_env!r})",
    }


def nproc() -> int | None:
    """CPUs this process may run on, as nproc counts them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def git_commit() -> str:
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- entry points ----------------------------------------------------------


def measure(args, golden: dict, declared: dict) -> int:
    bench = Bench(args.workload, args.seed, WORK / args.workload)
    problems = []
    if args.trace:
        bench.tracer = Tracer()
    else:
        bench.probe = HostProbe()
        bench.probe.start()
    try:
        return run_cycles(args, bench, golden, declared, problems)
    finally:
        if bench.probe:
            bench.probe.stop()


def run_cycles(args, bench: Bench, golden: dict, declared: dict, problems: list) -> int:
    # Timings are clocks, (seconds, range of the probes that fell into them)
    attempted = failed = 0
    walls, traced_walls, layer_rows, rss = [], [], [], None
    latencies: dict[int, list] = {}  # job index in the pass -> its clocks
    setups, input_digests = [], set()
    tamper_checked = False
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for _ in range(SETUP_REPS):
            clock, digest = bench.setup_once()
            setups.append(clock)
            input_digests.add(digest)
        kinds = (False, True) if args.trace else (False,)
        digests = {}
        for traced in kinds:
            wall, outcomes = bench.run_pass(traced)
            if rss is None:
                rss = peak_rss_mb()
            attempted += len(outcomes)
            for i, o in enumerate(outcomes):
                why = bench.check(o, golden)
                if why:
                    failed += 1
                    print(f"FAIL job {i} {o.job.key}: {why}", file=sys.stderr)
                if args.trace:
                    digests.setdefault(traced, []).append(bench.digest(o))
            if traced:
                traced_walls.append(wall[0])
                layer_rows.append(bench.tracer.table())
            else:
                walls.append(wall)
                for i, o in enumerate(outcomes):
                    latencies.setdefault(i, []).append((o.seconds, o.probes))
            if not tamper_checked:
                tamper_checked = True
                problem = tamper_problem(bench, outcomes, golden)
                if problem:
                    problems.append(problem)
        if args.trace and digests[True] != digests[False]:
            problems.append("self-check: traced and untraced passes gave different reports")
        cycle = time.perf_counter() - cycle_start
        if time.perf_counter() - start + cycle > args.seconds:
            break

    if len(input_digests) != 1:
        problems.append("self-check: the same seed wrote different input files")
    njobs = len(bench.jobs)
    print(f"passes: {len(walls)} untraced, {len(traced_walls)} traced; {njobs} jobs per pass")
    print(f"attempted {attempted}, failed {failed}, fail_ratio {failed / attempted:.4f}")
    for p in problems:
        print(p, file=sys.stderr)
    if args.trace:
        untraced = [seconds for seconds, _ in walls]
        values = trace_values(bench, layer_rows, untraced, traced_walls, args, declared)
    else:
        largest = next(i for i, j in enumerate(bench.jobs) if j.largest)
        values = time_values(
            setups, walls, latencies, largest, lambda clock: bench.probe.factor_over(*clock[1])
        )
        raw = time_values(setups, walls, latencies, largest, lambda clock: 1.0)
        values["peak_rss_mb"] = rss
        print(f"setup_s is the median of {len(setups)} set-ups")
        print(f"wall_s is the mean of {len(walls)} passes; a job's latency is its mean")
        print(f"job_ms_p50 is the median of {njobs} job latencies")
        print(f"largest job: {bench.jobs[largest].key}")
        probe = bench.probe
        print(f"host speed factor {probe.factor():.4f} over {len(probe.samples)} probes")
        print("unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared[kind]}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def time_values(setups, walls, latencies, largest: int, speed) -> dict:
    """The end-to-end times, each clock divided by ``speed(clock)``.

    Scaled by the host speed factor, they are times at the reference speed
    of probe.py, which stay put while the shared host speeds up and slows
    down.
    """

    def scaled(clocks):
        return [clock[0] / speed(clock) for clock in clocks]

    means = [statistics.fmean(scaled(latencies[i])) for i in range(len(latencies))]
    return {
        "setup_s": statistics.median(scaled(setups)),
        "wall_s": statistics.fmean(scaled(walls)),
        "job_ms_p50": statistics.median(means) * 1000,
        "largest_job_s": means[largest],
    }


def tamper_problem(bench: Bench, outcomes: list[Outcome], golden: dict) -> str | None:
    """Change one digit of the first passing JSON report; the check must reject it."""
    for o in outcomes:
        is_json = isinstance(o.output, str) and o.output.startswith("{")
        if is_json and bench.check(o, golden) is None:
            i = next(i for i, ch in enumerate(o.output) if ch.isdigit())
            bad = o.output[:i] + str((int(o.output[i]) + 1) % 10) + o.output[i + 1 :]
            tampered = Outcome(o.job, o.code, bad, o.stderr, o.error, o.seconds)
            if bench.check(tampered, golden) is None:
                return "self-check: a tampered report passed the check"
            return None
    return "self-check: no passing JSON report to tamper with"


def trace_values(bench: Bench, layer_rows, walls, traced_walls, args, declared) -> dict:
    table = layer_rows[-1]
    print(f"{'span':28s} {'calls':>9s} {'incl_s':>10s} {'self_s':>10s}  counts")
    for name, row in sorted(table.items()):
        counts = " ".join(
            f"{k}={v}" for k, v in row.items() if k not in ("calls", "incl_s", "self_s")
        )
        print(f"{name:28s} {row['calls']:9d} {row['incl_s']:10.4f} {row['self_s']:10.4f}  {counts}")
    dump = WORK / f"trace-{args.workload}-seed{args.seed}.tsv"
    bench.tracer.dump(str(dump))
    print(f"span dump: {dump} ({len(bench.tracer.spans)} spans of the last traced pass)")
    values = {
        name: statistics.median(layer_value(name, rows) for rows in layer_rows)
        for name, _ in declared["per_layer"]
        if name != "trace.overhead_s"
    }
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return values


def record_golden(names: list[str]) -> int:
    """Run every job of the named workloads' universes untranslated, once."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"workloads": {}}
    bad = 0
    for name in names:
        bench = Bench(name, 0, WORK / f"record-{name}")
        for mod in MODULES:
            importlib.import_module(mod)
        bench.jobs = workloads.universe(name)
        bench.shifts = {j.shape: (0,) * j.shape.dim for j in bench.jobs if j.shape}
        bench.paths = bench.write_inputs(bench.shifts)
        _, outcomes = bench.run_pass(traced=False)
        entries = {}
        for o in outcomes:
            if o.error or "Traceback" in o.stderr or o.code not in (0, 1, 3):
                why = o.error or o.stderr
                print(f"refusing to record {o.job.key}: exit {o.code} {why}", file=sys.stderr)
                bad += 1
            elif isinstance(o.output, dict):
                entries[o.job.key] = {"exit": o.code, "result": normalize(o.output, ())}
            else:
                entries[o.job.key] = {"exit": o.code, "sha256": bench.digest(o)}
        golden["workloads"][name] = dict(sorted(entries.items()))
        print(f"{name}: {len(entries)} jobs recorded in {sum(o.seconds for o in outcomes):.1f} s")
    if bad:
        return 1
    golden["recorded_from"] = {"commit": git_commit(), "python": platform.python_version()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-golden", action="store_true", help="re-record golden.json and exit"
    )
    args = parser.parse_args(argv)

    if not Path("src/digitop/__init__.py").is_file():
        print(
            "error: run from the root of a digitop checkout (src/digitop not found)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    threads_env = os.environ.pop("DIGITOP_THREADS", None)

    if args.record_golden:
        return record_golden([args.workload] if args.workload else sorted(workloads.WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")
    golden = json.loads(GOLDEN.read_text())["workloads"][args.workload]
    declared = declared_metrics()
    print(
        f"digitop benchmark: workload={args.workload} seed={args.seed}"
        f" seconds={args.seconds} trace={args.trace}"
    )
    print("env: " + json.dumps(env_stamp(args.seed, threads_env), sort_keys=True))
    return measure(args, golden, declared)


if __name__ == "__main__":
    sys.exit(main())
