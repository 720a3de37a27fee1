"""Command-line front door.

Exit codes: 0 = property holds / build succeeded, 1 = property fails
(witness printed), 2 = usage or input error, 3 = bounded search
inconclusive, 4 = internal error.  Identical inputs produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__, jordan, manifold, pseudomanifold, separation
from .adjacency import DEFAULT_BUDGET, AdjacencyPair, Region
from .fileio import InputFormatError, format_points, load_points, parse_adjacency_arg
from .jordan import GENERATORS, jordan_check, simple_point_witness, window_sides
from .manifold import check_manifold, is_good_pair, is_simple_point
from .pseudomanifold import is_pseudomanifold
from .separation import has_separation_property
from .simplicial import (
    build_complexes,
    build_reduced_complex,
    complex_to_json,
    complex_to_off,
    euler_characteristics,
)
from .verdict import wrong_dimension

_INT = {int}  # exact: %d would print a bool as 1
MAX_CELLS = 1_000_000  # the default --max-cells, and the bound of every generated set's window

_REPLAYS = {**manifold.REPLAYS, **separation.REPLAYS, **jordan.REPLAYS, **pseudomanifold.REPLAYS}


def _add_common(p: argparse.ArgumentParser, points: bool, formats: tuple[str, ...], replay: bool) -> None:
    if points:
        p.add_argument("--points", required=True, help="point-set file")
    p.add_argument("--alpha", default="full", help="foreground adjacency: axis|full|custom:PATH")
    p.add_argument("--beta", default="axis", help="background adjacency: axis|full|custom:PATH")
    p.add_argument("--n", type=int, default=None, help="dimension (inferred from points if given)")
    p.add_argument("--margin", type=int, default=2, help="analysis margin around the set")
    p.add_argument("--N", type=int, default=2, dest="bound", help="path-rewrite bound")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search budget")
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("-o", "--output", default=None, help="write the report here instead of stdout")
    p.add_argument("--max-cells", type=int, default=MAX_CELLS, help="largest analysis window, in cells")
    if replay:
        p.add_argument("--replay", default=None, help="re-verify the witnesses of a saved JSON report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitop",
        description="digital-topology toolkit: manifolds, good pairs, complexes, separation",
    )
    parser.add_argument("--version", action="version", version=f"digitop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (needs_points, formats, replay, _) in _COMMANDS.items():
        _add_common(sub.add_parser(name), needs_points, formats, replay)

    g = sub.add_parser("generate")
    g.add_argument("--kind", required=True, choices=tuple(GENERATORS))
    g.add_argument("--params", required=True, type=int, nargs="+", help="generator parameters")
    g.add_argument("--format", choices=("text", "json"), default="text")
    g.add_argument("-o", "--output", default=None)
    return parser


_parser = lru_cache(maxsize=1)(build_parser)  # main reuses one parser: parsing leaves it unchanged


def _cells(sides: Iterable[int], cap: int) -> int:
    """The product of the window sides, or the first partial product over
    ``cap``: it stops there, however many axes."""
    cells = 1
    for side in sides:
        cells *= side
        if cells > cap:
            break
    return cells


def _window(args: argparse.Namespace, points, margin: int) -> Region:
    """The analysis window; one of more than ``--max-cells`` cells is refused before anything labels it."""
    region = Region.around(points, margin)
    sides = [b - a + 1 for a, b in zip(region.lo, region.hi)]
    cells = _cells(sides, args.max_cells)
    if cells > args.max_cells:
        # the exact count, unless it has more digits than Python prints (4300)
        count = math.prod(sides) if sum(map(math.log10, sides)) < 4299 else f"at least {cells}"
        raise InputFormatError(f"the analysis window has {count} cells, more than --max-cells {args.max_cells}")
    return region


def _load_context(args: argparse.Namespace):
    points = None
    n = args.n
    if getattr(args, "points", None) is not None:
        points, dim = load_points(args.points)
        if n is not None and n != dim:
            raise InputFormatError(f"--n {n} contradicts point dimension {dim}")
        n = dim
    if n is None:
        raise InputFormatError("--n is required when no point set is given")
    if n < 2:
        raise InputFormatError("--n must be at least 2")
    if args.margin < 2:
        raise InputFormatError("--margin must be at least 2")
    if args.bound < 1:
        raise InputFormatError("--N must be at least 1")
    if args.budget < 0:
        raise InputFormatError("--budget must be nonnegative")
    if args.max_cells < 1:
        raise InputFormatError("--max-cells must be at least 1")
    # windows are bounded before any adjacency (up to 3^n - 1 offsets) is built;
    # good-pair's sphere check floods the origin's background sphere, which
    # spans [-1, 1]^n, at margin 2: the box [-3, 3]^n
    if args.command == "good-pair":
        _window(args, ((-1,) * n, (1,) * n), 2)
    region = _window(args, points, args.margin) if points else None
    pair = AdjacencyPair(parse_adjacency_arg(args.alpha, n), parse_adjacency_arg(args.beta, n))
    return points, n, pair, region


def _config(args: argparse.Namespace, n: int) -> dict:
    return {
        "command": args.command,
        "points": getattr(args, "points", None),
        "alpha": getattr(args, "alpha", None),
        "beta": getattr(args, "beta", None),
        "n": n,
        "margin": getattr(args, "margin", None),
        "N": getattr(args, "bound", None),
        "budget": getattr(args, "budget", None),
        "format": args.format,
        "output": args.output,
    }


def _row(n: int, indent: str) -> str:
    """The template of a list of n ints that closes at ``indent``: one ``%d`` per int."""
    if not n:
        return "[]"
    cell = ",\n" + indent + "  "
    return "[\n" + indent + "  " + cell.join(["%d"] * n) + "\n" + indent + "]"


def _flat_ints(rows: list) -> tuple | None:
    """The ints of rows in order, if every row is a list or tuple of exact ints, else None."""
    if {list, tuple}.issuperset(map(type, rows)):
        flat = tuple(chain.from_iterable(rows))
        if _INT.issuperset(map(type, flat)):
            return flat
    return None


def _records(keys: list[str], values: list, indent: str) -> str | None:
    """A dict whose values are dicts of one key set, each field a list of ints
    (the provenance map), as one template per tuple of field lengths filled by
    one ``%``; None for any other dict."""
    first = values[0]
    if not {dict}.issuperset(map(type, values)) or not first:
        return None
    if not all(map(first.keys().__eq__, map(dict.keys, values))):
        return None
    fields = sorted(first)
    columns = [list(map(itemgetter(f), values)) for f in fields]
    if any(_flat_ints(c) is None for c in columns):
        return None
    inner, field_indent = indent + "  ", indent + "    "
    names = [encode_basestring_ascii(f).replace("%", "%%") + ": " for f in fields]
    sep = ",\n" + field_indent

    def template(lengths: tuple[int, ...]) -> str:
        body = sep.join([name + _row(n, field_indent) for name, n in zip(names, lengths)])
        return "%s: {\n" + field_indent + body + "\n" + inner + "}"

    shapes = list(zip(*[map(len, c) for c in columns]))
    templates = {s: template(s) for s in set(shapes)}
    text = (",\n" + inner).join(map(templates.__getitem__, shapes))
    # per record: its encoded key, then the ints of each field in order
    args = chain.from_iterable(chain.from_iterable(zip(zip(map(encode_basestring_ascii, keys)), *columns)))
    return f"{{\n{inner}{text % tuple(args)}\n{indent}}}"


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for str-keyed values.

    The stdlib's indented encoder is pure Python.  This writer fills a list of
    ints, a block of int rows or a dict of int-list records (the provenance
    map) from one ``%d`` template each, in one ``%``; everything else recurses.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys = sorted(value)
        values = list(map(value.__getitem__, keys))
        text = _records(keys, values, indent)
        if text is None:
            items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in zip(keys, values)]
            text = f"{{\n{inner}{sep.join(items)}\n{indent}}}"
        return text
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _INT.issuperset(map(type, value)):
            return _row(len(value), indent) % tuple(value)
        flat = _flat_ints(value)
        if flat is not None:
            lengths = list(map(len, value))
            templates = {n: _row(n, inner) for n in set(lengths)}
            return f"[\n{inner}{sep.join(map(templates.__getitem__, lengths)) % flat}\n{indent}]"
        return f"[\n{inner}{sep.join([_json(x, inner) for x in value])}\n{indent}]"
    return json.dumps(value)


def _report(args: argparse.Namespace, config: dict, result: dict, witnesses: list[dict], lines: list[str]) -> None:
    if args.format == "json":
        envelope = {
            "tool": "digitop",
            "version": __version__,
            "config": config,
            "result": result,
            "witnesses": witnesses,
        }
        text = _json(envelope) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputFormatError(f"{args.output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)  # every report ends in a newline


def _maybe_replay(args: argparse.Namespace, mset, pair: AdjacencyPair) -> int | None:
    """Returns an exit code when replay handled the invocation, else None.
    Replay uses the window of the report's margin; ``--margin`` if it has no config."""
    if not getattr(args, "replay", None):
        return None
    try:
        saved = json.loads(Path(args.replay).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputFormatError(f"{args.replay}: {exc}") from exc
    witnesses = saved.get("witnesses", []) if isinstance(saved, dict) else None
    if not isinstance(witnesses, list) or not all(isinstance(w, dict) for w in witnesses):
        raise InputFormatError(f"{args.replay}: not a digitop report")
    config = saved.get("config", {"margin": args.margin})
    margin = config.get("margin") if isinstance(config, dict) else None
    if type(margin) is not int or margin < 2:
        raise InputFormatError(f"{args.replay}: config.margin must be an integer >= 2, got {margin!r}")
    if not witnesses:
        return None  # passing report: fall through to a fresh run
    region = _window(args, mset, margin)
    try:
        for w in witnesses:
            kind = w.get("kind")
            if not isinstance(kind, str) or kind not in _REPLAYS:
                raise InputFormatError(f"cannot replay witness kind {kind!r}")
            bad = wrong_dimension(w, pair.n)
            if bad is not None:
                raise InputFormatError(f"{args.replay}: {kind} witness is not of dimension {pair.n}: {bad}")
        for w in witnesses:
            ok = _REPLAYS[w["kind"]](w, mset, pair, region)
            print(f"replay {w['kind']}: {'violation reproduced' if ok else 'NOT reproduced'}")
            if not ok:
                return 2
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"{args.replay}: malformed {w['kind']} witness: {exc!r}") from exc
    return 1


def _witness_line(w: dict) -> str:
    return f"  witness: {json.dumps(w, sort_keys=True)}"


def _verdict_lines(report) -> list[str]:
    """One line per verdict of a ``Checks`` report, then one per witness."""
    lines = [f"{name.replace('_', '-')}: {verdict.holds}" for name, verdict in report.verdicts()]
    return lines + [_witness_line(w) for w in report.witnesses()]


# each command returns (result, witnesses, text lines, exit code), which
# main reports
Outcome = tuple[dict, list[dict], list[str], int]


def _cmd_verify_manifold(args: argparse.Namespace, mset, pair: AdjacencyPair, region) -> Outcome:
    report = check_manifold(mset, pair, region)
    lines = [f"certified: {report.certified}"]
    for name, verdict in report.verdicts():
        lines.append(f"{name.replace('_', '-')}: {verdict.holds}")
        if not verdict.holds and verdict.witness:
            lines.append(_witness_line(verdict.witness))
    return report.to_json(), report.witnesses(), lines, 0 if report.certified else 1


def _cmd_check_separation(args: argparse.Namespace, mset, pair: AdjacencyPair, region) -> Outcome:
    verdict = has_separation_property(mset, pair, region)
    witnesses = [verdict.witness] if verdict.witness else []
    lines = [f"separation: {verdict.holds}", *map(_witness_line, witnesses)]
    return verdict.to_json(), witnesses, lines, 0 if verdict.holds else 1


def _cmd_build(args: argparse.Namespace, mset, pair: AdjacencyPair, region) -> Outcome:
    if args.format == "off":  # the text report of its lines is the OFF text
        text, skipped = complex_to_off(build_reduced_complex(mset, pair))
        if skipped:
            print(
                f"warning: {skipped} simplices of dimension < 2 are not representable in OFF",
                file=sys.stderr,
            )
        return {}, [], text.splitlines(), 0
    full, reduced = build_complexes(mset, pair)
    lines = [
        f"{name}: {len(k)} simplices on {len(k.table)} vertices"
        for name, k in (("K", full), ("K'", reduced))
    ]
    # text reports only the counts, so the JSON form is built for JSON alone
    result = {"K": complex_to_json(full), "K_prime": complex_to_json(reduced)} if args.format == "json" else {}
    return result, [], lines, 0


def _cmd_check_pseudomanifold(args: argparse.Namespace, mset, pair: AdjacencyPair, region) -> Outcome:
    report = is_pseudomanifold(build_reduced_complex(mset, pair), pair.n - 1)
    lines = [f"pseudomanifold (dimension {report.dimension}): {report.all_hold}", *_verdict_lines(report)]
    return report.to_json(), report.witnesses(), lines, 0 if report.all_hold else 1


def _cmd_euler(args: argparse.Namespace, mset, pair: AdjacencyPair, region) -> Outcome:
    chi, chi_prime = euler_characteristics(mset, pair)
    return {"chi_K": chi, "chi_K_prime": chi_prime}, [], [f"chi(K) = {chi}", f"chi(K') = {chi_prime}"], 0


def _cmd_jordan(args: argparse.Namespace, mset, pair: AdjacencyPair, region) -> Outcome:
    report = jordan_check(mset, pair, margin=args.margin)
    lines = [
        f"all-true: {report.all_true}",
        f"two-components: {report.two_components} (count {report.component_count})",
        f"inside-size: {report.inside_size}",
        f"outside-flagged: {report.outside_flagged}",
        *_verdict_lines(report),
    ]
    return report.to_json(), report.witnesses(), lines, 0 if report.all_true else 1


def _cmd_good_pair(args: argparse.Namespace, mset, pair: AdjacencyPair, region) -> Outcome:
    report = is_good_pair(pair, bound=args.bound, budget=args.budget)
    lines = [
        f"good-pair: {report.verdict}",
        f"separating: {report.separating}",
        f"contractibility: {report.contractibility}",
        f"double-points: {len(report.double_point_witnesses)}",
        *map(_witness_line, report.double_point_witnesses),
    ]
    return report.to_json(), report.witnesses(), lines, {"yes": 0, "no": 1}.get(report.verdict, 3)


def _cmd_simple_points(args: argparse.Namespace, mset, pair: AdjacencyPair, region) -> Outcome:
    simple = [p for p in sorted(mset) if is_simple_point(p, mset, pair, region)]
    result = {"simple_points": [list(p) for p in simple], "count": len(simple)}
    witnesses = [simple_point_witness(p) for p in simple]
    lines = [f"simple points: {len(simple)}"] + [f"  {' '.join(map(str, p))}" for p in simple]
    return result, witnesses, lines, 0 if not simple else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        cells = _cells(window_sides(args.kind, args.params), MAX_CELLS)
        if cells > MAX_CELLS:
            raise ValueError(f"its margin-2 window has at least {cells} cells; the --max-cells default is {MAX_CELLS}")
        points = GENERATORS[args.kind](*args.params)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"generate {args.kind}: {exc}") from exc
    config = {"command": "generate", "kind": args.kind, "params": list(args.params)}
    result = {"points": [list(p) for p in sorted(points)], "count": len(points)}
    _report(args, config, result, [], format_points(points).splitlines())
    return 0


# name: (needs --points, report formats, can replay, handler); only build
# writes OFF, and only reports with witnesses can be replayed
_COMMANDS = {
    "verify-manifold": (True, ("text", "json"), True, _cmd_verify_manifold),
    "check-separation": (True, ("text", "json"), True, _cmd_check_separation),
    "build": (True, ("text", "json", "off"), False, _cmd_build),
    "check-pseudomanifold": (True, ("text", "json"), True, _cmd_check_pseudomanifold),
    "euler": (True, ("text", "json"), False, _cmd_euler),
    "jordan": (True, ("text", "json"), True, _cmd_jordan),
    "good-pair": (False, ("text", "json"), True, _cmd_good_pair),
    "simple-points": (True, ("text", "json"), True, _cmd_simple_points),
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        mset, n, pair, region = _load_context(args)
        # witnesses of a good-pair report live on the origin's background sphere
        code = _maybe_replay(args, pair.beta.offsets if args.command == "good-pair" else mset, pair)
        if code is not None:
            return code
        result, witnesses, lines, code = _COMMANDS[args.command][3](args, mset, pair, region)
        _report(args, _config(args, n), result, witnesses, lines)
        return code
    except ValueError as exc:  # InputFormatError and NotCertifiedError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # an inconsistency the checks assert cannot happen: a bug, not a verdict
        print(f"error: internal: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
