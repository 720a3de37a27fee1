"""Text formats: point sets and adjacency specifications.

Point sets are UTF-8 lines of space-separated integers; ``#`` starts a
comment and blank lines are ignored.  The dimension is inferred from the
first data line and enforced afterwards.  Adjacency arguments are the
literal names ``axis`` and ``full`` or ``custom:PATH`` where the file lists
one offset vector per line; symmetry is validated on load, never completed.
"""

from __future__ import annotations

from pathlib import Path as FsPath
from typing import Iterable

from .adjacency import AdjacencySpec, axis_adjacency, custom_adjacency, full_adjacency
from .lattice import Point


class InputFormatError(ValueError):
    """Malformed input file; carries a line-numbered message."""


def _read_text(fs: FsPath) -> str:
    try:
        return fs.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputFormatError(f"{fs}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{fs}: not UTF-8 text: {exc}") from exc


def _vectors(text: str, source: str, n: int | None = None) -> tuple[list[Point], int | None]:
    """The integer vectors of the data lines, each of ``n`` coordinates;
    unless ``n`` is given, the first line sets it, and it must be at least 2."""
    vectors: list[Point] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            vec = tuple(map(int, line.split()))
        except ValueError as exc:
            raise InputFormatError(f"{source}:{lineno}: not an integer vector: {line!r}") from exc
        if n is None:
            n = len(vec)
            if n < 2:
                raise InputFormatError(f"{source}:{lineno}: dimension must be at least 2")
        elif len(vec) != n:
            raise InputFormatError(f"{source}:{lineno}: expected {n} coordinates, found {len(vec)}")
        vectors.append(vec)
    return vectors, n


def parse_points(text: str, source: str = "<input>") -> tuple[frozenset[Point], int]:
    points, n = _vectors(text, source)
    if n is None:
        raise InputFormatError(f"{source}: no data lines")
    return frozenset(points), n


def load_points(path: str | FsPath) -> tuple[frozenset[Point], int]:
    fs = FsPath(path)
    return parse_points(_read_text(fs), source=str(fs))


def format_points(points: Iterable[Point]) -> str:
    return "\n".join(" ".join(str(c) for c in p) for p in sorted(points)) + "\n"


def parse_adjacency_arg(value: str, n: int) -> AdjacencySpec:
    if value == "axis":
        return axis_adjacency(n)
    if value == "full":
        return full_adjacency(n)
    if value.startswith("custom:"):
        return load_adjacency_file(value[len("custom:") :], n)
    raise InputFormatError(
        f"unknown adjacency {value!r}: expected axis, full or custom:PATH"
    )


def load_adjacency_file(path: str | FsPath, n: int) -> AdjacencySpec:
    fs = FsPath(path)
    offsets, _ = _vectors(_read_text(fs), str(fs), n)
    try:
        return custom_adjacency(n, offsets)
    except ValueError as exc:
        raise InputFormatError(f"{fs}: {exc}") from exc
