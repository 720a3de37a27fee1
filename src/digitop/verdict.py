"""One verdict type for every checked property.

A verdict says whether a property holds and, when it fails, carries the
witness as the plain JSON dict that reports print and ``--replay`` reads
back.  Each module that writes a witness kind also keeps a ``REPLAYS``
table mapping that kind to a function ``(witness, mset, pair, region) ->
bool`` that re-checks exactly the recorded fields.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        return {"holds": self.holds, "witness": self.witness}


class Checks:
    """Base of a frozen dataclass whose ``Verdict`` fields are its checked
    properties, in field order; its other fields are plain report data.

    A subclass names its conjunction once, as ``class R(Checks,
    conjunction="certified")``: a property of that name returns ``holds``,
    and ``to_json`` writes it under that key.
    """

    def __init_subclass__(cls, conjunction: str, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._conjunction = conjunction
        setattr(cls, conjunction, property(lambda self: self.holds))

    def verdicts(self) -> list[tuple[str, Verdict]]:
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return [(name, v) for name, v in values if isinstance(v, Verdict)]

    @property
    def holds(self) -> bool:
        return all(v.holds for _, v in self.verdicts())

    def witnesses(self) -> list[dict]:
        return [v.witness for _, v in self.verdicts() if not v.holds and v.witness]

    def to_json(self) -> dict:
        """Every field, verdicts as ``{"holds", "witness"}``, and the conjunction."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        out = {k: v.to_json() if isinstance(v, Verdict) else v for k, v in values.items()}
        return {**out, self._conjunction: self.holds}


def malformed(value, n: int) -> str | None:
    """Why a witness cannot be replayed on a set in Z^n, else None: the
    first boolean in it (no witness holds one, and JSON ``true`` is no
    integer), or the first point or cube whose dimension is not n.

    A point is a nonempty list of integers; a cube is a dict with a
    ``base`` point and ``axes`` indices, whose entries are scalars.
    """
    if type(value) is bool:
        return f"holds the boolean {str(value).lower()}"
    if isinstance(value, dict):
        if "base" in value and "axes" in value:
            if len(value["base"]) != n or not all(0 <= a < n for a in value["axes"]):
                return f"is not of dimension {n}: {value}"
            items = [*value["base"], *value["axes"]]
        else:
            items = list(value.values())
    elif isinstance(value, list):
        if value and all(type(c) is int for c in value):
            return None if len(value) == n else f"is not of dimension {n}: {value}"
        items = value
    else:
        return None
    return next(filter(None, (malformed(item, n) for item in items)), None)
