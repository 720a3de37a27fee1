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


def wrong_dimension(value, n: int):
    """The first point or cube in a witness whose dimension is not n, else None.

    A point is a nonempty list of integers; a cube is a dict with a
    ``base`` point and ``axes`` indices.
    """
    if isinstance(value, dict):
        if "base" in value and "axes" in value:
            ok = len(value["base"]) == n and all(0 <= a < n for a in value["axes"])
            return None if ok else value
        items = list(value.values())
    elif isinstance(value, list):
        if value and all(isinstance(c, int) for c in value):
            return None if len(value) == n else value
        items = value
    else:
        return None
    for item in items:
        bad = wrong_dimension(item, n)
        if bad is not None:
            return bad
    return None
