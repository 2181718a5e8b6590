"""Flits: the atomic unit of dataflow communication.

Section III-C: a *stream* is a sequence of *data items*, each divided into
*flits* — the atomic unit of communication and operation; modules consume
and produce one flit per cycle.  A flit here carries a payload dict of
named fields plus a ``last`` bit marking the final flit of its data item
(the hardware analog of an end-of-item framing signal), which is what lets
Reducers operate at item granularity and Joiners stay item-aligned.

Two field-value sentinels come straight from the paper's ReadExplode
semantics (Figure 3): ``INS`` marks the reference position of an inserted
base (not present in the reference) and ``DEL`` marks the base/quality of a
deleted base (not present in the read).
"""

from __future__ import annotations

from typing import Dict, Iterable, List


class _Sentinel:
    """A named singleton sentinel value."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def __reduce__(self) -> str:
        # A singleton: copies and unpickled values are the module global.
        return self.name


#: Reference position of an inserted base (Figure 3's "Ins").
INS = _Sentinel("INS")

#: Base/quality value of a deleted base (Figure 3's "Del").
DEL = _Sentinel("DEL")


class Flit:
    """One flit: named fields plus the end-of-item marker."""

    __slots__ = ("fields", "last")

    def __init__(self, fields: Dict[str, object], last: bool = False):
        self.fields = fields
        self.last = last

    def __getitem__(self, name: str):
        return self.fields[name]

    def get(self, name: str, default=None):
        """Field access with a default, like ``dict.get``."""
        return self.fields.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self.fields

    def merged(self, other_fields: Dict[str, object], last: bool = None) -> "Flit":
        """A new flit with ``other_fields`` merged in (Joiner concatenation
        of data fields, Figure 6)."""
        fields = dict(self.fields)
        fields.update(other_fields)
        return Flit(fields, self.last if last is None else last)

    def __repr__(self) -> str:
        marker = "*" if self.last else ""
        return f"Flit({self.fields}{marker})"


def item_flits(values: Iterable, field: str = "value") -> List[Flit]:
    """Frame a sequence of values as one data item: one flit per value,
    ``last`` set on the final flit.  An empty sequence produces a single
    empty-payload flit with ``last`` set (a null item keeps streams
    item-aligned)."""
    values = list(values)
    if not values:
        return [Flit({}, last=True)]
    flits = [Flit({field: value}) for value in values]
    flits[-1].last = True
    return flits


def scalar_flit(value, field: str = "value") -> Flit:
    """A single-flit item carrying one scalar."""
    return Flit({field: value}, last=True)


def split_items(flits: Iterable[Flit]) -> List[List[Flit]]:
    """Group a flat flit sequence back into items using the last bits."""
    items: List[List[Flit]] = []
    current: List[Flit] = []
    for flit in flits:
        current.append(flit)
        if flit.last:
            items.append(current)
            current = []
    if current:
        items.append(current)
    return items
