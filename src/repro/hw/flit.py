"""Flits and streams: the atomic unit of dataflow communication.

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

A :class:`Flit` is what a ``tick`` pushes and pops, one a cycle.  A
:class:`Stream` is what a ``plan`` takes and returns (the ``maxplus``
engine mode, :mod:`repro.hw.maxplus`): a whole queue's flits held
column-wise — one ``last`` column and one column per field, with
:data:`ABSENT` where a flit lacks the field (a boundary flit lacks every
one).  Columns are tuples and a stream is never changed once built, so
one stream can feed several consumers (a Fork hands the same one to every
branch).  Only the test sources and sinks and a Memory Reader's ``tick``
convert between the two (:meth:`Stream.from_flits`, :meth:`Stream.flits`,
:meth:`Stream.flit`).
"""

from __future__ import annotations

import operator
from itertools import repeat
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


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

#: A :class:`Stream` column's entry for a flit that lacks the field.
ABSENT = _Sentinel("ABSENT")


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


def _present(column: Sequence) -> Iterable[bool]:
    """Per entry of ``column``: is it a value (not :data:`ABSENT`)?"""
    return map(operator.is_not, column, repeat(ABSENT))


def _picker(rows: Sequence[int]):
    """A function taking entries ``rows`` of a sequence, as a tuple."""
    if len(rows) > 1:
        return operator.itemgetter(*rows)
    if rows:
        return lambda values: (values[rows[0]],)
    return lambda values: ()


class Stream:
    """A whole queue's flits, column-wise: ``last`` and ``columns`` (field
    name -> one entry per flit, :data:`ABSENT` where the flit lacks the
    field), all tuples of one length."""

    __slots__ = ("last", "_fields", "_filled")

    def __init__(
        self,
        last: Iterable[bool],
        columns: Mapping[str, Iterable] = (),
        filled: Optional[Iterable[bool]] = None,
    ):
        """``filled`` is :attr:`filled`, where the producer knows it."""
        last = tuple(last)
        fields = {name: tuple(column) for name, column in dict(columns).items()}
        for column in fields.values():
            if len(column) != len(last):
                raise ValueError("stream columns differ in length")
        self._set(last, fields, None if filled is None else tuple(filled))

    def _set(self, last: tuple, fields: Dict[str, tuple], filled) -> None:
        self.last: Tuple[bool, ...] = last
        #: The columns, for readers inside this module.
        self._fields = fields
        self._filled = filled

    @property
    def columns(self) -> Mapping[str, tuple]:
        """Field name -> its column (read-only)."""
        return MappingProxyType(self._fields)

    @classmethod
    def _of(cls, last: tuple, fields: Dict[str, tuple], filled=None) -> "Stream":
        """A stream over columns that are already tuples as long as
        ``last``, taken as they are (nothing copied or checked)."""
        stream = cls.__new__(cls)
        stream._set(last, fields, filled)
        return stream

    def __reduce__(self):
        return Stream, (self.last, dict(self._fields), self._filled)

    # -- building ------------------------------------------------------------------

    @classmethod
    def from_flits(cls, flits: Iterable[Flit]) -> "Stream":
        """The stream of ``flits``, in order."""
        flits = list(flits)
        names = dict.fromkeys(name for flit in flits for name in flit.fields)
        return cls(
            [flit.last for flit in flits],
            {
                name: [flit.fields.get(name, ABSENT) for flit in flits]
                for name in names
            },
        )

    @classmethod
    def of_items(cls, items: Iterable[Iterable], field: str = "value") -> "Stream":
        """Frame ``items`` (per-item element sequences) as
        :func:`item_flits` does, one after the other."""
        values: list = []
        last: List[bool] = []
        for item in items:
            start = len(values)
            values.extend(item)
            count = len(values) - start
            if count:
                last.extend(repeat(False, count - 1))
            else:
                values.append(ABSENT)  # a null item: one boundary flit
            last.append(True)
        return cls(last, {field: values})

    @classmethod
    def of_scalars(cls, values: Iterable, field: str = "value") -> "Stream":
        """One single-flit item per value."""
        values = tuple(values)
        return cls(repeat(True, len(values)), {field: values})

    # -- reading -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.last)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Stream):
            return NotImplemented
        return self.last == other.last and self._carried() == other._carried()

    __hash__ = None

    def _carried(self) -> Dict[str, tuple]:
        """The columns at least one flit carries."""
        return {
            name: column for name, column in self._fields.items()
            if any(_present(column))
        }

    def column(self, name: str) -> tuple:
        """The column of field ``name`` (all :data:`ABSENT` if no flit
        carries it)."""
        column = self._fields.get(name)
        return (ABSENT,) * len(self.last) if column is None else column

    @property
    def filled(self) -> Tuple[bool, ...]:
        """Per flit: does it carry any field (is it not a boundary)?"""
        if self._filled is None:
            columns = list(self._fields.values())
            if not columns:
                filled = tuple(repeat(False, len(self.last)))
            elif len(columns) == 1:
                filled = tuple(_present(columns[0]))
            else:
                filled = tuple(map(any, zip(*map(_present, columns))))
            self._filled = filled
        return self._filled

    def __getitem__(self, rows: slice) -> "Stream":
        return Stream._of(
            self.last[rows],
            {name: column[rows] for name, column in self._fields.items()},
            None if self._filled is None else self._filled[rows],
        )

    def gather(self, rows: Sequence[int], last: Iterable[bool]) -> "Stream":
        """A stream whose flit *k* carries the fields of this stream's
        flit ``rows[k]`` (none where that is -1) and ``last[k]``."""
        last = tuple(last)
        if self._fields and len(last) != len(rows):
            raise ValueError("stream columns differ in length")
        pick = _picker(rows)
        filled = self._filled
        if -1 not in rows:  # no flit without fields: nothing to pad
            return Stream._of(
                last,
                {name: pick(column) for name, column in self._fields.items()},
                None if filled is None else pick(filled),
            )
        return Stream._of(
            last,
            {
                name: pick(column + (ABSENT,))
                for name, column in self._fields.items()
            },
            None if filled is None else pick(filled + (False,)),
        )

    def with_columns(self, columns: Mapping[str, Iterable]) -> "Stream":
        """The same flits with ``columns`` added (or replacing a field);
        a new column carries values only on flits that carry fields."""
        fields = dict(self._fields)
        for name, column in columns.items():
            column = fields[name] = tuple(column)
            if len(column) != len(self.last):
                raise ValueError("stream columns differ in length")
        return Stream._of(self.last, fields, self._filled)

    def flit(self, index: int) -> Flit:
        """Flit ``index`` as a :class:`Flit` of its own."""
        fields = {}
        for name, column in self._fields.items():
            value = column[index]
            if value is not ABSENT:
                fields[name] = value
        return Flit(fields, self.last[index])

    def flits(self) -> List[Flit]:
        """Every flit, as :class:`Flit` objects."""
        return [self.flit(index) for index in range(len(self.last))]

    def __repr__(self) -> str:
        return f"Stream({len(self)} flits, fields {list(self._fields)})"


class Row:
    """One flit of a :class:`Stream`, whose fields read as a
    :class:`Flit`'s do (``row[name]``, ``row.get(name)``): a plan moves
    ``index`` along the stream and hands the view to code written against
    flits, such as a Filter's predicate."""

    __slots__ = ("_columns", "index")

    def __init__(self, stream: Stream, index: int = 0):
        self._columns = stream._fields  # a dict reads faster than a proxy
        self.index = index

    def __getitem__(self, name: str):
        value = self._columns[name][self.index]
        if value is ABSENT:
            raise KeyError(name)
        return value

    def get(self, name: str, default=None):
        column = self._columns.get(name)
        if column is None:
            return default
        value = column[self.index]
        return default if value is ABSENT else value


#: The stream of no flits.
EMPTY = Stream(())


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
