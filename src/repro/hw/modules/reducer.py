"""Reducer module.

Figure 6: performs a reduction (Sum, Max, Min, Count) over a stream.  The
hardware uses a reduction tree to sustain one flit per cycle; reductions
can run at *item* granularity (reset at every ``last`` flit, one result per
item) or over the whole stream, and support *masked* reduction — a mask
field selects which values contribute (Section III-C).

Sum and count fold into a 32-bit two's-complement accumulator — the
hardware adder, as wide as the 4-byte word a Memory Writer stores a
result in (the metadata stage's UQ) — whatever the width of the values
streamed in: a byte-wide QUAL column sums past 255 without wrapping.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional

from ..flit import ABSENT, DEL, Flit, Stream
from ..maxplus import Plan, Step
from ..module import Module

_IDENTITY = {"sum": 0, "count": 0, "max": None, "min": None}

#: Width of the sum / count accumulator, in bits.
ACCUMULATOR_BITS = 32
_HALF = 1 << (ACCUMULATOR_BITS - 1)
_SPAN = 1 << ACCUMULATOR_BITS

_FOLD = Step(pops=("in",))
_EMIT = Step(pops=("in",), pushes=("out",), rooms=("out",))


class Reducer(Module):
    """Streaming reduction at item or stream granularity."""

    def __init__(
        self,
        name: str,
        op: str = "sum",
        field: str = "value",
        mask_field: Optional[str] = None,
        per_item: bool = True,
        out_field: str = "value",
    ):
        super().__init__(name)
        if op not in _IDENTITY:
            raise ValueError(f"unsupported reduction {op!r}")
        self.op = op
        self.field = field
        self.mask_field = mask_field
        self.per_item = per_item
        self.out_field = out_field
        self._acc = _IDENTITY[op]
        self._saw_stream_end = False
        self._emitted_stream_result = False

    # -- accumulate --------------------------------------------------------------

    def _contributes(self, flit: Flit) -> bool:
        if self.field not in flit:
            return False
        if flit[self.field] is DEL:
            return False
        if self.mask_field is not None and not flit.get(self.mask_field):
            return False
        return True

    def _fold(self, acc, value):
        """``acc`` with ``value`` folded in; a sum or count wraps as the
        :data:`ACCUMULATOR_BITS`-bit adder does."""
        if self.op == "count":
            return (acc + 1 + _HALF) % _SPAN - _HALF
        if self.op == "sum":
            return (acc + int(value) + _HALF) % _SPAN - _HALF
        if self.op == "max":
            return value if acc is None else max(acc, value)
        return value if acc is None else min(acc, value)

    @staticmethod
    def _value(acc):
        return 0 if acc is None else acc

    def _result(self):
        return self._value(self._acc)

    # -- simulation ---------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        queue = self.input()
        out = self.output()
        if not queue.can_pop():
            self._note_starved()
            return
        head = queue.peek()
        emits = head.last and self.per_item
        if emits and not out.can_push():
            self._note_stalled(out)
            return
        flit = queue.pop()
        if self._contributes(flit):
            self._acc = self._fold(self._acc, flit[self.field])
        if emits:
            out.push(Flit({self.out_field: self._result()}, last=True))
            self._note_busy()
            self._acc = _IDENTITY[self.op]

    def plan(self, streams) -> Plan:
        """One pop per flit; an item's last flit also pushes its result
        and so needs room."""
        stream = streams["in"]
        acc, identity = self._acc, _IDENTITY[self.op]
        out, actions = [], []
        per_item, fold = self.per_item, self._fold
        masks = (
            repeat(True) if self.mask_field is None
            else stream.column(self.mask_field)
        )
        for value, mask, last in zip(
            stream.column(self.field), masks, stream.last
        ):
            if (
                value is not ABSENT and value is not DEL
                and mask is not ABSENT and mask
            ):  # _contributes
                acc = fold(acc, value)
            if last and per_item:
                out.append(self._value(acc))
                actions.append(1)
                acc = identity
            else:
                actions.append(0)

        def commit(_timed) -> None:
            self._acc = acc

        return Plan(
            {"out": Stream.of_scalars(out, self.out_field)},
            (_FOLD, _EMIT), actions, commit,
        )

    def stream_result(self):
        """For whole-stream reductions: the final value (drivers read this
        after the run instead of wiring a drain)."""
        return self._result()
