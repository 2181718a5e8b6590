"""Filter module.

Figure 6: takes input data from a single queue, checks a comparison
condition (between two fields or a field and a constant), and outputs the
item only when the condition holds.

Item framing is preserved: when the flit carrying ``last`` is dropped, a
payload-less boundary flit with ``last`` set is emitted instead, so
downstream per-item reducers stay aligned.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

from ..flit import Flit, Row
from ..maxplus import Plan, Step
from ..module import Module

_DROP = Step(pops=("in",), rooms=("out",))
_PASS = Step(pops=("in",), pushes=("out",), rooms=("out",))

#: Comparison operators the hardware comparator supports.
COMPARATORS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Filter(Module):
    """Streaming comparison filter."""

    def __init__(
        self,
        name: str,
        field: str,
        op: str = "==",
        other_field: Optional[str] = None,
        constant: Optional[object] = None,
        predicate: Optional[Callable[[Flit], bool]] = None,
    ):
        """Configure the condition.

        Either compare ``field`` against ``other_field`` / ``constant``
        with one of :data:`COMPARATORS`, or supply a custom ``predicate``
        over the whole flit (drivers use this for sentinel-aware checks).
        """
        super().__init__(name)
        if predicate is None and op not in COMPARATORS:
            raise ValueError(f"unsupported comparator {op!r}")
        if predicate is None and (other_field is None) == (constant is None):
            raise ValueError("provide exactly one of other_field/constant")
        self.field = field
        self.op = op
        self.other_field = other_field
        self.constant = constant
        self.predicate = predicate
        self.dropped = 0

    def _passes(self, flit: Flit) -> bool:
        if self.predicate is not None:
            return self.predicate(flit)
        left = flit[self.field]
        right = (
            flit[self.other_field] if self.other_field is not None else self.constant
        )
        return COMPARATORS[self.op](left, right)

    def tick(self, cycle: int) -> None:
        queue = self._in
        if queue is None:
            queue = self._in = self.input()
        out = self._out
        if out is None:
            out = self._out = self.output()
        if not queue.can_pop():
            self._note_starved()
            return
        if not out.can_push():
            self._note_stalled(out)
            return
        flit = queue.pop()
        if not flit.fields:
            # Pure boundary flit: forward as-is.
            out.push(Flit({}, last=flit.last))
            self._note_busy()
            return
        if self._passes(flit):
            # Flits are immutable once pushed: forward the object itself.
            out.push(flit)
            self._note_busy()
        else:
            self.dropped += 1
            if flit.last:
                out.push(Flit({}, last=True))
                self._note_busy()

    def plan(self, streams) -> Plan:
        """One pop per flit, every one needing room; a dropped flit
        pushes nothing unless it closes an item.  The predicate sees each
        flit as a :class:`~repro.hw.flit.Row`; the output gathers the
        flits that pass."""
        stream = streams["in"]
        rows, last, actions, dropped = [], [], [], 0
        passes = self.predicate or self._passes
        row = Row(stream)
        for index, (filled, closes) in enumerate(zip(stream.filled, stream.last)):
            if filled:
                row.index = index
                if passes(row):
                    rows.append(index)
                else:
                    dropped += 1
                    if not closes:
                        actions.append(0)
                        continue
                    rows.append(-1)
            else:
                rows.append(-1)
            last.append(closes)
            actions.append(1)

        def commit(_timed) -> None:
            self.dropped += dropped

        # nothing dropped: the output is the input, flit for flit
        out = stream.gather(rows, last) if dropped else stream
        return Plan({"out": out}, (_DROP, _PASS), actions, commit)
