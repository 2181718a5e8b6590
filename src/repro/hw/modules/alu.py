"""Stream ALU and Fork modules.

Figure 6: the stream ALU takes one or two input queues (or one queue and a
constant) and applies a simple unary/binary operation element-wise, one
item per cycle, optionally under a bit-mask.

Fork is the stream-replication glue the composed pipelines of Figures 11
and 12 need: one input stream fanned out to several consumers (the
left-joiner output feeds the NM filter *and* MDGen; the BQSR filter output
feeds four SPM updaters).  All output queues must have room before the
flit advances, which is how a broadcast wire behaves under back-pressure.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, Optional

from ..flit import ABSENT, Flit, Stream
from ..maxplus import Plan, Step
from ..module import Module

_APPLY = Step(pops=("in",), pushes=("out",), rooms=("out",))
_APPLY_PAIR = Step(pops=("a", "b"), pushes=("out",), rooms=("out",))

#: Binary operations the stream ALU supports (Section III-C).
BINARY_OPS: Dict[str, Callable] = {
    "ADD": lambda a, b: a + b,
    "SUB": lambda a, b: a - b,
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "CMP": lambda a, b: int(a == b),
    "MIN": min,
    "MAX": max,
    "MUL": lambda a, b: a * b,
}

#: Unary operations.
UNARY_OPS: Dict[str, Callable] = {
    "NOT": lambda a: ~a,
    "NEG": lambda a: -a,
    "ABS": abs,
    "ID": lambda a: a,
}


class StreamAlu(Module):
    """Element-wise ALU over one or two streams."""

    room_first = True

    def __init__(
        self,
        name: str,
        op: str,
        field: str = "value",
        other_field: Optional[str] = None,
        constant: Optional[object] = None,
        out_field: str = "value",
        mask_field: Optional[str] = None,
        two_streams: bool = False,
    ):
        """``two_streams`` pairs flits from ports ``a`` and ``b``;
        otherwise the second operand is ``other_field`` of the same flit or
        ``constant``.  Unary ops ignore the second operand entirely."""
        super().__init__(name)
        if op in BINARY_OPS:
            self._func = BINARY_OPS[op]
            self._unary = False
            if not two_streams and (other_field is None) == (constant is None):
                raise ValueError("binary op needs exactly one of other_field/constant")
        elif op in UNARY_OPS:
            self._func = UNARY_OPS[op]
            self._unary = True
        else:
            raise ValueError(f"unsupported ALU op {op!r}")
        self.op = op
        self.field = field
        self.other_field = other_field
        self.constant = constant
        self.out_field = out_field
        self.mask_field = mask_field
        self.two_streams = two_streams

    def _apply(self, flit: Flit, other: Optional[Flit]) -> Flit:
        fields = dict(flit.fields)
        if other is not None:
            for name, value in other.fields.items():
                fields.setdefault(name, value)
        if self.mask_field is not None and not flit.get(self.mask_field):
            return Flit(fields, last=flit.last)
        if self.field not in flit:
            return Flit(fields, last=flit.last)
        a = flit[self.field]
        if self._unary:
            fields[self.out_field] = self._func(a)
        else:
            if self.two_streams:
                b = other[self.field] if other is not None else None
            elif self.other_field is not None:
                b = flit[self.other_field]
            else:
                b = self.constant
            fields[self.out_field] = self._func(a, b)
        return Flit(fields, last=flit.last)

    def tick(self, cycle: int) -> None:
        out = self._out
        if out is None:
            out = self._out = self.output()
        if not out.can_push():
            self._note_stalled(out)
            return
        if self.two_streams and not self._unary:
            queue_a, queue_b = self.input("a"), self.input("b")
            if not (queue_a.can_pop() and queue_b.can_pop()):
                self._note_starved()
                return
            flit_a, flit_b = queue_a.pop(), queue_b.pop()
            if not flit_a.fields and not flit_b.fields:
                out.push(Flit({}, last=flit_a.last or flit_b.last))
            else:
                result = self._apply(flit_a, flit_b)
                result.last = flit_a.last or flit_b.last
                out.push(result)
            self._note_busy()
            return
        queue = self._in
        if queue is None:
            queue = self._in = self.input()
        if not queue.can_pop():
            self._note_starved()
            return
        flit = queue.pop()
        if not flit.fields:
            out.push(Flit({}, last=flit.last))
        else:
            out.push(self._apply(flit, None))
        self._note_busy()

    def plan(self, streams) -> Plan:
        """One push per input flit (per pair of flits, two-stream): the
        input's columns plus the ``out_field`` column."""
        if self.two_streams and not self._unary:
            a, b = streams["a"], streams["b"]
            count = min(len(a), len(b))
            a, b = a[:count], b[:count]
            # a's fields, then b's where a lacks them
            columns = {
                name: tuple(
                    y if x is ABSENT else x
                    for x, y in zip(a.column(name), b.column(name))
                )
                for name in {**a.columns, **b.columns}
            }
            stream = Stream([x or y for x, y in zip(a.last, b.last)], columns)
            others = b.column(self.field)
            step = _APPLY_PAIR
        else:
            stream = a = streams["in"]
            others = None
            step = _APPLY
        # the operand and the mask are the (first) input flit's
        operands = a.column(self.field)
        masks = None if self.mask_field is None else a.column(self.mask_field)
        if self._unary:
            second_operands = repeat(None)
        elif others is not None:
            second_operands = others
        elif self.other_field is not None:
            second_operands = stream.column(self.other_field)
        else:
            second_operands = repeat(self.constant)
        func, unary = self._func, self._unary
        results = list(stream.column(self.out_field))
        for index, (operand, second) in enumerate(zip(operands, second_operands)):
            if operand is ABSENT or masks is not None and (
                masks[index] is ABSENT or not masks[index]
            ):
                continue  # a boundary, masked off or lacking the field
            if unary:
                results[index] = func(operand)
            elif second is ABSENT:
                raise KeyError(self.other_field or self.field)
            else:
                results[index] = func(operand, second)

        return Plan(
            {"out": stream.with_columns({self.out_field: results})},
            (step,), [0] * len(stream),
        )


class Fork(Module):
    """Replicates every input flit to all connected output ports."""

    def __init__(self, name: str, ports: int = 2):
        super().__init__(name)
        if ports < 2:
            raise ValueError("a fork needs at least two output ports")
        self.port_names = [f"out{i}" for i in range(ports)]
        self._outs = None
        names = tuple(self.port_names)
        self._steps = (Step(pops=("in",), pushes=names, rooms=names),)

    def tick(self, cycle: int) -> None:
        queue = self._in
        if queue is None:
            queue = self._in = self.input()
        if not queue.can_pop():
            self._note_starved()
            return
        outs = self._outs
        if outs is None:
            outs = self._outs = [self.output(port) for port in self.port_names]
        for out in outs:
            if not out.can_push():
                # A broadcast stalls on its slowest branch; charge that queue.
                self._note_stalled(out)
                return
        flit = queue.pop()
        for out in outs:
            out.push(Flit(dict(flit.fields), last=flit.last))
        self._note_busy()

    def plan(self, streams) -> Plan:
        """One pop per flit, pushed to every output, each of which must
        have room.  Streams are never changed once built, so every branch
        takes the input stream itself."""
        stream = streams["in"]
        return Plan(
            dict.fromkeys(self.port_names, stream), self._steps,
            [0] * len(stream),
        )
