"""ReadToBases module — the hardware ReadExplode (Figure 3).

Takes per-read streams of POS (scalar), CIGAR (encoded elements), SEQ and
optionally QUAL (one flit per base) and emits one flit per exploded base:

* aligned bases:   ``{op:'M', pos, base, qual, ridx}``
* inserted bases:  ``{op:'I', pos:INS, base, qual, ridx}``
* deleted bases:   ``{op:'D', pos, base:DEL, qual:DEL}``
* soft-clipped bases are consumed silently (the paper drops them), or
  emitted as ``{op:'S', base, qual, ridx}`` when ``emit_clips`` is set —
  the BQSR BinIDGen needs them to track the dinucleotide context across
  clip boundaries.

``ridx`` is the base's index in the stored read sequence (soft clips
included), which is what the BQSR cycle covariate is defined over.  Every
read's output item is terminated by a payload-less boundary flit with
``last`` set.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Optional

from ...genomics.cigar import OPS
from ..flit import ABSENT, DEL, INS, Flit, Stream
from ..maxplus import Plan, Step
from ..module import Module


class ReadToBases(Module):
    """Explodes reads into per-base flits, one base per cycle."""

    room_first = True

    def __init__(self, name: str, with_qual: bool = True, emit_clips: bool = False):
        super().__init__(name)
        self.with_qual = with_qual
        self.emit_clips = emit_clips
        # per-read decode state
        self._pos: Optional[int] = None
        self._ridx = 0
        self._element_op: Optional[str] = None
        self._element_left = 0
        self._cigar_done = False
        self.reads_exploded = 0

    # -- helpers ---------------------------------------------------------------

    def _pop_value(self, port: str):
        """Pop the next payload flit from ``port``; returns (value, last)
        or None when the queue has nothing consumable."""
        queue = self.input(port)
        if not queue.can_pop():
            return None
        flit = queue.pop()
        if not flit.fields:
            return (None, flit.last)
        return (flit["value"], flit.last)

    def _need_seq(self) -> bool:
        return self._element_op in ("M", "I", "S")

    def _start_element(self) -> bool:
        """Load the next CIGAR element; returns False on starve."""
        queue = self.input("cigar")
        if not queue.can_pop():
            return False
        flit = queue.pop()
        if not flit.fields:
            self._cigar_done = True
            return True
        code = int(flit["value"])
        self._element_op = OPS[code & 0x3]
        self._element_left = code >> 2
        if flit.last:
            self._cigar_done = True
        return True

    def _finish_read(self) -> None:
        self.output().push(Flit({}, last=True))
        self._note_busy()
        self.reads_exploded += 1
        self._pos = None
        self._ridx = 0
        self._element_op = None
        self._element_left = 0
        self._cigar_done = False

    # -- simulation ---------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        out = self._out
        if out is None:
            out = self._out = self.output()
        if not out.can_push():
            self._note_stalled(out)
            return

        if self._pos is None:
            popped = self._pop_value("pos")
            if popped is None:
                self._note_starved()
                return
            value, _last = popped
            if value is None:
                # Degenerate empty read: emit a boundary and move on.
                out.push(Flit({}, last=True))
                self._note_busy()
                return
            self._pos = int(value)
            self._cigar_done = False
            return

        if self._element_left == 0:
            if self._cigar_done:
                self._finish_read()
                return
            if not self._start_element():
                self._note_starved()
                return
            if self._element_left == 0 and self._cigar_done and self._element_op is None:
                self._finish_read()
            return

        op = self._element_op
        if self._need_seq():
            popped = self._pop_value("seq")
            if popped is None:
                self._note_starved()
                return
            base, _ = popped
            qual = None
            if self.with_qual:
                qpopped = self._pop_value("qual")
                if qpopped is None:
                    raise RuntimeError(f"{self.name}: SEQ/QUAL streams diverged")
                qual, _ = qpopped
            self._element_left -= 1
            ridx = self._ridx
            self._ridx += 1
            if op == "S":
                if self.emit_clips:
                    fields = {"op": "S", "base": base, "ridx": ridx}
                    if self.with_qual:
                        fields["qual"] = qual
                    out.push(Flit(fields, last=False))
                    self._note_busy()
                return
            if op == "M":
                fields = {"op": "M", "pos": self._pos, "base": base, "ridx": ridx}
                self._pos += 1
            else:  # I
                fields = {"op": "I", "pos": INS, "base": base, "ridx": ridx}
            if self.with_qual:
                fields["qual"] = qual
            out.push(Flit(fields, last=False))
            self._note_busy()
        else:  # D
            fields = {"op": "D", "pos": self._pos, "base": DEL}
            if self.with_qual:
                fields["qual"] = DEL
            self._pos += 1
            self._element_left -= 1
            out.push(Flit(fields, last=False))
            self._note_busy()

    def plan(self, streams) -> Plan:
        """The tick's decode over the whole streams, an element at a time:
        its bases' columns are sliced out of SEQ / QUAL, its positions and
        indices are ranges.  Every action needs room; QUAL is popped
        beside SEQ without waiting for it (the tick raises when it lags)."""
        pos_in, cigar_in = streams["pos"], streams["cigar"]
        with_qual, emit_clips = self.with_qual, self.emit_clips
        seq_in = _values(streams["seq"])
        qual_in = _values(streams["qual"]) if with_qual else ()
        heads = zip(pos_in.filled, pos_in.column("value"))
        elements = zip(cigar_in.filled, cigar_in.column("value"), cigar_in.last)
        iseq = 0
        pos, ridx = self._pos, self._ridx
        op, left, cigar_done = self._element_op, self._element_left, self._cigar_done
        exploded = 0
        ops, positions, bases, indices, quals, last = [], [], [], [], [], []
        actions = []
        base_step = _BASE_QUAL if with_qual else _BASE
        skip_step = _SKIP_QUAL if with_qual else _SKIP

        def boundary() -> None:
            for column in (ops, positions, bases, indices, quals):
                column.append(ABSENT)
            last.append(True)

        while True:
            if pos is None:
                head = next(heads, None)
                if head is None:
                    break
                filled, value = head
                if not filled:  # degenerate empty read
                    boundary()
                    actions.append(_POS_EMPTY)
                    continue
                pos = int(value)
                cigar_done = False
                actions.append(_POS)
                continue
            if left == 0:
                if not cigar_done:
                    element = next(elements, None)
                    if element is None:
                        break
                    filled, code, closes = element
                    if not filled:
                        cigar_done = True
                    else:
                        code = int(code)
                        op, left = OPS[code & 0x3], code >> 2
                        cigar_done = closes
                    if not (left == 0 and cigar_done and op is None):
                        actions.append(_CIGAR)
                        continue
                    actions.append(_CIGAR_FINISH)
                else:
                    actions.append(_FINISH)
                boundary()
                exploded += 1
                pos, ridx, op, left, cigar_done = None, 0, None, 0, False
                continue
            # the rest of the element at once: one base (action) a cycle
            if op == "D":
                count, step = left, _DELETION
                positions.extend(range(pos, pos + count))
                bases.extend(repeat(DEL, count))
                indices.extend(repeat(ABSENT, count))
                quals.extend(repeat(DEL, count))
                pos += count
            else:
                count = min(left, len(seq_in) - iseq)
                if with_qual:
                    count = min(count, len(qual_in) - iseq)
                if not count:
                    break  # starved for good (or SEQ / QUAL diverged)
                step = base_step
                if op == "M":
                    positions.extend(range(pos, pos + count))
                    pos += count
                elif op == "I":
                    positions.extend(repeat(INS, count))
                elif emit_clips:
                    positions.extend(repeat(ABSENT, count))
                else:  # a soft clip, dropped
                    step = skip_step
                if step == base_step:
                    bases.extend(seq_in[iseq:iseq + count])
                    indices.extend(range(ridx, ridx + count))
                    quals.extend(
                        qual_in[iseq:iseq + count] if with_qual
                        else repeat(ABSENT, count)
                    )
                iseq += count
                ridx += count
            if step != skip_step:
                ops.extend(repeat(op, count))
                last.extend(repeat(False, count))
            left -= count
            actions.extend(repeat(step, count))
        columns = {"op": ops, "pos": positions, "base": bases, "ridx": indices}
        if with_qual:
            columns["qual"] = quals

        def commit(_timed) -> None:
            self._pos, self._ridx = pos, ridx
            self._element_op, self._element_left = op, left
            self._cigar_done = cigar_done
            self.reads_exploded += exploded

        return Plan(
            {"out": Stream(last, columns, filled=map(operator.not_, last))},
            _STEPS, actions, commit,
            idle=pos is None,
        )

    def is_idle(self) -> bool:
        return self._pos is None


def _values(stream: Stream) -> tuple:
    """Each flit's ``value``, None for a boundary flit (``_pop_value``)."""
    values = stream.column("value")
    if any(map(operator.is_, values, repeat(ABSENT))):
        if any(absent and filled for absent, filled in zip(
            map(operator.is_, values, repeat(ABSENT)), stream.filled
        )):
            raise KeyError("value")  # a payload flit without one
        values = tuple(None if value is ABSENT else value for value in values)
    return values


# ReadToBases' steps (indices into _STEPS): every one needs room on out.
_STEPS = (
    Step(pops=("pos",), rooms=("out",)),  # latch POS
    Step(pops=("pos",), pushes=("out",), rooms=("out",)),  # empty read
    Step(pops=("cigar",), rooms=("out",)),  # load a CIGAR element
    Step(pops=("cigar",), pushes=("out",), rooms=("out",)),  # empty CIGAR
    Step(pushes=("out",), rooms=("out",)),  # close the read / a deletion
    Step(pops=("seq",), pushes=("out",), rooms=("out",)),  # one base
    Step(pops=("seq",), assumes=("qual",), pushes=("out",), rooms=("out",)),
    Step(pops=("seq",), rooms=("out",)),  # one soft clip, dropped
    Step(pops=("seq",), assumes=("qual",), rooms=("out",)),
)
(
    _POS, _POS_EMPTY, _CIGAR, _CIGAR_FINISH, _FINISH,
    _BASE, _BASE_QUAL, _SKIP, _SKIP_QUAL,
) = range(len(_STEPS))
_DELETION = _FINISH
