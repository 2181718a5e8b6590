"""BinIDGen — the custom BQSR bin-ID generator module (Section IV-D).

Sits between ReadToBases and the Joiner in the Figure 12 pipeline.  For
every aligned (M) base with quality ``q`` it computes the two covariate
bin IDs the paper defines:

* ``b1 = q * n_cycle_values + cycle`` — the cycle covariate.  Forward
  reads use the base's index in the stored sequence; reverse reads get
  their own cycle-value range (302 values for 151 bp reads: 151 forward +
  151 reverse).
* ``b2 = q * 16 + context`` — the dinucleotide context covariate with
  ``AA=0, AC=1, ..., TT=15``.  The context of the first stored base,
  and of a dinucleotide holding an N (code 4), is undefined; such flits
  carry ``b2 = -1`` and a small filter in front of the context-table SPM
  updaters drops them.

The module tracks the previous *stored-sequence* base across M/I/S flits
(soft-clipped bases participate in context even though they never reach
the joiner), needs each read's strand and length, and passes M flits
through with ``b1``/``b2`` attached; S, I and D flits are consumed and
dropped — BQSR only bins aligned bases.
"""

from __future__ import annotations

from typing import Optional

from ..flit import ABSENT, Flit
from ..maxplus import Plan, Step
from ..module import Module


class BinIdGen(Module):
    """Computes per-base BQSR bin IDs."""

    room_first = True

    def __init__(self, name: str, read_length: int, n_contexts: int = 16):
        super().__init__(name)
        if read_length < 1:
            raise ValueError("read_length must be positive")
        self.read_length = read_length
        self.n_cycle_values = 2 * read_length
        self.n_contexts = n_contexts
        self._reverse: Optional[bool] = None
        self._seqlen: Optional[int] = None
        self._prev_base: Optional[int] = None

    def _cycle(self, ridx: int) -> int:
        if not self._reverse:
            return ridx
        return self.read_length + (self._seqlen - 1 - ridx)

    def tick(self, cycle: int) -> None:
        out = self.output()
        if not out.can_push():
            self._note_stalled(out)
            return

        # Latch the per-read header (strand, stored length) first.
        if self._reverse is None:
            meta = self.input("meta")
            if not meta.can_pop():
                self._note_starved()
                return
            flit = meta.pop()
            if not flit.fields:
                out.push(Flit({}, last=True))
                self._note_busy()
                return
            self._reverse = bool(flit["reverse"])
            self._seqlen = int(flit["seqlen"])
            self._prev_base = None
            return

        queue = self.input()
        if not queue.can_pop():
            self._note_starved()
            return
        flit = queue.pop()
        if flit.last:
            out.push(Flit({}, last=True))
            self._note_busy()
            self._reverse = None
            self._seqlen = None
            return
        op = flit.get("op")
        if op in ("S", "I"):
            self._prev_base = int(flit["base"])
            return
        if op == "D":
            return
        # Aligned base: attach both bin IDs.
        quality = int(flit["qual"])
        b1 = quality * self.n_cycle_values + self._cycle(int(flit["ridx"]))
        base = int(flit["base"])
        b2 = _context_bin(quality, self.n_contexts, self._prev_base, base)
        self._prev_base = base
        fields = dict(flit.fields)
        fields["b1"] = b1
        fields["b2"] = b2
        out.push(Flit(fields, last=False))
        self._note_busy()

    def plan(self, streams) -> Plan:
        """The tick over the whole streams: a read's header is latched,
        then its bases are binned.  Every action needs room.  The output
        gathers the aligned bases and adds their ``b1`` / ``b2``."""
        meta, bases = streams["meta"], streams["in"]
        headers = zip(meta.filled, meta.column("reverse"), meta.column("seqlen"))
        flits = zip(
            bases.last, bases.column("op"), bases.column("qual"),
            bases.column("base"), bases.column("ridx"),
        )
        reverse, seqlen, prev = self._reverse, self._seqlen, self._prev_base
        read_length, n_cycles = self.read_length, self.n_cycle_values
        n_contexts = self.n_contexts
        rows, b1s, b2s, actions = [], [], [], []
        index = -1
        while True:
            if reverse is None:
                header = next(headers, None)
                if header is None:
                    break
                filled, reverse, seqlen = header
                if not filled:
                    reverse = seqlen = None
                    rows.append(-1)
                    b1s.append(ABSENT)
                    b2s.append(ABSENT)
                    actions.append(_HEADER_EMPTY)
                    continue
                if reverse is ABSENT:
                    raise KeyError("reverse")
                reverse, seqlen = bool(reverse), int(seqlen)
                prev = None
                actions.append(_HEADER)
                continue
            flit = next(flits, None)
            if flit is None:
                break
            index += 1
            last, op, quality, base, ridx = flit
            if last:
                rows.append(-1)
                b1s.append(ABSENT)
                b2s.append(ABSENT)
                actions.append(_BIN)
                reverse = seqlen = None
                continue
            if op in ("S", "I", "D"):
                if op != "D":
                    prev = int(base)
                actions.append(_SKIP)
                continue
            quality, base, ridx = int(quality), int(base), int(ridx)
            cycle = read_length + (seqlen - 1 - ridx) if reverse else ridx
            rows.append(index)
            b1s.append(quality * n_cycles + cycle)
            b2s.append(_context_bin(quality, n_contexts, prev, base))
            prev = base
            actions.append(_BIN)

        def commit(_timed) -> None:
            self._reverse, self._seqlen, self._prev_base = reverse, seqlen, prev

        out = bases.gather(rows, [row < 0 for row in rows])
        return Plan(
            {"out": out.with_columns({"b1": b1s, "b2": b2s})}, _STEPS, actions,
            commit, idle=reverse is None,
        )

    def is_idle(self) -> bool:
        return self._reverse is None


def _context_bin(
    quality: int, n_contexts: int, prev: Optional[int], base: int
) -> int:
    """``b2`` of an aligned base after ``prev``: -1 when it has no
    predecessor or either base is an N, as ``gatk.bqsr.context_of``."""
    if prev is None or prev > 3 or base > 3:
        return -1
    return quality * n_contexts + prev * 4 + base


# BinIdGen's steps (indices into _STEPS): every one needs room on out.
_STEPS = (
    Step(pops=("meta",), rooms=("out",)),  # latch a read header
    Step(pops=("meta",), pushes=("out",), rooms=("out",)),  # empty header
    Step(pops=("in",), pushes=("out",), rooms=("out",)),  # bin / close
    Step(pops=("in",), rooms=("out",)),  # an S, I or D base, dropped
)
_HEADER, _HEADER_EMPTY, _BIN, _SKIP = range(len(_STEPS))
