"""MDGen — the custom MD-tag generator module (Section IV-C).

Consumes the left-joiner output of the metadata-update pipeline (per-base
flits carrying the read base and the reference base) and emits MD-string
tokens: it counts consecutive matching bases; on a mismatch it flushes the
match counter and outputs the reference base; on a deletion it outputs
``^`` plus the deleted reference bases (one ``^`` per deletion run).
Inserted bases do not appear in MD.  At the end of each read the final
match count is emitted and the item is closed.

This is the module a Genesis user adds through the custom-operation
interface (Section III-F); its software reference is
:class:`repro.gatk.metadata.MdBuilder`.
"""

from __future__ import annotations

import copy
import operator
from collections import deque
from typing import Deque

from ...genomics.sequences import decode_base
from ..flit import ABSENT, Flit, Stream
from ..maxplus import Plan, Step
from ..module import Module

_BOUNDARY = object()

_FOLD = Step(pops=("in",), rooms=("out",))
_EMIT = Step(pushes=("out",), rooms=("out",))


class MdGen(Module):
    """Streaming MD-token generator."""

    room_first = True

    def __init__(
        self,
        name: str,
        base_field: str = "base",
        ref_field: str = "ref",
        op_field: str = "op",
        out_field: str = "md",
    ):
        super().__init__(name)
        self.base_field = base_field
        self.ref_field = ref_field
        self.op_field = op_field
        self.out_field = out_field
        self._tokens: Deque[object] = deque()
        self._match_run = 0
        self._in_deletion = False

    # -- token production -------------------------------------------------------

    def _flush_run(self) -> None:
        self._tokens.append(str(self._match_run))
        self._match_run = 0

    def _process(self, op, base, ref) -> None:
        """Fold one flit's ``op`` / ``base`` / ``ref`` fields
        (:data:`~repro.hw.flit.ABSENT` where it lacks one) into the
        tokens."""
        if op == "I":
            # Inserted bases are invisible to MD and, consuming no
            # reference, do not interrupt a deletion run (matching the
            # software MdBuilder's reference-walk semantics).
            return
        if op == "D":
            if ref is ABSENT:
                raise KeyError(self.ref_field)
            if not self._in_deletion:
                self._flush_run()
                self._tokens.append("^")
                self._in_deletion = True
            self._tokens.append(decode_base(int(ref)))
            return
        if op != "M":
            return
        self._in_deletion = False
        if base is ABSENT or ref is ABSENT:
            raise KeyError(self.base_field if base is ABSENT else self.ref_field)
        if int(base) == int(ref):
            self._match_run += 1
        else:
            self._flush_run()
            self._tokens.append(decode_base(int(ref)))

    def _close_item(self) -> None:
        self._flush_run()
        self._in_deletion = False
        self._tokens.append(_BOUNDARY)

    # -- simulation ----------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        out = self._out
        if out is None:
            out = self._out = self.output()
        if not out.can_push():
            self._note_stalled(out)
            return
        # Drain pending tokens first, one per cycle.
        if self._tokens:
            token = self._tokens.popleft()
            if token is _BOUNDARY:
                out.push(Flit({}, last=True))
            else:
                out.push(Flit({self.out_field: token}, last=False))
            self._note_busy()
            return
        queue = self._in
        if queue is None:
            queue = self._in = self.input()
        if not queue.can_pop():
            self._note_starved()
            return
        flit = queue.pop()
        if flit.fields:
            self._process(
                flit.get(self.op_field), flit.get(self.base_field, ABSENT),
                flit.get(self.ref_field, ABSENT),
            )
        if flit.last:
            self._close_item()

    def plan(self, streams) -> Plan:
        """Every action needs room: a pending token pushes, else the next
        flit is popped and folded into the token queue.  Runs the token
        logic on a twin of the module, adopted on commit."""
        stream = streams["in"]
        twin = copy.copy(self)
        twin._tokens = tokens = deque(self._tokens)
        md, last, actions = [], [], []
        flits = zip(
            stream.filled, stream.last, stream.column(self.op_field),
            stream.column(self.base_field), stream.column(self.ref_field),
        )
        while True:
            while tokens:
                token = tokens.popleft()
                boundary = token is _BOUNDARY
                md.append(ABSENT if boundary else token)
                last.append(boundary)
                actions.append(1)
            flit = next(flits, None)
            if flit is None:
                break
            actions.append(0)
            filled, closes, op, base, ref = flit
            if filled:
                twin._process(op, base, ref)
            if closes:
                twin._close_item()

        def commit(_timed) -> None:
            self._tokens = tokens
            self._match_run = twin._match_run
            self._in_deletion = twin._in_deletion

        return Plan(
            {"out": Stream(
                last, {self.out_field: md}, filled=map(operator.not_, last)
            )},
            (_FOLD, _EMIT), actions, commit,
        )

    def is_idle(self) -> bool:
        return not self._tokens


def join_md_tokens(tokens) -> str:
    """Assemble one read's MD tokens into the final MD string, merging the
    token stream the way the host's output formatter does."""
    return "".join(str(token) for token in tokens)
