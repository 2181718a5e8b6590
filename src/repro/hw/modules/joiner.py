"""Joiner module.

Figure 6: merges flits from two input queues whose flits carry a key field
and arrive in ascending key order.  Each cycle the module compares the two
head keys and outputs or discards the flit with the smaller key; equal keys
merge their data fields.  Configurations (Section III-C):

* ``inner`` — discard flits without a matching key on the other side;
* ``left``  — keep every left flit (unmatched ones carry no right fields),
  discard unmatched right flits;
* ``outer`` — never discard.

Streams are *item-aligned*: item ``i`` on the left corresponds to item
``i`` on the right (e.g. a read's exploded bases vs. the read's reference
interval).  When both sides of an item are consumed, the joiner emits a
payload-less boundary flit with ``last`` set, so downstream reducers see
per-item framing even when the final data flits were discarded.

Left-side keys equal to a configured *passthrough* sentinel (the ``INS``
reference position of inserted bases) are emitted immediately without
consuming the right side — inserted bases have no reference counterpart
but must flow through left joins (metadata update needs them for NM).
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import FrozenSet, List

from ..flit import ABSENT, INS, Flit, Stream
from ..maxplus import Plan, Step
from ..module import Module

_MODES = ("inner", "left", "outer")


class Joiner(Module):
    """Streaming merge-joiner over two item-aligned keyed inputs."""

    room_first = True

    def __init__(
        self,
        name: str,
        mode: str = "inner",
        key_a: str = "key",
        key_b: str = "key",
        passthrough_keys: FrozenSet[object] = frozenset({INS}),
    ):
        super().__init__(name)
        if mode not in _MODES:
            raise ValueError(f"join mode must be one of {_MODES}, got {mode!r}")
        self.mode = mode
        self.key_a = key_a
        self.key_b = key_b
        self.passthrough_keys = passthrough_keys
        self._a_done = False
        self._b_done = False
        self.discarded = 0

    # -- helpers -----------------------------------------------------------------

    def _emit(self, flit: Flit) -> None:
        self.output().push(flit)
        self._note_busy()

    def _consume(self, side: str, flit: Flit) -> None:
        if flit.last:
            if side == "a":
                self._a_done = True
            else:
                self._b_done = True

    def _merge(self, a: Flit, b: Flit) -> Flit:
        """A's fields, then B's but for B's key."""
        key, fields = self.key_b, {**a.fields, **b.fields}
        if key in a.fields:
            fields[key] = a.fields[key]
        else:
            del fields[key]
        return Flit(fields, last=False)

    # -- simulation ----------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        out = self._out
        if out is None:
            out = self._out = self.output()
        if not out.can_push():
            self._note_stalled(out)
            return

        # Item boundary: both sides consumed -> emit the boundary flit.
        if self._a_done and self._b_done:
            self._emit(Flit({}, last=True))
            self._a_done = False
            self._b_done = False
            return

        queue_a = self.input("a")
        queue_b = self.input("b")
        head_a = queue_a.peek() if not self._a_done else None
        head_b = queue_b.peek() if not self._b_done else None

        # Drain phases: one side's item ended, flush the other.
        if self._a_done and head_b is not None:
            queue_b.pop()
            self._consume("b", head_b)
            if self.mode == "outer" and head_b.fields:
                # Fields dicts are immutable by convention — share them.
                self._emit(Flit(head_b.fields, last=False))
            else:
                self.discarded += 1
            return
        if self._b_done and head_a is not None:
            queue_a.pop()
            self._consume("a", head_a)
            if self.mode in ("left", "outer") and head_a.fields:
                self._emit(Flit(head_a.fields, last=False))
            else:
                self.discarded += 1
            return

        if head_a is None or head_b is None:
            self._note_starved()
            return

        # Boundary flits (payload-less) just close their side.
        if not head_a.fields:
            queue_a.pop()
            self._consume("a", head_a)
            return
        if not head_b.fields:
            queue_b.pop()
            self._consume("b", head_b)
            return

        a_key = head_a[self.key_a]
        if a_key in self.passthrough_keys:
            # Sentinel-keyed flits (inserted bases) have no reference
            # counterpart: an inner join discards them, a left/outer join
            # forwards them unmatched.
            queue_a.pop()
            self._consume("a", head_a)
            if self.mode == "inner":
                self.discarded += 1
            else:
                self._emit(Flit(dict(head_a.fields), last=False))
            return

        b_key = head_b[self.key_b]
        if a_key == b_key:
            merged = self._merge(head_a, head_b)
            queue_a.pop()
            queue_b.pop()
            self._consume("a", head_a)
            self._consume("b", head_b)
            self._emit(merged)
        elif a_key < b_key:
            queue_a.pop()
            self._consume("a", head_a)
            if self.mode in ("left", "outer"):
                self._emit(Flit(dict(head_a.fields), last=False))
            else:
                self.discarded += 1
        else:
            queue_b.pop()
            self._consume("b", head_b)
            if self.mode == "outer":
                self._emit(Flit(dict(head_b.fields), last=False))
            else:
                self.discarded += 1

    def plan(self, streams) -> Plan:
        """The tick's merge over the two whole streams.  Every action
        needs room; outside the drain phases it needs both heads, popped
        or not.  Each output flit names the input flit(s) it takes its
        fields from, gathered at the end (:func:`_joined`)."""
        a, b = streams["a"], streams["b"]
        a_last, a_filled, a_keys = a.last, a.filled, a.column(self.key_a)
        b_last, b_filled, b_keys = b.last, b.filled, b.column(self.key_b)
        ia = ib = 0
        a_done, b_done = self._a_done, self._b_done
        mode = self.mode
        passthrough = self.passthrough_keys
        keep_a, keep_b = mode in ("left", "outer"), mode == "outer"
        rows_a, rows_b, actions, discarded = [], [], [], 0
        na, nb = len(a), len(b)
        while True:
            if a_done and b_done:
                rows_a.append(-1)
                rows_b.append(-1)
                actions.append(_BOUNDARY)
                a_done = b_done = False
                continue
            has_a = not a_done and ia < na
            has_b = not b_done and ib < nb
            if a_done and has_b:  # drain b
                b_done = b_last[ib]
                if keep_b and b_filled[ib]:
                    rows_a.append(-1)
                    rows_b.append(ib)
                    actions.append(_DRAIN_B_EMIT)
                else:
                    discarded += 1
                    actions.append(_DRAIN_B)
                ib += 1
                continue
            if b_done and has_a:  # drain a
                a_done = a_last[ia]
                if keep_a and a_filled[ia]:
                    rows_a.append(ia)
                    rows_b.append(-1)
                    actions.append(_DRAIN_A_EMIT)
                else:
                    discarded += 1
                    actions.append(_DRAIN_A)
                ia += 1
                continue
            if not (has_a and has_b):
                break  # starved for good: the streams are exhausted
            if not a_filled[ia]:
                a_done = a_last[ia]
                ia += 1
                actions.append(_CLOSE_A)
                continue
            if not b_filled[ib]:
                b_done = b_last[ib]
                ib += 1
                actions.append(_CLOSE_B)
                continue
            a_key = a_keys[ia]
            if a_key is ABSENT:
                raise KeyError(self.key_a)
            if a_key in passthrough:
                a_done = a_last[ia]
                if mode == "inner":
                    discarded += 1
                    actions.append(_CLOSE_A)
                else:
                    rows_a.append(ia)
                    rows_b.append(-1)
                    actions.append(_TAKE_A)
                ia += 1
                continue
            b_key = b_keys[ib]
            if b_key is ABSENT:
                raise KeyError(self.key_b)
            if a_key == b_key:
                rows_a.append(ia)
                rows_b.append(ib)
                a_done, b_done = a_last[ia], b_last[ib]
                ia += 1
                ib += 1
                actions.append(_MERGE)
            elif a_key < b_key:
                a_done = a_last[ia]
                if keep_a:
                    rows_a.append(ia)
                    rows_b.append(-1)
                    actions.append(_TAKE_A)
                else:
                    discarded += 1
                    actions.append(_CLOSE_A)
                ia += 1
            else:
                b_done = b_last[ib]
                if keep_b:
                    rows_a.append(-1)
                    rows_b.append(ib)
                    actions.append(_TAKE_B)
                else:
                    discarded += 1
                    actions.append(_CLOSE_B)
                ib += 1

        def commit(_timed) -> None:
            self._a_done, self._b_done = a_done, b_done
            self.discarded += discarded

        return Plan(
            {"out": _joined(a, rows_a, b, rows_b, self.key_b)}, _STEPS,
            actions, commit, idle=not a_done and not b_done,
        )

    def is_idle(self) -> bool:
        return not self._a_done and not self._b_done


def _joined(a: Stream, rows_a: List[int], b: Stream, rows_b: List[int], key: str):
    """The Joiner's output: flit *k* carries the fields of ``a``'s flit
    ``rows_a[k]`` and of ``b``'s ``rows_b[k]`` (-1: none; neither: a
    boundary, which alone closes its item).  A merged flit takes B's
    fields over A's but for B's ``key``, which is A's or none
    (:meth:`Joiner._merge`)."""
    last = [row_a < 0 and row_b < 0 for row_a, row_b in zip(rows_a, rows_b)]
    columns = dict(a.gather(rows_a, last).columns)
    for name, values in b.gather(rows_b, last).columns.items():
        mine = columns.get(name)
        if name == key:  # A's, or B's on a flit A gives nothing to
            mine = repeat(ABSENT) if mine is None else mine
            columns[name] = [
                x if row >= 0 else y for x, y, row in zip(mine, values, rows_a)
            ]
        elif mine is None:
            columns[name] = values
        else:
            columns[name] = [x if y is ABSENT else y for x, y in zip(mine, values)]
    return Stream(last, columns, filled=map(operator.not_, last))


# The Joiner's steps (indices into _STEPS): every one needs room on out.
_STEPS = (
    Step(pushes=("out",), rooms=("out",)),  # item boundary
    Step(pops=("a",), pushes=("out",), rooms=("out",)),  # drain a, kept
    Step(pops=("a",), rooms=("out",)),  # drain a, discarded
    Step(pops=("b",), pushes=("out",), rooms=("out",)),  # drain b, kept
    Step(pops=("b",), rooms=("out",)),  # drain b, discarded
    Step(pops=("a",), peeks=("b",), rooms=("out",)),  # a closes / is discarded
    Step(pops=("b",), peeks=("a",), rooms=("out",)),  # b closes / is discarded
    Step(pops=("a",), peeks=("b",), pushes=("out",), rooms=("out",)),  # a kept
    Step(pops=("b",), peeks=("a",), pushes=("out",), rooms=("out",)),  # b kept
    Step(pops=("a", "b"), pushes=("out",), rooms=("out",)),  # keys match
)
(
    _BOUNDARY, _DRAIN_A_EMIT, _DRAIN_A, _DRAIN_B_EMIT, _DRAIN_B,
    _CLOSE_A, _CLOSE_B, _TAKE_A, _TAKE_B, _MERGE,
) = range(len(_STEPS))
