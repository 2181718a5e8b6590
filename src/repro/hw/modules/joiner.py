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

from typing import FrozenSet

from ..flit import INS, Flit
from ..maxplus import Plan, Step
from ..module import Module

_MODES = ("inner", "left", "outer")


class Joiner(Module):
    """Streaming merge-joiner over two item-aligned keyed inputs."""

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
        or not."""
        a, b = streams["a"], streams["b"]
        ia = ib = 0
        a_done, b_done = self._a_done, self._b_done
        mode, key_a, key_b = self.mode, self.key_a, self.key_b
        passthrough = self.passthrough_keys
        keep_a, keep_b = mode in ("left", "outer"), mode == "outer"
        out, actions, discarded = [], [], 0
        na, nb, merge = len(a), len(b), self._merge
        while True:
            if a_done and b_done:
                out.append(Flit({}, last=True))
                actions.append(_BOUNDARY)
                a_done = b_done = False
                continue
            head_a = a[ia] if not a_done and ia < na else None
            head_b = b[ib] if not b_done and ib < nb else None
            if a_done and head_b is not None:  # drain b
                ib += 1
                b_done = head_b.last
                if keep_b and head_b.fields:
                    out.append(Flit(head_b.fields, last=False))
                    actions.append(_DRAIN_B_EMIT)
                else:
                    discarded += 1
                    actions.append(_DRAIN_B)
                continue
            if b_done and head_a is not None:  # drain a
                ia += 1
                a_done = head_a.last
                if keep_a and head_a.fields:
                    out.append(Flit(head_a.fields, last=False))
                    actions.append(_DRAIN_A_EMIT)
                else:
                    discarded += 1
                    actions.append(_DRAIN_A)
                continue
            if head_a is None or head_b is None:
                break  # starved for good: the streams are exhausted
            if not head_a.fields:
                ia += 1
                a_done = head_a.last
                actions.append(_CLOSE_A)
                continue
            if not head_b.fields:
                ib += 1
                b_done = head_b.last
                actions.append(_CLOSE_B)
                continue
            a_key = head_a.fields[key_a]
            if a_key in passthrough:
                ia += 1
                a_done = head_a.last
                if mode == "inner":
                    discarded += 1
                    actions.append(_CLOSE_A)
                else:
                    out.append(Flit(dict(head_a.fields), last=False))
                    actions.append(_TAKE_A)
                continue
            b_key = head_b.fields[key_b]
            if a_key == b_key:
                out.append(merge(head_a, head_b))
                ia += 1
                ib += 1
                a_done, b_done = head_a.last, head_b.last
                actions.append(_MERGE)
            elif a_key < b_key:
                ia += 1
                a_done = head_a.last
                if keep_a:
                    out.append(Flit(dict(head_a.fields), last=False))
                    actions.append(_TAKE_A)
                else:
                    discarded += 1
                    actions.append(_CLOSE_A)
            else:
                ib += 1
                b_done = head_b.last
                if keep_b:
                    out.append(Flit(dict(head_b.fields), last=False))
                    actions.append(_TAKE_B)
                else:
                    discarded += 1
                    actions.append(_CLOSE_B)

        def commit(_timed) -> None:
            self._a_done, self._b_done = a_done, b_done
            self.discarded += discarded
            self.busy_cycles += len(out)
            self.flits_out += len(out)

        return Plan(
            {"out": out}, _STEPS, actions, commit,
            idle=not a_done and not b_done,
        )

    def is_idle(self) -> bool:
        return not self._a_done and not self._b_done


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
