"""SPM Reader and SPM Updater modules.

Section III-C.  The **SPM Updater** supports three operating modes:

* ``sequential`` — writes incoming values to consecutive addresses from a
  configured start (memory-writer-like initialization of the SPM);
* ``random`` — writes ``value`` to the ``addr`` carried by each flit;
* ``rmw`` — read-modify-write with a configured modify function, guarded
  by the three-stage RAW-hazard interlock the paper describes (an incoming
  flit whose address is still in the read/modify/write stages stalls).

The **SPM Reader** supports address lookup (one address flit in, one value
flit out), *interval* reads (a start/end pair in, the whole interval
streamed out at one element per cycle), and a *drain* mode that streams the
entire scratchpad contents (used to move the BQSR count buffers back to
memory at the end of a run).
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Optional

from ..flit import ABSENT, Flit, Stream
from ..maxplus import Plan, Step, Timed
from ..module import Module
from ..spm import RmwInterlock, Scratchpad

_UPDATER_MODES = ("sequential", "random", "rmw")

# The SPM Updater's steps: a boundary flit, popped idle; an update.
_UPDATER_STEPS = (Step(pops=("in",)), Step(pops=("in",), busy=True))

# The SPM Reader's steps (indices into _READER_STEPS): all need room.
_READER_STEPS = (
    Step(pushes=("out",), rooms=("out",)),  # one word
    Step(pops=("in",), pushes=("out",), rooms=("out",)),  # one lookup
    Step(pops=("start", "end"), rooms=("out",)),  # latch an interval
    Step(pops=("start", "end"), pushes=("out",), rooms=("out",)),  # empty one
    Step(rooms=("out",)),  # the drain ends
)
(
    _EMIT_STEP, _LOOKUP_STEP, _LATCH_STEP, _LATCH_EMPTY_STEP, _DRAINED_STEP,
) = range(len(_READER_STEPS))


class SpmUpdater(Module):
    """Writes or read-modify-writes the scratchpad."""

    def __init__(
        self,
        name: str,
        spm: Scratchpad,
        mode: str = "sequential",
        addr_field: str = "addr",
        value_field: str = "value",
        start_address: int = 0,
        modify: Optional[Callable[[object, object], object]] = None,
    ):
        """``modify(old, flit_value)`` computes the new word in ``rmw``
        mode; the default increments by one (the BQSR counters)."""
        super().__init__(name)
        if mode not in _UPDATER_MODES:
            raise ValueError(f"updater mode must be one of {_UPDATER_MODES}")
        self.spm = spm
        self.mode = mode
        self.addr_field = addr_field
        self.value_field = value_field
        self._next_address = start_address
        self._modify = modify or (lambda old, _value: old + 1)
        self._interlock = RmwInterlock()
        self.updates = 0

    @property
    def hazard_stalls(self) -> int:
        """Cycles lost to RAW-hazard interlock stalls (rmw mode)."""
        return self._interlock.hazard_stalls

    def tick(self, cycle: int) -> None:
        queue = self._in
        if queue is None:
            queue = self._in = self.input()
        if not queue.can_pop():
            self._note_starved()
            return
        head = queue.peek()
        if not head.fields:
            queue.pop()
            return
        if self.mode == "sequential":
            queue.pop()
            self.spm.write(self._next_address, head[self.value_field])
            self._next_address += 1
        elif self.mode == "random":
            queue.pop()
            self.spm.write(head[self.addr_field], head[self.value_field])
        else:  # rmw
            address = head[self.addr_field]
            if not self._interlock.try_enter(cycle, address):
                self._note_stalled()
                return
            queue.pop()
            old = self.spm.read(address)
            self.spm.write(address, self._modify(old, head.get(self.value_field)))
        self.updates += 1
        self._note_busy()

    def plan(self, streams) -> Plan:
        """One pop per flit, never needing room.  An rmw update enters
        the interlock: the timing pass holds it until its address left
        the pipeline stages and counts the cycles it waited."""
        stream = streams["in"]
        spm, mode = self.spm, self.mode
        words: dict = {}
        address, updates = self._next_address, 0
        hazards = [] if mode == "rmw" else None
        for filled, target, value in zip(
            stream.filled, stream.column(self.addr_field),
            stream.column(self.value_field),
        ):
            if not filled:
                if hazards is not None:
                    hazards.append(None)
                continue
            if mode == "sequential":
                target = address
                address += 1
            elif target is ABSENT:
                raise KeyError(self.addr_field)
            if hazards is None:
                spm.peek(target)
                if value is ABSENT:
                    raise KeyError(self.value_field)
                words[target] = value
            else:
                old = words[target] if target in words else spm.peek(target)
                words[target] = self._modify(old, None if value is ABSENT else value)
                hazards.append(target)
            updates += 1

        def commit(timed: Timed) -> None:
            spm.commit(words, reads=updates if hazards is not None else 0,
                       writes=updates)
            self._next_address = address
            self.updates += updates
            if hazards is not None:
                self._interlock.settle(timed.entered, timed.stalls)

        return Plan(  # a boundary takes step 0 (False), an update step 1
            {}, _UPDATER_STEPS, stream.filled, commit,
            hazards=hazards,
            interlock=self._interlock.entries() if hazards is not None else None,
            writes_spm=spm,
        )


class SpmReader(Module):
    """Reads the scratchpad: lookup, interval, or drain mode."""

    room_first = True

    def __init__(
        self,
        name: str,
        spm: Scratchpad,
        mode: str = "interval",
        base_address: int = 0,
        out_field: str = "value",
        addr_out_field: Optional[str] = None,
    ):
        """``base_address`` maps stream coordinates (e.g. genome positions)
        to SPM words: ``word = coordinate - base_address``.  When
        ``addr_out_field`` is set, output flits also carry the coordinate.
        """
        super().__init__(name)
        if mode not in ("lookup", "interval", "drain"):
            raise ValueError(f"unknown SPM reader mode {mode!r}")
        self.spm = spm
        self.mode = mode
        self.base_address = base_address
        self.out_field = out_field
        self.addr_out_field = addr_out_field
        # interval state
        self._cursor: Optional[int] = None
        self._end: Optional[int] = None
        # drain state
        self._drain_cursor = 0
        self._draining = mode == "drain"
        if self._draining:
            self.drained = "idle"  # a drained tick has nothing to wait on

    # -- per-mode behaviour ----------------------------------------------------

    def _emit(self, coordinate: int, last: bool) -> None:
        word = coordinate - self.base_address
        fields = {self.out_field: self.spm.read(word)}
        if self.addr_out_field is not None:
            fields[self.addr_out_field] = coordinate
        self.output().push(Flit(fields, last=last))
        self._note_busy()

    def _tick_lookup(self) -> None:
        queue = self.input()
        if not queue.can_pop():
            self._note_starved()
            return
        flit = queue.pop()
        if not flit.fields:
            self.output().push(Flit({}, last=flit.last))
            self._note_busy()
            return
        self._emit(flit["addr"], flit.last)

    def _tick_interval(self) -> None:
        if self._cursor is None:
            starts = self.input("start")
            ends = self.input("end")
            if not (starts.can_pop() and ends.can_pop()):
                self._note_starved()
                return
            start_flit = starts.pop()
            end_flit = ends.pop()
            if not start_flit.fields:
                self.output().push(Flit({}, last=True))
                self._note_busy()
                return
            self._cursor = int(start_flit["value"])
            self._end = int(end_flit["value"])
            if self._cursor > self._end:
                self.output().push(Flit({}, last=True))
                self._note_busy()
                self._cursor = self._end = None
            return
        last = self._cursor == self._end
        self._emit(self._cursor, last)
        self._cursor += 1
        if last:
            self._cursor = self._end = None

    def _tick_drain(self) -> None:
        if self._drain_cursor >= len(self.spm):
            self._draining = False
            return
        last = self._drain_cursor == len(self.spm) - 1
        fields = {self.out_field: self.spm.read(self._drain_cursor)}
        if self.addr_out_field is not None:
            fields[self.addr_out_field] = self._drain_cursor
        self.output().push(Flit(fields, last=last))
        self._drain_cursor += 1
        self._note_busy()

    def tick(self, cycle: int) -> None:
        out = self._out
        if out is None:
            out = self._out = self.output()
        if not out.can_push():
            self._note_stalled(out)
            return
        if self.mode == "lookup":
            self._tick_lookup()
        elif self.mode == "interval":
            self._tick_interval()
        else:
            self._tick_drain()

    def plan(self, streams) -> Plan:
        """The tick over the whole streams; every action needs room, the
        drain's last one (it only flips to idle) included.  Words come
        from :meth:`Scratchpad.peek_span`, coordinates from a range."""
        spm, base = self.spm, self.base_address
        values, coordinates, last, actions = [], [], [], []
        filled = []  # per output flit: a word (not a boundary)

        def words(first: int, stop: int, word: int) -> None:
            """Stream coordinates ``first .. stop - 1`` (SPM words from
            ``word`` on), the last one closing the item."""
            span = spm.peek_span(word, word + stop - first)
            values.extend(span)
            coordinates.extend(range(first, stop))
            last.extend(repeat(False, len(span) - 1))
            last.append(True)
            actions.extend(repeat(_EMIT_STEP, len(span)))
            filled.extend(repeat(True, len(span)))

        def boundary(step: int) -> None:
            values.append(ABSENT)
            coordinates.append(ABSENT)
            last.append(True)
            actions.append(step)
            filled.append(False)

        cursor, end = self._cursor, self._end
        drain_cursor, draining = self._drain_cursor, self._draining
        if self.mode == "lookup":
            stream = streams["in"]
            for is_word, coordinate, closes in zip(
                stream.filled, stream.column("addr"), stream.last
            ):
                if is_word:
                    if coordinate is ABSENT:
                        raise KeyError("addr")
                    values.append(spm.peek(coordinate - base))
                    coordinates.append(coordinate)
                else:
                    values.append(ABSENT)
                    coordinates.append(ABSENT)
                last.append(closes)
                actions.append(_LOOKUP_STEP)
                filled.append(is_word)
        elif self.mode == "interval":
            starts, ends = streams["start"], streams["end"]
            latched = zip(
                starts.filled, starts.column("value"), ends.column("value")
            )
            while True:
                if cursor is not None:
                    words(cursor, end + 1, cursor - base)
                    cursor = end = None
                is_item, start, stop = next(latched, (None, None, None))
                if is_item is None:
                    break
                if not is_item:
                    boundary(_LATCH_EMPTY_STEP)
                    continue
                cursor, end = int(start), int(stop)
                if cursor > end:
                    boundary(_LATCH_EMPTY_STEP)
                    cursor = end = None
                else:
                    actions.append(_LATCH_STEP)
        elif draining:
            if drain_cursor < len(spm):
                words(drain_cursor, len(spm), drain_cursor)
                drain_cursor = len(spm)
            draining = False
            actions.append(_DRAINED_STEP)
        columns = {self.out_field: values}
        if self.addr_out_field is not None:
            columns[self.addr_out_field] = coordinates
        out = Stream(last, columns, filled)
        reads = filled.count(True)

        def commit(_timed) -> None:
            spm.commit({}, reads=reads)
            self._cursor, self._end = cursor, end
            self._drain_cursor, self._draining = drain_cursor, draining

        return Plan(
            {"out": out}, _READER_STEPS, actions, commit,
            idle=cursor is None, reads_spm=spm,
        )

    def is_idle(self) -> bool:
        if self.mode == "interval":
            return self._cursor is None
        if self.mode == "drain":
            return not self._draining
        return True
