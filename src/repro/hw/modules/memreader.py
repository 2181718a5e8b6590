"""Memory Reader module.

Section III-C: given a starting address and a total amount of data, the
memory reader continuously issues memory requests at access granularity as
long as its internal prefetch buffer has room, and feeds returned data to
the next module at one flit per cycle.

The functional payload is configured as a pre-framed flit stream (the
column contents, one flit per element, ``last`` marking item boundaries);
the performance behaviour — request pacing, prefetch-buffer credits,
latency hiding — is simulated against the shared :class:`MemorySystem`.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..flit import Flit, item_flits
from ..maxplus import RESPONSES, Plan, Step
from ..memory import MemorySystem
from ..module import SourceModule

_STEPS = (
    Step(pushes=("out",), rooms=("out",)),  # a boundary flit
    Step(pops=(RESPONSES,), pushes=("out",), rooms=("out",)),  # a payload one
)


class MemoryReader(SourceModule):
    """Streams one column of a table from accelerator memory."""

    def __init__(
        self,
        name: str,
        memory: MemorySystem,
        elem_size: int = 1,
        prefetch_lines: int = 8,
    ):
        super().__init__(name)
        if elem_size < 1:
            raise ValueError("elem_size must be positive")
        self.memory = memory
        self.elem_size = elem_size
        self.prefetch_lines = prefetch_lines
        self._port = memory.register_port(self._on_response)
        self._elems_per_line = max(1, memory.config.access_bytes // elem_size)
        self._flits: List[Flit] = []
        self._cursor = 0
        self._credits = 0
        self._lines_requested = 0
        self._lines_completed = 0
        self._lines_total = 0

    # -- configuration (the configure_mem host call lands here) ----------------

    def set_stream(self, flits: Sequence[Flit]) -> None:
        """Load the pre-framed column contents this reader will stream."""
        self._flits = list(flits)
        self._cursor = 0
        self._credits = 0
        self._lines_requested = 0
        self._lines_completed = 0
        payload = sum(1 for flit in self._flits if flit.fields)
        self._lines_total = (
            payload + self._elems_per_line - 1
        ) // self._elems_per_line

    def set_items(self, items: Iterable[Iterable], field: str = "value") -> None:
        """Convenience: frame ``items`` (an iterable of per-item element
        sequences) and load them."""
        flits: List[Flit] = []
        for item in items:
            flits.extend(item_flits(item, field))
        self.set_stream(flits)

    def set_scalars(self, values: Iterable, field: str = "value") -> None:
        """Convenience: one single-flit item per scalar value."""
        flits = [Flit({field: value}, last=True) for value in values]
        self.set_stream(flits)

    # -- simulation ---------------------------------------------------------------

    def _on_response(self, count: int) -> None:
        self._lines_completed += count
        self._credits += count * self._elems_per_line
        # Fresh data (or a freed prefetch slot): make sure the scheduler
        # ticks us next cycle even if we went to sleep waiting for it.
        self._wake()

    def tick(self, cycle: int) -> None:
        # Issue up to one request per cycle while the prefetch window has room.
        outstanding = self._lines_requested - self._lines_completed
        if self._lines_requested < self._lines_total and outstanding < self.prefetch_lines:
            self.memory.request(self._port, 1)
            self._lines_requested += 1
        # Emit one flit per cycle once data has "arrived".
        if self._cursor >= len(self._flits):
            return
        if self._credits <= 0 and self._flits[self._cursor].fields:
            self._note_starved()
            return
        out = self._out
        if out is None:
            out = self._out = self.output()
        if not out.can_push():
            self._note_stalled(out)
            return
        flit = self._flits[self._cursor]
        self._cursor += 1
        if flit.fields:
            self._credits -= 1
        # Flits are immutable once pushed (modules build new flits rather
        # than editing received ones; Fork makes its own per-port copies),
        # so the preloaded stream objects can be sent as-is.
        out.push(flit)
        self._note_busy()

    def plan(self, streams) -> Plan:
        """The rest of the stream, one push per flit; a payload flit also
        pops one element of the memory responses (a credit)."""
        flits = self._flits[self._cursor:]
        actions = [1 if flit.fields else 0 for flit in flits]
        payload = sum(actions)
        per_line, credits = self._elems_per_line, self._credits
        fetch = self._lines_total - self._lines_requested

        def commit(_timed) -> None:
            self._cursor = len(self._flits)
            self._credits = credits + fetch * per_line - payload
            self._lines_requested = self._lines_completed = self._lines_total
            self.busy_cycles += len(flits)
            self.flits_out += len(flits)

        return Plan(
            {"out": flits}, _STEPS, actions, commit,
            idle=credits + fetch * per_line >= payload,
            port=self._port, fetch=fetch, window=self.prefetch_lines,
            credits=credits, per_line=per_line,
        )

    def wants_tick(self) -> bool:
        """Precise wake contract: while every prefetch credit is spoken
        for and the request window is full, this reader can make no
        progress until a memory response lands — exactly the DRAM-latency
        dead time the event engine fast-forwards.  ``_on_response`` wakes
        it back up."""
        outstanding = self._lines_requested - self._lines_completed
        if self._lines_requested < self._lines_total and outstanding < self.prefetch_lines:
            return True  # can issue another request
        if self._cursor < len(self._flits):
            head = self._flits[self._cursor]
            # Boundary flits need no credits; payload flits need one.
            return self._credits > 0 or not head.fields
        return False

    def is_idle(self) -> bool:
        return (
            self._cursor >= len(self._flits)
            and self._lines_requested >= self._lines_total
        )
