"""Memory Reader module.

Section III-C: given a starting address and a total amount of data, the
memory reader continuously issues memory requests at access granularity as
long as its internal prefetch buffer has room, and feeds returned data to
the next module at one flit per cycle.

The functional payload is configured as a :class:`~repro.hw.flit.Stream`
(the column contents, one flit per element, ``last`` marking item
boundaries): :meth:`MemoryReader.set_items` / :meth:`~MemoryReader.set_scalars`
build its columns directly, :meth:`~MemoryReader.set_stream` takes a
stream or converts a flit list.  A ``plan`` hands the stream on as it is;
a ``tick`` materialises one :class:`~repro.hw.flit.Flit` per push.  The
performance behaviour — request pacing, prefetch-buffer credits, latency
hiding — is simulated against the shared :class:`MemorySystem`.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from ..flit import EMPTY, Flit, Stream
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
        if prefetch_lines < 1:
            raise ValueError("prefetch_lines must be positive")
        self.memory = memory
        self.elem_size = elem_size
        self.prefetch_lines = prefetch_lines
        self._port = memory.register_port(self._on_response)
        self._elems_per_line = max(1, memory.config.access_bytes // elem_size)
        self.set_stream(EMPTY)

    # -- configuration (the configure_mem host call lands here) ----------------

    def set_stream(self, stream: Union[Stream, Sequence[Flit]]) -> None:
        """Load the pre-framed column contents this reader will stream: a
        :class:`Stream`, or a flit list to convert."""
        if not isinstance(stream, Stream):
            stream = Stream.from_flits(stream)
        self._stream = stream
        #: Per flit: the step it takes — 1 (True) for a payload flit (it
        #: spends a credit), 0 (False) for a boundary: ``filled`` itself.
        self._actions = stream.filled
        self._cursor = 0
        self._credits = 0
        self._lines_requested = 0
        self._lines_completed = 0
        payload = self._actions.count(True)
        self._lines_total = (
            payload + self._elems_per_line - 1
        ) // self._elems_per_line

    def set_items(self, items: Iterable[Iterable], field: str = "value") -> None:
        """Convenience: frame ``items`` (an iterable of per-item element
        sequences) and load them."""
        self.set_stream(Stream.of_items(items, field))

    def set_scalars(self, values: Iterable, field: str = "value") -> None:
        """Convenience: one single-flit item per scalar value."""
        self.set_stream(Stream.of_scalars(values, field))

    # -- simulation ---------------------------------------------------------------

    def _on_response(self, count: int) -> None:
        self._lines_completed += count
        self._credits += count * self._elems_per_line

    def tick(self, cycle: int) -> None:
        # Issue up to one request per cycle while the prefetch window has room.
        outstanding = self._lines_requested - self._lines_completed
        if self._lines_requested < self._lines_total and outstanding < self.prefetch_lines:
            self.memory.request(self._port, 1)
            self._lines_requested += 1
        # Emit one flit per cycle once data has "arrived".
        if self._cursor >= len(self._stream):
            return
        payload = self._actions[self._cursor]
        if self._credits <= 0 and payload:
            self._note_starved()
            return
        out = self._out
        if out is None:
            out = self._out = self.output()
        if not out.can_push():
            self._note_stalled(out)
            return
        flit = self._stream.flit(self._cursor)
        self._cursor += 1
        if payload:
            self._credits -= 1
        out.push(flit)
        self._note_busy()

    def plan(self, streams) -> Plan:
        """The rest of the stream, one push per flit; a payload flit also
        pops one element of the memory responses (a credit)."""
        cursor = self._cursor
        if cursor:
            stream, actions = self._stream[cursor:], self._actions[cursor:]
        else:  # the whole stream: nothing to copy
            stream, actions = self._stream, self._actions
        payload = sum(actions)
        per_line, credits = self._elems_per_line, self._credits
        fetch = self._lines_total - self._lines_requested

        def commit(_timed) -> None:
            self._cursor = len(self._stream)
            self._credits = credits + fetch * per_line - payload
            self._lines_requested = self._lines_completed = self._lines_total

        return Plan(
            {"out": stream}, _STEPS, actions, commit,
            idle=credits + fetch * per_line >= payload,
            port=self._port, fetch=fetch, window=self.prefetch_lines,
            credits=credits, per_line=per_line,
        )

    def is_idle(self) -> bool:
        return (
            self._cursor >= len(self._stream)
            and self._lines_requested >= self._lines_total
        )
