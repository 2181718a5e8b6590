"""Memory Writer module.

Section III-C: consumes one flit per cycle into an internal buffer; every
time the buffer fills one memory access granularity, a write request is
issued to memory.  Functionally the writer also records everything it
consumed so drivers can read results back (the ``genesis_flush`` path).
"""

from __future__ import annotations

from typing import List

from ..flit import ABSENT
from ..maxplus import Plan, Step
from ..memory import MemorySystem
from ..module import SinkModule

_POP = Step(pops=("in",), busy=True)


class MemoryWriter(SinkModule):
    """Streams results back to accelerator memory."""

    def __init__(
        self,
        name: str,
        memory: MemorySystem,
        elem_size: int = 4,
        field: str = "value",
    ):
        super().__init__(name)
        self.memory = memory
        self.elem_size = elem_size
        self.field = field
        self._port = memory.register_port(None)
        self._elems_per_line = max(1, memory.config.access_bytes // elem_size)
        self._buffered = 0
        #: Every payload value consumed, in order (functional result).
        self.collected: List[object] = []
        #: Collected values grouped into items by the last bits.
        self.items: List[List[object]] = []
        self._current_item: List[object] = []

    def tick(self, cycle: int) -> None:
        queue = self._in
        if queue is None:
            queue = self._in = self.input()
        if not queue.can_pop():
            self._note_starved()
            return
        flit = queue.pop()
        if self.field in flit:
            value = flit[self.field]
            self.collected.append(value)
            self._current_item.append(value)
            self._buffered += 1
            if self._buffered >= self._elems_per_line:
                self.memory.request(self._port, 1)
                self._buffered = 0
        if flit.last:
            self.items.append(self._current_item)
            self._current_item = []
        self._note_busy()

    def plan(self, streams) -> Plan:
        """One pop per flit; the pop that fills a line issues its write."""
        stream = streams["in"]
        per_line = self._elems_per_line
        collected, items, current = [], [], list(self._current_item)
        buffered, stores = self._buffered, []
        for index, (value, last) in enumerate(
            zip(stream.column(self.field), stream.last)
        ):
            if value is not ABSENT:
                collected.append(value)
                current.append(value)
                buffered += 1
                if buffered >= per_line:
                    stores.append(index)
                    buffered = 0
            if last:
                items.append(current)
                current = []

        def commit(_timed) -> None:
            self.collected.extend(collected)
            self.items.extend(items)
            self._current_item = current
            self._buffered = buffered

        return Plan(
            {}, (_POP,), [0] * len(stream), commit,
            port=self._port, stores=("in", stores),
        )

    # ``is_idle`` is inherited (always True): partial lines are flushed
    # with the final write burst — the sub-line remainder is not worth a
    # dedicated request in the model.
