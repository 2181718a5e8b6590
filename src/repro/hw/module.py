"""Base class for Genesis hardware modules.

Every module (Figure 6) consumes flits from named input queues and produces
flits into named output queues, at most one flit per port per cycle.  A
module's ``tick`` is called once per simulated cycle by the dense loop; it
must respect queue back-pressure (never push to a full queue, never pop
from an empty one).  A module that also defines ``plan`` (beside its
``tick``) can be solved by the max-plus mode instead (:mod:`repro.hw.maxplus`).

Modules keep busy/starve/stall statistics so the benchmark harness can
attribute time the way Figure 13(b) does; stalls are additionally charged
to the blocking queue's ``full_stalls`` counter when the queue is passed
to :meth:`_note_stalled`.  A solved run ticks nothing, so what a
waiting tick records is declared (``room_first``, ``drained``) for the
profile derived from its solution (:mod:`repro.obs.profile`).
"""

from __future__ import annotations

from typing import Dict, Optional

from .queue import HardwareQueue


class Module:
    """A dataflow hardware module."""

    #: Whether a tick checks its output's room before its inputs: while
    #: waiting, a room-first module reads as stalled whenever its output
    #: is full, an input-first one as starved whenever a head it needs is
    #: missing (a head there and no room, or an RMW hazard, is stalled).
    room_first = False
    #: What a tick records once the module's last action is behind it
    #: (and, room-first, its output has room): "starved" or "idle".
    drained = "starved"

    def __init__(self, name: str):
        self.name = name
        self.inputs: Dict[str, HardwareQueue] = {}
        self.outputs: Dict[str, HardwareQueue] = {}
        #: Registration order (filled in by Engine.add_module).
        self._index = -1
        #: Lazily bound default ports: hot tick bodies cache their queue
        #: here on first use instead of a method call + dict lookup per
        #: simulated cycle.
        self._out: Optional[HardwareQueue] = None
        self._in: Optional[HardwareQueue] = None
        # statistics
        self.busy_cycles = 0
        self.starve_cycles = 0
        self.stall_cycles = 0
        self.flits_out = 0

    # -- wiring ----------------------------------------------------------------

    def connect_input(self, port: str, queue: HardwareQueue) -> None:
        """Attach ``queue`` as input port ``port``."""
        if port in self.inputs:
            raise ValueError(f"{self.name}: input port {port} already connected")
        self.inputs[port] = queue
        queue.consumers.append(self)

    def connect_output(self, port: str, queue: HardwareQueue) -> None:
        """Attach ``queue`` as output port ``port``."""
        if port in self.outputs:
            raise ValueError(f"{self.name}: output port {port} already connected")
        self.outputs[port] = queue
        queue.producers.append(self)

    def input(self, port: str = "in") -> HardwareQueue:
        """The input queue on ``port`` (raises if unconnected)."""
        try:
            return self.inputs[port]
        except KeyError:
            raise RuntimeError(f"{self.name}: input port {port} not connected") from None

    def output(self, port: str = "out") -> HardwareQueue:
        """The output queue on ``port`` (raises if unconnected)."""
        try:
            return self.outputs[port]
        except KeyError:
            raise RuntimeError(f"{self.name}: output port {port} not connected") from None

    # -- simulation hooks -----------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """Advance one cycle.  Subclasses override."""
        raise NotImplementedError

    def is_idle(self) -> bool:
        """True when this module holds no internal state that still needs
        to drain.  The engine stops when all modules are idle and all
        queues are empty.  Subclasses with internal buffers override."""
        return True

    # -- bookkeeping helpers ----------------------------------------------------------

    def _note_busy(self) -> None:
        self.busy_cycles += 1
        self.flits_out += 1

    def _note_starved(self) -> None:
        self.starve_cycles += 1

    def _note_stalled(self, queue: Optional[HardwareQueue] = None) -> None:
        """Record one cycle lost to output back-pressure; pass the
        blocking queue to charge its ``full_stalls`` counter so stalls
        can be attributed to a specific edge of the pipeline graph."""
        self.stall_cycles += 1
        if queue is not None:
            queue.full_stalls += 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class SinkModule(Module):
    """Base for modules that terminate a stream (memory writers)."""

    def is_done(self) -> bool:
        """True when the sink has observed the end of its stream."""
        return self.is_idle()


class SourceModule(Module):
    """Base for modules that originate a stream (memory readers)."""

    drained = "idle"

    def is_done(self) -> bool:
        """True when the source has emitted its whole stream."""
        return self.is_idle()
