"""Bounded hardware queues connecting dataflow modules.

Section III-C: "multiple independent modules are connected to each other
via hardware queues".  A queue here is a bounded FIFO with *registered*
semantics: a flit pushed in cycle N becomes visible to the consumer in
cycle N+1 (the engine commits staged pushes at the end of every cycle).
That single-cycle hop latency is what makes the simulation behave like a
pipelined circuit regardless of the order modules are ticked in.

Queues count their pushes and ``full_stalls``, the cycles a producer
reported being blocked on this queue (via
:meth:`repro.hw.module.Module._note_stalled`) — the dense loop's
back-pressure attribution; a solved run's profile derives the same from
its timing lists (:mod:`repro.obs.profile`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional

from .flit import Flit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .module import Module


class HardwareQueue:
    """A bounded FIFO of flits with end-of-cycle commit semantics."""

    __slots__ = (
        "name", "capacity", "_items", "_staged", "producers", "consumers",
        "total_pushed", "full_stalls",
    )

    def __init__(self, name: str, capacity: int = 8):
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        self.name = name
        self.capacity = capacity
        self._items: Deque[Flit] = deque()
        self._staged: List[Flit] = []
        self.producers: List["Module"] = []
        self.consumers: List["Module"] = []
        # statistics
        self.total_pushed = 0
        self.full_stalls = 0

    # -- producer side -------------------------------------------------------

    def can_push(self) -> bool:
        """True when there is room for one more flit this cycle."""
        return len(self._items) + len(self._staged) < self.capacity

    def push(self, flit: Flit) -> None:
        """Stage one flit; it becomes visible after the cycle commits.

        Pushing to a full queue is a module bug (back-pressure must be
        checked first) and raises.  Use :meth:`try_push` for the
        non-raising variant.
        """
        if len(self._items) + len(self._staged) >= self.capacity:
            raise RuntimeError(f"push to full queue {self.name}")
        self._staged.append(flit)
        self.total_pushed += 1

    def try_push(self, flit: Flit) -> bool:
        """Stage one flit if there is room; returns False (and leaves the
        queue untouched) when full.  Producers that use this path should
        record the stall against this queue with ``_note_stalled(queue)``
        so back-pressure attribution stays accurate."""
        if not self.can_push():
            return False
        self.push(flit)
        return True

    # -- consumer side ---------------------------------------------------------

    def can_pop(self) -> bool:
        """True when a committed flit is available."""
        return bool(self._items)

    def peek(self) -> Optional[Flit]:
        """The head flit without consuming it (None when empty)."""
        return self._items[0] if self._items else None

    def pop(self) -> Flit:
        """Consume and return the head flit."""
        if not self._items:
            raise RuntimeError(f"pop from empty queue {self.name}")
        return self._items.popleft()

    # -- engine hooks ---------------------------------------------------------

    def commit(self) -> None:
        """End-of-cycle: make staged flits visible."""
        if self._staged:
            self._items.extend(self._staged)
            self._staged.clear()

    def is_empty(self) -> bool:
        """True when nothing is committed or staged."""
        return not self._items and not self._staged

    def is_full(self) -> bool:
        """True when no flit can be staged this cycle."""
        return not self.can_push()

    def occupancy(self) -> int:
        """Committed plus staged flits currently held."""
        return len(self._items) + len(self._staged)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"HardwareQueue({self.name}, {len(self._items)}/{self.capacity})"
