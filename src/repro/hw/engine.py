"""Cycle-accurate simulation engine: a max-plus solution and a dense loop.

The engine drives a set of modules, queues, and the memory system while
preserving registered-queue semantics: within a cycle each module ticks
once (moving at most one flit per port), memory ticks, and staged queue
pushes commit so flits advance one hop per cycle.  The run ends when
every source has drained, every queue is empty, and every module reports
idle.

Two modes produce bit-identical cycle counts and functional results:

* ``maxplus`` (default) — no ticks at all: every module plans its whole
  input streams and the cycle of each state-changing tick comes out of
  one max-plus timing pass (:mod:`repro.hw.maxplus`), left on the engine
  as ``engine.solution`` for a profile.  Where that cannot apply — a
  module without a plan for the tick it runs, a queue cycle, a wave that
  would deadlock, diverge or overflow ``max_cycles`` — ``run`` ticks
  ``dense`` instead, and ``RunStats.mode`` says so.
* ``dense`` — the classic loop that ticks every module and commits every
  queue each cycle.  It is the differential oracle the max-plus mode is
  held to; it leaves no solution.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .maxplus import run_maxplus
from .memory import MemorySystem
from .module import Module
from .queue import HardwareQueue


@dataclass
class RunStats:
    """Summary of one simulation run.

    ``cycles`` counts *simulated* cycles and is identical across engine
    modes; the host-side fields record what the simulation cost to run:
    ``ticks_executed`` module ticks actually executed (state-changing
    ticks solved, under ``maxplus``) out of ``ticks_possible`` (modules x
    cycles, what the dense loop does), and ``wall_seconds`` host wall
    time inside ``Engine.run`` — or, for a wave replayed from a
    :class:`~repro.accel.scheduler.WaveMemo`, the replay's own host
    seconds (the other fields are the recorded run's).
    """

    cycles: int
    flits_by_module: Dict[str, int] = field(default_factory=dict)
    busy_by_module: Dict[str, int] = field(default_factory=dict)
    memory_bytes: int = 0
    memory_requests: int = 0
    # host-side metrics
    mode: str = "dense"
    wall_seconds: float = 0.0
    ticks_executed: int = 0
    ticks_possible: int = 0

    def copy(self) -> "RunStats":
        """A fresh RunStats equal to this one, with its own dict
        instances — what a cache or replay hands out so a caller mutating
        one run's maps cannot corrupt the recording."""
        stats = copy.copy(self)
        stats.flits_by_module = dict(self.flits_by_module)
        stats.busy_by_module = dict(self.busy_by_module)
        return stats

    def throughput(self, flits: int) -> float:
        """Flits per cycle for a given flit count."""
        return flits / self.cycles if self.cycles else 0.0

    @property
    def skip_ratio(self) -> float:
        """Fraction of dense-equivalent module ticks the run never
        executed (0.0 for a dense run)."""
        if not self.ticks_possible:
            return 0.0
        return 1.0 - self.ticks_executed / self.ticks_possible

    def host_flits_per_second(self, flits: int) -> float:
        """Host-side simulation throughput for a given flit count."""
        return flits / self.wall_seconds if self.wall_seconds > 0 else 0.0


class Engine:
    """Owns the simulated clock and everything attached to it."""

    #: Scheduling mode ``run()`` uses when none is passed explicitly.
    #: Override per instance (``engine.default_mode = "dense"``) or
    #: globally on the class for differential testing.
    default_mode = "maxplus"

    def __init__(
        self,
        memory: Optional[MemorySystem] = None,
        default_queue_capacity: int = 8,
    ):
        self.memory = memory or MemorySystem()
        self.modules: List[Module] = []
        self.queues: List[HardwareQueue] = []
        self.default_queue_capacity = default_queue_capacity
        self._queue_serial = 0
        self.cycle = 0
        #: The last run's :class:`~repro.hw.maxplus.Solution` (None after
        #: a dense run).
        self.solution = None

    # -- construction helpers ------------------------------------------------------

    def add_module(self, module: Module) -> Module:
        """Register a module with the engine."""
        module._index = len(self.modules)
        self.modules.append(module)
        return module

    def remove_module(self, module: Module) -> None:
        """Detach a module from the engine and from every queue it was
        wired to.  Drivers that swap a stock module for a custom one must
        use this (not ``engine.modules.remove``) so the module indices
        (the max-plus mode's registration order) and the queues'
        producer/consumer lists stay consistent."""
        self.modules.remove(module)
        module._index = -1
        for index, survivor in enumerate(self.modules):
            survivor._index = index
        for queue in list(module.inputs.values()) + list(module.outputs.values()):
            if module in queue.consumers:
                queue.consumers.remove(module)
            if module in queue.producers:
                queue.producers.remove(module)

    def new_queue(self, name: str = None, capacity: int = None) -> HardwareQueue:
        """Create and register a fresh queue (engine default capacity when
        none is given)."""
        self._queue_serial += 1
        if capacity is None:
            capacity = self.default_queue_capacity
        queue = HardwareQueue(name or f"q{self._queue_serial}", capacity)
        self.queues.append(queue)
        return queue

    def connect(
        self,
        producer: Module,
        consumer: Module,
        out_port: str = "out",
        in_port: str = "in",
        capacity: int = None,
    ) -> HardwareQueue:
        """Wire producer's ``out_port`` to consumer's ``in_port`` through a
        new queue."""
        queue = self.new_queue(
            f"{producer.name}.{out_port}->{consumer.name}.{in_port}", capacity
        )
        producer.connect_output(out_port, queue)
        consumer.connect_input(in_port, queue)
        return queue

    def release(self) -> None:
        """Break the references that tie modules, queues and the memory
        into cycles (a queue names its producer and consumer, a memory
        port its reader's callback) once nothing will run, step or
        profile the engine again.  Its objects are then freed by
        reference counting when the caller drops it, instead of being
        carried into the cycle collector's older generations — a wave's
        engine is built and dropped per wave."""
        for queue in self.queues:
            queue.producers.clear()
            queue.consumers.clear()
        self.memory.release()

    # -- simulation --------------------------------------------------------------

    def step(self) -> None:
        """Advance the clock by one cycle, ticking everything (the dense
        schedule; manual stepping and the tracer use this)."""
        for module in self.modules:
            module.tick(self.cycle)
        self.memory.tick(self.cycle)
        for queue in self.queues:
            queue.commit()
        self.cycle += 1

    def is_quiescent(self) -> bool:
        """True when no work remains anywhere."""
        if not self.memory.is_idle():
            return False
        if any(not queue.is_empty() for queue in self.queues):
            return False
        return all(module.is_idle() for module in self.modules)

    def run(self, max_cycles: int = 100_000_000, mode: Optional[str] = None) -> RunStats:
        """Run until quiescent (or raise a deadlock report after
        ``max_cycles``).  ``mode`` is ``"maxplus"`` or ``"dense"``;
        defaults to :attr:`default_mode`."""
        mode = mode or self.default_mode
        if mode == "maxplus":
            stats = run_maxplus(self, max_cycles)
            if stats is not None:
                return stats
            mode = "dense"  # where the max-plus solution does not apply
        if mode == "dense":
            self.solution = None
            return self._run_dense(max_cycles)
        raise ValueError(f"unknown engine mode {mode!r}")

    def _run_dense(self, max_cycles: int) -> RunStats:
        start = self.cycle
        t0 = time.perf_counter()
        idle_streak = 0
        while idle_streak < 2:
            if self.cycle - start >= max_cycles:
                raise RuntimeError(self._deadlock_report(max_cycles))
            self.step()
            idle_streak = idle_streak + 1 if self.is_quiescent() else 0
        cycles = self.cycle - start
        return self._stats(
            cycles,
            mode="dense",
            wall_seconds=time.perf_counter() - t0,
            ticks_executed=cycles * len(self.modules),
        )

    # -- diagnostics ---------------------------------------------------------------

    def _deadlock_report(self, max_cycles: int) -> str:
        """A deadlock/overflow message naming the stuck parts: non-idle
        modules, non-empty and full queues, and outstanding memory
        requests -- instead of a bare 'deadlock?'."""
        lines = [
            f"simulation did not finish within {max_cycles} cycles "
            f"(cycle {self.cycle})"
        ]
        stuck = [m for m in self.modules if not m.is_idle()]
        if stuck:
            lines.append("  non-idle modules:")
            for module in stuck[:12]:
                lines.append(
                    f"    {module!r} busy={module.busy_cycles} "
                    f"starved={module.starve_cycles} stalled={module.stall_cycles}"
                )
            if len(stuck) > 12:
                lines.append(f"    ... and {len(stuck) - 12} more")
        backed_up = [q for q in self.queues if not q.is_empty()]
        if backed_up:
            lines.append("  non-empty queues:")
            for queue in backed_up[:12]:
                state = "FULL" if queue.is_full() else f"{queue.occupancy()}"
                lines.append(
                    f"    {queue.name}: {state}/{queue.capacity} "
                    f"(full_stalls={queue.full_stalls})"
                )
            if len(backed_up) > 12:
                lines.append(f"    ... and {len(backed_up) - 12} more")
        pending = self.memory.pending_by_port()
        if pending or self.memory.in_flight():
            lines.append(
                f"  memory: {sum(pending.values())} requests awaiting grant "
                f"on ports {sorted(pending)} "
                f"({self.memory.in_flight()} in flight)"
            )
        if len(lines) == 1:
            lines.append("  (all modules idle, all queues empty)")
        return "\n".join(lines)

    def _stats(
        self,
        cycles: int,
        mode: str = "dense",
        wall_seconds: float = 0.0,
        ticks_executed: int = 0,
    ) -> RunStats:
        return RunStats(
            cycles=cycles,
            flits_by_module={m.name: m.flits_out for m in self.modules},
            busy_by_module={m.name: m.busy_cycles for m in self.modules},
            memory_bytes=self.memory.bytes_transferred,
            memory_requests=self.memory.requests_served,
            mode=mode,
            wall_seconds=wall_seconds,
            ticks_executed=ticks_executed,
            ticks_possible=cycles * len(self.modules),
        )
