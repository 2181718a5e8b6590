"""The engine probe and the per-run :class:`ProfileReport`.

A :class:`Profiler` attaches to one :class:`~repro.hw.engine.Engine` as
its *probe*: the engine calls :meth:`Profiler.on_cycle` once per cycle
(a probed run always ticks the dense loop) and
:meth:`Profiler.on_run_end` when ``run()`` finishes.  With no probe
attached the engine pays a single ``is None`` check per simulated cycle
— the metrics-disabled path adds nothing to the per-module hot loop.

The profiler harvests three layers into one report:

* **module attribution** — busy / starved / stalled cycle tallies the
  modules already keep, with the remainder as idle, so every module's
  four states sum exactly to the run's cycles;
* **queues and memory** — per-queue occupancy histograms (sampled each
  cycle), push totals and back-pressure stalls, per-channel memory
  grant counts and utilization, and the reads/writes of every scratchpad
  reachable from the modules;
* **timeline** — coalesced per-module activity spans (via
  :class:`~repro.obs.timeline.TimelineRecorder`) that the Chrome-trace
  exporter renders as a visual waterfall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .registry import Histogram
from .timeline import Span, TimelineRecorder


@dataclass
class ModuleProfile:
    """One module's cycle attribution over a profiled run."""

    name: str
    kind: str
    busy: int
    starved: int
    stalled: int
    idle: int
    flits_out: int

    @property
    def total(self) -> int:
        """Sum of all four states (equals the run's cycles)."""
        return self.busy + self.starved + self.stalled + self.idle

    def utilization(self, cycles: int) -> float:
        """Busy fraction of the run."""
        return self.busy / cycles if cycles else 0.0


@dataclass
class QueueProfile:
    """One queue's occupancy and back-pressure profile."""

    name: str
    capacity: int
    total_pushed: int
    max_occupancy: int
    full_stalls: int
    #: occupancy_counts[n] = cycles the queue held n committed flits.
    occupancy_counts: List[int] = field(default_factory=list)

    def mean_occupancy(self) -> float:
        """Mean sampled occupancy (0.0 over an empty window)."""
        total = sum(self.occupancy_counts)
        if not total:
            return 0.0
        weighted = sum(n * c for n, c in enumerate(self.occupancy_counts))
        return weighted / total


@dataclass
class ChannelProfile:
    """One memory channel's share of the run."""

    channel: int
    grants: int

    def utilization(self, cycles: int) -> float:
        """Granted-request cycles over total cycles."""
        return self.grants / cycles if cycles else 0.0


@dataclass
class MemoryProfile:
    """Memory-system totals plus the per-channel breakdown."""

    requests: int
    bytes_transferred: int
    responses: int
    channels: List[ChannelProfile] = field(default_factory=list)


@dataclass
class ProfileReport:
    """Everything one simulated run revealed, in queryable form."""

    name: str
    cycles: int
    mode: str
    wall_seconds: float
    ticks_executed: int
    ticks_possible: int
    modules: List[ModuleProfile]
    queues: List[QueueProfile]
    memory: MemoryProfile
    spms: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Per-module coalesced activity spans.
    timelines: Dict[str, List[Span]] = field(default_factory=dict)
    #: Queue occupancy change points (cycle, occupancy) for trace counters.
    queue_points: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)
    #: Free-form extras: SPM cache hit rates, per-wave scheduler timing...
    extra: Dict[str, object] = field(default_factory=dict)
    #: Queue topology: queue name -> {"producers": [...], "consumers":
    #: [...]} module names, captured at report time so bottleneck
    #: analysis (:mod:`repro.obs.analyze`) can walk back-pressure chains
    #: offline from the exported JSON.
    edges: Dict[str, Dict[str, List[str]]] = field(default_factory=dict)

    @property
    def skip_ratio(self) -> float:
        """Fraction of dense-equivalent ticks the run skipped."""
        if not self.ticks_possible:
            return 0.0
        return 1.0 - self.ticks_executed / self.ticks_possible

    def module(self, name: str) -> ModuleProfile:
        """Look one module up by name (raises KeyError when absent)."""
        for profile in self.modules:
            if profile.name == name:
                return profile
        raise KeyError(name)

    def bottleneck(self) -> Optional[str]:
        """The busiest module — where the critical path sits."""
        if not self.modules:
            return None
        return max(self.modules, key=lambda m: m.busy).name

    def validate(self) -> None:
        """Check the core invariant: every module's busy + starved +
        stalled + idle cycles sum to the run's total cycles."""
        for profile in self.modules:
            if profile.total != self.cycles:
                raise ValueError(
                    f"{profile.name}: states sum to {profile.total}, "
                    f"run has {self.cycles} cycles"
                )
            if profile.idle < 0:
                raise ValueError(f"{profile.name}: negative idle cycles")

    def render(self) -> str:
        """A human-readable profile table."""
        lines = [
            f"profile {self.name}: {self.cycles} cycles, {self.mode} mode, "
            f"{self.wall_seconds:.4f}s host "
            f"(skip ratio {self.skip_ratio:.1%})"
        ]
        width = max([len(m.name) for m in self.modules] or [6])
        lines.append(
            f"  {'module'.ljust(width)}  {'busy':>8} {'starve':>8} "
            f"{'stall':>8} {'idle':>8} {'util':>6}"
        )
        for m in sorted(self.modules, key=lambda m: -m.busy):
            lines.append(
                f"  {m.name.ljust(width)}  {m.busy:>8} {m.starved:>8} "
                f"{m.stalled:>8} {m.idle:>8} "
                f"{m.utilization(self.cycles):>6.1%}"
            )
        hot = [q for q in self.queues if q.full_stalls or q.max_occupancy]
        if hot:
            lines.append("  queues (backed up first):")
            for q in sorted(hot, key=lambda q: -q.full_stalls)[:12]:
                lines.append(
                    f"    {q.name}: mean {q.mean_occupancy():.2f} / "
                    f"max {q.max_occupancy} / cap {q.capacity}, "
                    f"{q.full_stalls} full-stalls"
                )
        mem = self.memory
        if mem.requests:
            util = ", ".join(
                f"ch{c.channel} {c.utilization(self.cycles):.1%}"
                for c in mem.channels
            )
            lines.append(
                f"  memory: {mem.requests} requests, "
                f"{mem.bytes_transferred} bytes ({util})"
            )
        for name, stats in self.spms.items():
            lines.append(
                f"  spm {name}: {stats['reads']} reads, "
                f"{stats['writes']} writes"
            )
        for key, value in self.extra.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


class Profiler:
    """Engine probe: collects per-cycle observations and builds reports.

    Usage::

        profiler = Profiler()
        profiler.attach(engine)
        stats = engine.run()
        report = profiler.report()
    """

    def __init__(self, name: str = "run"):
        self.name = name
        self.recorder: Optional[TimelineRecorder] = None
        self._engine = None
        self._last_stats = None
        self._start_cycle = 0
        self._module_base: Dict[str, Tuple[int, int, int, int]] = {}
        self._queue_base: Dict[str, Tuple[int, int]] = {}
        self._queue_last_occ: Dict[str, int] = {}
        self._occupancy: Dict[str, Histogram] = {}
        self._queue_points: Dict[str, List[Tuple[int, int]]] = {}
        self._mem_base: Tuple[int, int, int] = (0, 0, 0)
        self._channel_base: List[int] = []

    # -- lifecycle -----------------------------------------------------------------

    def attach(self, engine) -> "Profiler":
        """Become ``engine``'s probe; profiling covers activity from the
        next cycle boundary on."""
        if self._engine is not None:
            raise RuntimeError("profiler is already attached")
        engine.probe = self
        self._engine = engine
        self._start_cycle = engine.cycle
        for module in engine.modules:
            self._module_base[module.name] = (
                module.busy_cycles, module.starve_cycles,
                module.stall_cycles, module.flits_out,
            )
        for queue in engine.queues:
            self._queue_base[queue.name] = (queue.total_pushed, queue.full_stalls)
            self._queue_last_occ[queue.name] = len(queue)
            self._occupancy[queue.name] = Histogram()
            self._queue_points[queue.name] = []
        memory = engine.memory
        self._mem_base = (
            memory.requests_served, memory.bytes_transferred,
            memory.responses_completed,
        )
        self._channel_base = list(memory.channel_grants)
        self.recorder = TimelineRecorder(engine)
        return self

    def detach(self) -> None:
        """Stop observing (the engine reverts to the zero-cost path)."""
        if self._engine is not None:
            self._engine.probe = None
            self._engine = None

    # -- engine hooks --------------------------------------------------------------

    def on_cycle(self, engine, cycle: int) -> None:
        """Called by the engine after ``cycle``'s ticks and queue commits."""
        self.recorder.sample(cycle)
        occupancy = self._occupancy
        last_occ = self._queue_last_occ
        for queue in engine.queues:
            name = queue.name
            occ = len(queue._items)
            occupancy[name].record(occ)
            if occ != last_occ[name]:
                points = self._queue_points[name]
                if len(points) < 100_000:
                    points.append((cycle, occ))
                last_occ[name] = occ

    def on_run_end(self, engine, stats) -> None:
        """Called by ``Engine.run`` with the finished :class:`RunStats`."""
        self._last_stats = stats

    # -- report --------------------------------------------------------------------

    def report(self, extra: Optional[Dict[str, object]] = None) -> ProfileReport:
        """Build the :class:`ProfileReport` for the profiled window."""
        engine = self._engine
        if engine is None:
            raise RuntimeError("profiler is not attached to an engine")
        stats = self._last_stats
        cycles = (
            stats.cycles if stats is not None
            else engine.cycle - self._start_cycle
        )
        modules = []
        for module in engine.modules:
            base = self._module_base.get(module.name, (0, 0, 0, 0))
            busy = module.busy_cycles - base[0]
            starved = module.starve_cycles - base[1]
            stalled = module.stall_cycles - base[2]
            modules.append(ModuleProfile(
                name=module.name,
                kind=type(module).__name__,
                busy=busy,
                starved=starved,
                stalled=stalled,
                idle=cycles - busy - starved - stalled,
                flits_out=module.flits_out - base[3],
            ))
        queues = []
        for queue in engine.queues:
            base = self._queue_base[queue.name]
            queues.append(QueueProfile(
                name=queue.name,
                capacity=queue.capacity,
                total_pushed=queue.total_pushed - base[0],
                max_occupancy=queue.max_occupancy,
                full_stalls=queue.full_stalls - base[1],
                occupancy_counts=list(self._occupancy[queue.name].counts),
            ))
        memory = engine.memory
        base_req, base_bytes, base_resp = self._mem_base
        channel_base = self._channel_base or [0] * len(memory.channel_grants)
        mem_profile = MemoryProfile(
            requests=memory.requests_served - base_req,
            bytes_transferred=memory.bytes_transferred - base_bytes,
            responses=memory.responses_completed - base_resp,
            channels=[
                ChannelProfile(channel=index, grants=grants - channel_base[index])
                for index, grants in enumerate(memory.channel_grants)
            ],
        )
        spms: Dict[str, Dict[str, int]] = {}
        for module in engine.modules:
            spm = getattr(module, "spm", None)
            if spm is not None and spm.name not in spms:
                spms[spm.name] = {"reads": spm.reads, "writes": spm.writes}
        report = ProfileReport(
            name=self.name,
            cycles=cycles,
            mode=stats.mode if stats is not None else "partial",
            wall_seconds=stats.wall_seconds if stats is not None else 0.0,
            ticks_executed=stats.ticks_executed if stats is not None else 0,
            ticks_possible=stats.ticks_possible if stats is not None else 0,
            modules=modules,
            queues=queues,
            memory=mem_profile,
            spms=spms,
            timelines={
                name: list(timeline.spans)
                for name, timeline in self.recorder.timelines.items()
            },
            queue_points={
                name: list(points)
                for name, points in self._queue_points.items()
                if points
            },
            extra=dict(extra or {}),
            edges={
                queue.name: {
                    "producers": [m.name for m in queue.producers],
                    "consumers": [m.name for m in queue.consumers],
                }
                for queue in engine.queues
            },
        )
        return report


def profile_engine_run(
    engine,
    max_cycles: int = 100_000_000,
    mode: Optional[str] = None,
    name: str = "run",
    extra: Optional[Dict[str, object]] = None,
) -> Tuple[object, ProfileReport]:
    """Attach a fresh profiler, run the engine, return (stats, report)."""
    profiler = Profiler(name=name)
    profiler.attach(engine)
    try:
        stats = engine.run(max_cycles=max_cycles, mode=mode)
        report = profiler.report(extra=extra)
    finally:
        profiler.detach()
    return stats, report
