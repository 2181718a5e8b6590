"""The per-run :class:`ProfileReport`, derived from a solved run.

A ``maxplus`` run leaves its :class:`~repro.hw.maxplus.Solution` on the
engine: every module's actions and every queue's push and pop cycles.
:func:`profile_solution` derives from it alone what the dense loop's
ticks would have counted: per module, busy / starved / stalled / idle
cycles and their coalesced spans (the Chrome-trace exporter's
timeline); per queue, its occupancy histogram and change points, pushes
and full stalls; per memory channel, its grants; per scratchpad, its
reads and writes; and the queue topology bottleneck analysis
(:mod:`repro.obs.analyze`) walks.  Between two of a module's actions a
cycle is starved (a head its next step needs has not arrived) or stalled
(an output it needs has no room, or an RMW hazard): step functions of
the lists, so a gap costs O(1).  What a module's idle ticks record is
declared on its class and steps (``Module.room_first``,
``Module.drained``, ``Step.busy``).  A run that ticked ``dense`` has no
solution, and no profile.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hw.maxplus import RESPONSES
from .registry import Histogram

#: Module activity states.
STATES = ("busy", "stalled", "starved", "idle")


@dataclass
class Span:
    """A run of consecutive cycles in one state: [start, end), counted
    from the start of the run."""

    start: int
    end: int
    state: str

    @property
    def cycles(self) -> int:
        """Cycles covered by the span."""
        return self.end - self.start


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
        """Check the report's identities: every module's four states sum
        to the run's cycles and, where the report has timelines, its
        spans tile ``[0, cycles)`` with those totals; no module's output
        queues hold more full stalls than it stalled; every sampled
        queue's histogram covers the run, its top at ``max_occupancy``."""
        def check(holds: bool, message: str) -> None:
            if not holds:
                raise ValueError(message)

        stalls = {queue.name: queue.full_stalls for queue in self.queues}
        charged = Counter()
        for name, edge in self.edges.items():
            for producer in edge.get("producers", ()):
                charged[producer] += stalls.get(name, 0)
        for m in self.modules:
            check(m.total == self.cycles,
                  f"{m.name}: states sum to {m.total}, run has {self.cycles} cycles")
            check(m.idle >= 0, f"{m.name}: negative idle cycles")
            check(charged[m.name] <= m.stalled,
                  f"{m.name}: its output queues hold {charged[m.name]} full "
                  f"stalls, it stalled {m.stalled} cycles")
            if not self.timelines:
                continue
            spans = self.timelines.get(m.name, [])
            bounds = [0] + [span.end for span in spans]
            check(
                [span.start for span in spans] == bounds[:-1]
                and all(span.cycles > 0 for span in spans)
                and bounds[-1] == self.cycles,
                f"{m.name}: spans do not tile [0, {self.cycles})",
            )
            totals = {state: getattr(m, state) for state in STATES}
            for span in spans:
                totals[span.state] -= span.cycles
            check(not any(totals.values()),
                  f"{m.name}: spans and counters differ by {totals}")
        for q in self.queues:
            counts = q.occupancy_counts
            if counts:
                check(sum(counts) == self.cycles,
                      f"{q.name}: occupancy covers {sum(counts)} cycles, "
                      f"run has {self.cycles}")
                top = max((n for n, count in enumerate(counts) if count), default=0)
                check(top == q.max_occupancy,
                      f"{q.name}: occupancy reaches {top}, "
                      f"max_occupancy says {q.max_occupancy}")

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
    """Profiles an engine's solved run.

    Usage::

        profiler = Profiler()
        profiler.attach(engine)
        stats = engine.run()
        report = profiler.report()
    """

    def __init__(self, name: str = "run"):
        self.name = name
        self._engine = None

    def attach(self, engine) -> "Profiler":
        """Profile ``engine``'s runs (the report covers the last one)."""
        self._engine = engine
        return self

    def report(self, extra: Optional[Dict[str, object]] = None) -> ProfileReport:
        """The :class:`ProfileReport` of the engine's last run."""
        if self._engine is None:
            raise RuntimeError("profiler is not attached to an engine")
        return profile_solution(self._engine, self.name, extra)


def profile_solution(
    engine, name: str = "run", extra: Optional[Dict[str, object]] = None
) -> ProfileReport:
    """The :class:`ProfileReport` of ``engine``'s last run, derived from
    the solution it left; raises RuntimeError when it has none (the run
    ticked ``dense``)."""
    solution = engine.solution
    if solution is None:
        raise RuntimeError(
            f"profile {name}: the engine holds no solution to derive it "
            "from — it has not run, or its last run ticked dense (a module "
            "without a plan, a queue cycle, or a wave the max-plus mode "
            "cannot solve)"
        )
    stats, start = solution.stats, solution.start
    end = start + stats.cycles
    lists = {}
    for _steps, _actions, view in solution.actors.values():
        lists.update(view)
    full_stalls = Counter()
    modules, timelines = [], {}
    for module in engine.modules:
        spans, totals = _module_states(
            module, *solution.actors[id(module)], start, end, full_stalls
        )
        timelines[module.name] = spans
        modules.append(ModuleProfile(
            name=module.name, kind=type(module).__name__,
            busy=totals["busy"], starved=totals["starved"],
            stalled=totals["stalled"], idle=totals["idle"],
            flits_out=totals["busy"],
        ))
    queues, queue_points = [], {}
    for queue in engine.queues:
        pushes, pops = lists[id(queue)]
        histogram, points = _occupancy(pushes, pops, start, end)
        queues.append(QueueProfile(
            name=queue.name, capacity=queue.capacity,
            total_pushed=len(pushes), max_occupancy=len(histogram.counts) - 1,
            full_stalls=full_stalls[id(queue)],
            occupancy_counts=histogram.counts,
        ))
        if points:
            queue_points[queue.name] = points
    memory = engine.memory
    requests = sum(solution.grants.values())
    spms: Dict[str, Dict[str, int]] = {}
    for module in engine.modules:
        spm = getattr(module, "spm", None)
        if spm is not None and spm.name not in spms:
            spms[spm.name] = {"reads": spm.reads, "writes": spm.writes}
    return ProfileReport(
        name=name,
        cycles=stats.cycles,
        mode=stats.mode,
        wall_seconds=stats.wall_seconds,
        ticks_executed=stats.ticks_executed,
        ticks_possible=stats.ticks_possible,
        modules=modules,
        queues=queues,
        memory=MemoryProfile(
            requests=requests,
            bytes_transferred=requests * memory.config.access_bytes,
            responses=requests,
            channels=[
                ChannelProfile(channel, solution.grants.get(channel, 0))
                for channel in range(len(memory.channel_grants))
            ],
        ),
        spms=spms,
        timelines=timelines,
        queue_points=queue_points,
        extra=dict(extra or {}),
        edges={
            queue.name: {
                "producers": [m.name for m in queue.producers],
                "consumers": [m.name for m in queue.consumers],
            }
            for queue in engine.queues
        },
    )


def _module_states(module, steps, actions, view, start, end, full_stalls):
    """One module's coalesced state spans over ``[start, end)`` (counted
    from ``start``) and its cycles per state, walking its actions over
    its view of the timing lists; charges each stalled cycle to the
    output queue short of room (``full_stalls``, by queue ``id``)."""
    # An input is [push cycles, pop cycles, heads popped so far]; an
    # output [push cycles, pop cycles, flits pushed so far, capacity,
    # delta, queue id].
    ins = {
        port: [*view[id(queue)], 0] for port, queue in module.inputs.items()
    }
    if RESPONSES in view:
        ins[RESPONSES] = [*view[RESPONSES], 0]
    outs = {}
    for port, queue in module.outputs.items():
        delta = 0 if queue.consumers[0]._index < module._index else 1
        outs[port] = [*view[id(queue)], 0, queue.capacity, delta, id(queue)]
    # Per step: the list and index its action's cycle is read from (its
    # first pop, else its first push), the heads it waits for, the rooms
    # it needs, the counters it moves, and the state of its cycle.
    compiled = {}
    for index in set(actions):
        step = steps[index]
        clock = (
            (ins[step.pops[0]], 1) if step.pops
            else (outs[step.pushes[0]], 0) if step.pushes else (None, 0)
        )
        compiled[index] = (
            *clock,
            [ins[port] for port in (*step.pops, *step.peeks)],
            [outs[port] for port in step.rooms],
            [ins[port] for port in (*step.pops, *step.assumes)]
            + [outs[port] for port in step.pushes],
            "busy" if step.busy or step.pushes else "idle",
        )

    def room(out):  # the first cycle the next push on ``out`` has room
        k = out[2] - out[3]
        return out[1][k] + out[4] if k >= 0 else start

    runs = []  # [first, stop, state], coalesced

    def mark(first, stop, state):
        if stop > first:
            if runs and runs[-1][2] == state and runs[-1][1] == first:
                runs[-1][1] = stop
            else:
                runs.append([first, stop, state])

    def stall(first, stop, rooms):  # each cycle charged to the first short of room
        mark(first, stop, "stalled")
        for out in rooms:
            until = min(stop, room(out))
            if until > first:
                full_stalls[out[5]] += until - first
                first = until

    room_first = module.room_first

    def wait(first, t, heads, rooms):  # the cycles [first, t) before an action
        if room_first:
            until = max(first, min(t, max(map(room, rooms), default=first)))
            stall(first, until, rooms)
            mark(until, t, "starved")
        else:
            ready = max((head[0][head[2]] + 1 for head in heads), default=first)
            until = max(first, min(t, ready))
            mark(first, until, "starved")
            stall(until, t, rooms)

    prev = start - 1
    for index in actions:
        clock, which, heads, rooms, moves, state = compiled[index]
        if clock is None:
            t = max([prev + 1] + [room(out) for out in rooms])
        else:
            t = clock[which][clock[2]]
        if t > prev + 1:
            wait(prev + 1, t, heads, rooms)
        if runs and runs[-1][1] == t and runs[-1][2] == state:
            runs[-1][1] = t + 1
        else:
            runs.append([t, t + 1, state])
        for counter in moves:
            counter[2] += 1
        prev = t
    first = prev + 1
    if room_first:
        rooms = list(outs.values())
        until = max(first, min(end, max(map(room, rooms), default=first)))
        stall(first, until, rooms)
        first = until
    mark(first, end, module.drained)
    totals = dict.fromkeys(STATES, 0)
    for first, stop, state in runs:
        totals[state] += stop - first
    spans = [Span(first - start, stop - start, state) for first, stop, state in runs]
    return spans, totals


def _occupancy(pushes, pops, start, end):
    """A queue's occupancy over ``[start, end)``, as the dense loop sees it
    after each cycle's commit: a :class:`Histogram` of cycles per
    occupancy, and its change points ``(cycle from start, occupancy)``."""
    change = Counter(pushes)
    change.subtract(pops)
    histogram = Histogram()
    points = []
    level, since = 0, start
    for cycle in sorted(change):
        if change[cycle]:
            histogram.record(level, cycle - since)
            level += change[cycle]
            since = cycle
            points.append((cycle - start, level))
    histogram.record(level, end - since)
    return histogram, points


def profile_engine_run(
    engine,
    max_cycles: int = 100_000_000,
    name: str = "run",
    extra: Optional[Dict[str, object]] = None,
) -> Tuple[object, ProfileReport]:
    """Run the engine and return (stats, the run's profile)."""
    stats = engine.run(max_cycles=max_cycles)
    return stats, profile_solution(engine, name, extra)
