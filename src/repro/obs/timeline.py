"""Per-cycle activity timelines.

A :class:`TimelineRecorder` turns the modules' monotone busy/starve/stall
tallies into a per-cycle state timeline by *delta sampling*: at each
sampled cycle, whichever counter advanced since the previous sample names
the state of that cycle (busy wins over stalled wins over starved — the
same priority the text tracer always used).  Consecutive same-state
cycles coalesce into :class:`Span` runs, so a million-cycle run with a
handful of state changes costs a handful of spans.  Only the dense loop
ticks, so only it is sampled: one sample per cycle, in order.

Sampling is keyed to explicit cycle stamps, not call counts: a sample for
a cycle already recorded is ignored (no double counting when a caller
samples twice without stepping), and samples at or before the attach
cycle are ignored (a recorder attached mid-run starts at the next cycle
boundary — the attach cycle's activity predates it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

#: Module activity states, in sampling priority order.
STATES = ("busy", "stalled", "starved", "idle")


@dataclass
class Span:
    """A run of consecutive cycles in one state: [start, end)."""

    start: int
    end: int
    state: str

    @property
    def cycles(self) -> int:
        """Cycles covered by the span."""
        return self.end - self.start


class ModuleTimeline:
    """One module's coalesced activity spans."""

    def __init__(self, name: str):
        self.name = name
        self.spans: List[Span] = []

    def extend(self, cycle: int, state: str) -> None:
        """Record ``state`` for ``cycle`` (cycles must arrive in order)."""
        spans = self.spans
        if spans and spans[-1].state == state and spans[-1].end == cycle:
            spans[-1].end = cycle + 1
        else:
            spans.append(Span(cycle, cycle + 1, state))

    def state_cycles(self) -> Dict[str, int]:
        """Total cycles per state across all spans."""
        totals = dict.fromkeys(STATES, 0)
        for span in self.spans:
            totals[span.state] += span.cycles
        return totals

    def cycles_recorded(self) -> int:
        """Total cycles covered by the timeline."""
        return sum(span.cycles for span in self.spans)


#: Cycles of timeline one recorder keeps by default — a memory cap: later
#: cycles still count in every tally, they just draw no span.
MAX_TIMELINE_CYCLES = 1_000_000


class TimelineRecorder:
    """Delta-samples an engine's modules into per-module timelines.

    ``sample(cycle)`` records the state of ``cycle`` for every module.
    """

    def __init__(self, engine, max_cycles: int = MAX_TIMELINE_CYCLES):
        self.engine = engine
        self.max_cycles = max_cycles
        #: Sampling starts strictly after this cycle (attach boundary).
        self.attach_cycle = engine.cycle
        self.timelines: Dict[str, ModuleTimeline] = {}
        self._previous: Dict[str, tuple] = {}
        self._last_sampled: Optional[int] = None
        self.cycles_recorded = 0
        for module in engine.modules:
            self._track(module)

    def _track(self, module) -> None:
        self.timelines[module.name] = ModuleTimeline(module.name)
        self._previous[module.name] = (
            module.busy_cycles, module.starve_cycles, module.stall_cycles
        )

    def sample(self, cycle: Optional[int] = None) -> bool:
        """Record the activity of ``cycle`` (default: the cycle the engine
        just finished, ``engine.cycle - 1`` — callers sample after
        ``step()`` committed and advanced the clock).  Returns False when
        the sample was ignored: before the first post-attach boundary, for
        an already-recorded cycle, or past ``max_cycles``."""
        if cycle is None:
            cycle = self.engine.cycle - 1
        if cycle < self.attach_cycle:
            return False  # pre-attach activity is not this recorder's
        if self._last_sampled is not None and cycle <= self._last_sampled:
            return False  # duplicate sample for a recorded cycle
        if self.cycles_recorded >= self.max_cycles:
            return False
        for module in self.engine.modules:
            name = module.name
            if name not in self.timelines:
                self._track(module)  # module added after attach
            timeline = self.timelines[name]
            previous = self._previous[name]
            busy, starved, stalled = (
                module.busy_cycles, module.starve_cycles, module.stall_cycles
            )
            if busy > previous[0]:
                state = "busy"
            elif stalled > previous[2]:
                state = "stalled"
            elif starved > previous[1]:
                state = "starved"
            else:
                state = "idle"
            timeline.extend(cycle, state)
            self._previous[name] = (busy, starved, stalled)
        self._last_sampled = cycle
        self.cycles_recorded += 1
        return True

    # -- summaries -----------------------------------------------------------------

    def state_fractions(self) -> Dict[str, Dict[str, float]]:
        """Per-module state fractions over the recorded window."""
        out: Dict[str, Dict[str, float]] = {}
        for name, timeline in self.timelines.items():
            total = timeline.cycles_recorded()
            totals = timeline.state_cycles()
            out[name] = {
                state: (totals[state] / total if total else 0.0)
                for state in STATES
            }
        return out

    def busiest_module(self) -> Optional[str]:
        """The module with the highest busy fraction (None when empty)."""
        if not self.timelines:
            return None
        fractions = self.state_fractions()
        return max(self.timelines, key=lambda name: fractions[name]["busy"])
