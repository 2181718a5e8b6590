#!/usr/bin/env python
"""Census of what the event scheduler's executed ticks do.

    python tools/engine_census.py [WORKLOAD ...] [--seed N]

Sizes ROADMAP item 1 (batch-stepping steady-state pipelines) with a
measurement: a probe on every ``Engine`` an ``e2e_bench`` workload
builds (inline workloads only) classifies each *executed* module tick
by the counter it moved — busy, stalled (producer on a full queue),
starved (consumer on an empty one), or other (none moved: measured, a
Filter dropping a flit or a Reducer / MdGen folding one in — popped,
nothing pushed) — and measures how long the engine repeats one cycle's
activity (the same modules in the same states) before it changes: the
``k`` a safe-``k`` batch step could take at most.  Each workload runs
twice in one process: cold (the load / drain phases are simulated, as a
fresh process pays once) and warm (they replay from ``PHASES``, as
every later iteration runs).
"""

import argparse
import pathlib
import sys
from collections import Counter

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "e2e_bench"), str(REPO / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402
from repro.hw.engine import Engine  # noqa: E402

STATES = ("busy", "stalled", "starved", "other")
#: Run-length buckets (cycles), upper bounds inclusive.
BUCKETS = (1, 2, 4, 8, 16, 24, 48)


def _counters(module):
    return module.busy_cycles, module.stall_cycles, module.starve_cycles


class TickCensus:
    """An ``Engine.probe`` shared by every engine of a workload."""

    def __init__(self):
        self.ticks = Counter()  # state -> executed ticks
        self.executed = 0  # sum of RunStats.ticks_executed
        self.run_cycles = Counter()  # run length -> active cycles in such runs
        self._engine = None

    def _enter(self, engine):
        self._engine = engine
        self._agenda = list(engine.modules)  # the first cycle ticks them all
        # module index -> its counters when last ticked; the first
        # on_cycle comes after the first ticks, and engines are built fresh
        self._counters = {}
        self._signature, self._length = None, 0

    def _close_run(self):
        if self._length:
            self.run_cycles[self._length] += self._length
        self._length = 0

    def on_cycle(self, engine, cycle):
        if engine is not self._engine:
            self._enter(engine)
        signature = []
        for module in self._agenda:
            counters = _counters(module)
            before = self._counters.get(module._index, (0, 0, 0))
            self._counters[module._index] = counters
            moved = [now != was for now, was in zip(counters, before)]
            state = STATES[moved.index(True)] if any(moved) else "other"
            self.ticks[state] += 1
            signature.append((module._index, state))
        if signature != self._signature:
            self._close_run()
            self._signature = signature
        self._length += 1
        # what the scheduler holds for the next cycle is that cycle's agenda
        self._agenda = list(engine._wake_next)

    def on_run_end(self, engine, stats):
        self._close_run()
        self._engine = None
        self.executed += stats.ticks_executed

    def bucketed(self):
        """Share of active cycles by the length of the run they sit in."""
        total = sum(self.run_cycles.values())
        shares, low = [], 1
        for high in BUCKETS + (None,):
            cycles = sum(
                n for length, n in self.run_cycles.items()
                if length >= low and (high is None or length <= high)
            )
            label = f"{low}" if high == low else (
                f"{low}+" if high is None else f"{low}-{high}"
            )
            shares.append((label, cycles / total if total else 0.0))
            low = (high or 0) + 1
        return shares


def census(name: str, seed: int) -> dict:
    """Run ``name`` twice with a census on every engine; returns
    ``{"cold": TickCensus, "warm": TickCensus}``."""
    probes = {}
    init = Engine.__init__

    def attached(engine, *args, **kwargs):
        init(engine, *args, **kwargs)
        engine.probe = probe

    workload = workloads.build(name, None)
    inputs = workload.setup(seed)
    Engine.__init__ = attached
    try:
        for phase in ("cold", "warm"):
            probe = probes[phase] = TickCensus()
            workload.run(inputs, harness.SpanRecorder(name, enabled=False))
    finally:
        Engine.__init__ = init
    return probes


def render(name: str, probe: TickCensus) -> str:
    classified = sum(probe.ticks.values())
    lines = [f"== {name}: {probe.executed} executed ticks "
             f"({classified} classified)"]
    for state in STATES:
        lines.append(f"   {state:<8}{probe.ticks[state]:>9d}  "
                     f"{probe.ticks[state] / max(classified, 1):6.1%}")
    lines.append("   active cycles by identical-activity run length: " + ", ".join(
        f"{label}: {share:.0%}" for label, share in probe.bucketed()
    ))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*",
                        default=["preprocess_serial", "serve_mixed"])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    for name in args.workloads:
        for phase, probe in census(name, args.seed).items():
            print(render(f"{name} ({phase})", probe))
    return 0


if __name__ == "__main__":
    sys.exit(main())
