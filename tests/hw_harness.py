"""Test harness: driving hardware modules, and the suite's one
vocabulary for comparing runs.

``drive`` wires list-backed sources to a module's input ports and
collecting sinks to its output ports, runs the engine to quiescence under
every engine mode (:data:`MODES`) and returns everything each output
produced, once the modes agree on it.  ``assert_stage_identical`` /
``assert_same_cycles`` say when two runs of a stage agree on the answer
and on the modelled clock, and ``assert_matches_oracle`` when a run
agrees with the ``repro.gatk`` software oracle.  :class:`TickProfiler`
is the dense oracle of a profile, and ``assert_same_profile`` holds a
profile derived from a solved run to it.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.accel import count_matching_bases_sw
from repro.accel.stages import STAGES
from repro.gatk import build_covariate_tables, compute_read_metadata
from repro.gatk.active_region import compute_activity
from repro.hw.engine import Engine, RunStats
from repro.hw.flit import Flit, Stream
from repro.hw.maxplus import Plan, Step, planned
from repro.hw.module import Module, SourceModule
from repro.obs.profile import (
    ChannelProfile,
    MemoryProfile,
    ModuleProfile,
    ProfileReport,
    QueueProfile,
    Span,
    STATES,
)
from repro.obs.registry import Histogram
from repro.tables.genomic_tables import table_to_reads


#: Every engine mode, the oracle first.
MODES = ("dense", "maxplus")

_EMIT = Step(pushes=("out",), rooms=("out",))
_POP = Step(pops=("in",), busy=True)


class ListSource(SourceModule):
    """Emits a pre-loaded flit list, one flit per cycle."""

    def __init__(self, name: str, flits: Sequence[Flit]):
        super().__init__(name)
        self._flits: List[Flit] = list(flits)
        self._cursor = 0

    def tick(self, cycle: int) -> None:
        if self._cursor >= len(self._flits):
            return
        out = self.output()
        if not out.try_push(self._flits[self._cursor]):
            self._note_stalled(out)
            return
        self._cursor += 1
        self._note_busy()

    def plan(self, streams) -> Plan:
        stream = Stream.from_flits(self._flits[self._cursor:])

        def commit(_timed) -> None:
            self._cursor = len(self._flits)

        return Plan({"out": stream}, (_EMIT,), [0] * len(stream), commit)

    def is_idle(self) -> bool:
        return self._cursor >= len(self._flits)


class ListSink(Module):
    """Collects every flit it receives (starved while there is none)."""

    def __init__(self, name: str):
        super().__init__(name)
        self.collected: List[Flit] = []

    def tick(self, cycle: int) -> None:
        queue = self.input()
        if queue.can_pop():
            self.collected.append(queue.pop())
            self._note_busy()
        else:
            self._note_starved()

    def plan(self, streams) -> Plan:
        stream = streams["in"]

        def commit(_timed) -> None:
            self.collected.extend(stream.flits())

        return Plan({}, (_POP,), [0] * len(stream), commit)


class TickProfiler:
    """The dense oracle of :class:`repro.obs.Profiler`, with its
    interface: attached to an engine, it makes the engine's runs tick
    ``dense`` and, after every cycle, delta-samples each module's busy /
    stall / starve counters (busy > stalled > starved > idle names the
    cycle's state) and each queue's occupancy, so :meth:`report` builds
    by observation the report the profiler derives from a solution.
    Planless modules (which a solution cannot hold) profile only here."""

    def __init__(self, name: str = "run"):
        self.name = name

    def attach(self, engine: Engine) -> "TickProfiler":
        self.engine = engine
        step, run = engine.step, engine.run

        def sampled() -> None:
            step()
            self._sample(engine.cycle - 1)

        def ticked(max_cycles: int = 100_000_000, mode=None) -> RunStats:
            self._begin()
            self.stats = run(max_cycles=max_cycles, mode="dense")
            return self.stats

        engine.step, engine.run = sampled, ticked
        return self

    def _begin(self) -> None:
        engine = self.engine
        self.start = engine.cycle
        self.counters = {m.name: self._counters(m) for m in engine.modules}
        self.base = {m.name: self.counters[m.name] for m in engine.modules}
        self.spans = {m.name: [] for m in engine.modules}
        self.stalls = {q.name: q.full_stalls for q in engine.queues}
        self.pushed = {q.name: q.total_pushed for q in engine.queues}
        self.levels = {q.name: len(q) for q in engine.queues}
        self.histograms = {q.name: Histogram() for q in engine.queues}
        self.points = {q.name: [] for q in engine.queues}
        memory = engine.memory
        self.memory = (memory.requests_served, memory.bytes_transferred,
                       memory.responses_completed, list(memory.channel_grants))

    @staticmethod
    def _counters(module: Module) -> tuple:  # in STATES order
        return module.busy_cycles, module.stall_cycles, module.starve_cycles

    def _sample(self, cycle: int) -> None:
        cycle -= self.start
        for module in self.engine.modules:
            now = self._counters(module)
            before = self.counters[module.name]
            self.counters[module.name] = now
            moved = [state for state, a, b in zip(STATES, now, before) if a > b]
            state = moved[0] if moved else "idle"
            spans = self.spans[module.name]
            if spans and spans[-1].state == state and spans[-1].end == cycle:
                spans[-1].end = cycle + 1
            else:
                spans.append(Span(cycle, cycle + 1, state))
        for queue in self.engine.queues:
            level = len(queue)
            self.histograms[queue.name].record(level)
            if level != self.levels[queue.name]:
                self.points[queue.name].append((cycle, level))
                self.levels[queue.name] = level

    def report(self, extra: Optional[Dict[str, object]] = None) -> ProfileReport:
        engine, stats = self.engine, self.stats
        modules = []
        for module in engine.modules:
            busy, stalled, starved = (
                now - was for now, was in
                zip(self._counters(module), self.base[module.name])
            )
            modules.append(ModuleProfile(
                module.name, type(module).__name__, busy, starved, stalled,
                stats.cycles - busy - starved - stalled, busy,
            ))
        queues = [
            QueueProfile(
                queue.name, queue.capacity,
                queue.total_pushed - self.pushed[queue.name],
                len(self.histograms[queue.name].counts) - 1,
                queue.full_stalls - self.stalls[queue.name],
                self.histograms[queue.name].counts,
            )
            for queue in engine.queues
        ]
        memory = engine.memory
        requests, transferred, responses, grants = self.memory
        spms: Dict[str, Dict[str, int]] = {}
        for module in engine.modules:
            spm = getattr(module, "spm", None)
            if spm is not None and spm.name not in spms:
                spms[spm.name] = {"reads": spm.reads, "writes": spm.writes}
        return ProfileReport(
            name=self.name, cycles=stats.cycles, mode=stats.mode,
            wall_seconds=stats.wall_seconds,
            ticks_executed=stats.ticks_executed,
            ticks_possible=stats.ticks_possible,
            modules=modules, queues=queues,
            memory=MemoryProfile(
                memory.requests_served - requests,
                memory.bytes_transferred - transferred,
                memory.responses_completed - responses,
                [
                    ChannelProfile(channel, count - grants[channel])
                    for channel, count in enumerate(memory.channel_grants)
                ],
            ),
            spms=spms,
            timelines=self.spans,
            queue_points={
                name: points for name, points in self.points.items() if points
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


#: The report fields only the engine mode, or the host, may change.
HOST_PROFILE_FIELDS = ("mode", "wall_seconds", "ticks_executed")


def assert_same_profile(derived: ProfileReport, oracle: ProfileReport) -> None:
    """A profile derived from a solved run equals the dense oracle's
    (:class:`TickProfiler`) field by field, but for
    :data:`HOST_PROFILE_FIELDS`; both hold :meth:`ProfileReport.validate`."""
    assert derived.mode == "maxplus" and oracle.mode == "dense"
    want, got = dataclasses.asdict(oracle), dataclasses.asdict(derived)
    for name in HOST_PROFILE_FIELDS:
        del want[name], got[name]
    for name in want:
        assert got[name] == want[name], name
    derived.validate()
    oracle.validate()


def assert_runs_equivalent(want: RunStats, got: RunStats) -> None:
    """Two engine modes' runs agree on everything a mode must not change:
    the clock, flit and busy counts, and memory traffic."""
    assert got.cycles == want.cycles
    assert got.flits_by_module == want.flits_by_module
    assert got.busy_by_module == want.busy_by_module
    assert got.memory_bytes == want.memory_bytes
    assert got.memory_requests == want.memory_requests


def side_effects(module: Module) -> Dict[str, object]:
    """What a run leaves behind in ``module`` besides its outputs: its
    busy count, any drop / discard / update / hazard tally, and the
    contents and access counts of a scratchpad it owns."""
    found = {"busy": module.busy_cycles, "flits": module.flits_out}
    for name in ("dropped", "discarded", "updates", "hazard_stalls", "reads_exploded"):
        if hasattr(module, name):
            found[name] = getattr(module, name)
    spm = getattr(module, "spm", None)
    if spm is not None:
        found["spm"] = (spm.dump(), spm.reads, spm.writes)
    return found


def _drive_once(module, inputs, out_ports, max_cycles, mode):
    engine = Engine()
    engine.add_module(module)
    for port, flits in inputs.items():
        source = ListSource(f"src.{port}", flits)
        engine.add_module(source)
        engine.connect(source, module, in_port=port)
    sinks = {}
    for port in out_ports:
        sink = ListSink(f"sink.{port}")
        engine.add_module(sink)
        engine.connect(module, sink, out_port=port)
        sinks[port] = sink
    stats = engine.run(max_cycles=max_cycles, mode=mode)
    return {port: sink.collected for port, sink in sinks.items()}, stats


def drive(
    module: Module,
    inputs: Dict[str, Iterable[Flit]],
    out_ports: Sequence[str] = ("out",),
    max_cycles: int = 1_000_000,
) -> Tuple[Dict[str, List[Flit]], RunStats]:
    """Run ``module`` with the given per-port input flits under every
    engine mode — ``dense`` on a copy, ``maxplus`` on ``module`` itself —
    and assert they agree on every flit, the
    :func:`assert_runs_equivalent` figures and the module's
    :func:`side_effects`; returns the flits collected on each output port
    plus the ``maxplus`` run's statistics (``dense``'s where the module
    has no plan and the mode falls back)."""
    inputs = {port: list(flits) for port, flits in inputs.items()}
    subjects = {mode: copy.deepcopy(module) for mode in MODES[:-1]}
    subjects[MODES[-1]] = module
    runs = {
        mode: _drive_once(subject, inputs, out_ports, max_cycles, mode)
        for mode, subject in subjects.items()
    }
    (want, want_stats), oracle = runs[MODES[0]], subjects[MODES[0]]
    for mode, (got, stats) in runs.items():
        assert {
            port: [(flit.fields, flit.last) for flit in flits]
            for port, flits in got.items()
        } == {
            port: [(flit.fields, flit.last) for flit in flits]
            for port, flits in want.items()
        }, mode
        assert_runs_equivalent(want_stats, stats)
        assert side_effects(subjects[mode]) == side_effects(oracle), mode
    outputs, stats = runs["maxplus"]
    assert stats.mode == ("maxplus" if planned(module) else "dense")
    return outputs, stats


def values(flits: Iterable[Flit], field: str = "value") -> List[object]:
    """Payload values of the given field, skipping boundary flits."""
    return [flit[field] for flit in flits if field in flit]


def items_of(flits: Iterable[Flit], field: str = "value") -> List[List[object]]:
    """Group payload values into items using the last bits."""
    items: List[List[object]] = []
    current: List[object] = []
    for flit in flits:
        if field in flit.fields:
            current.append(flit[field])
        if flit.last:
            items.append(current)
            current = []
    if current:
        items.append(current)
    return items


def modelled_fields(stats: RunStats) -> Dict[str, object]:
    """Every RunStats field except ``wall_seconds`` — what two runs of the
    same simulation must agree on exactly, on any host."""
    fields = dict(vars(stats))
    del fields["wall_seconds"]
    return fields


def assert_same_modelled(a: Optional[RunStats], b: Optional[RunStats]) -> None:
    """Two optional RunStats are both absent or agree on every modelled
    field."""
    assert (a is None) == (b is None)
    if a is not None:
        assert modelled_fields(a) == modelled_fields(b)


# -- comparing runs of a stage -------------------------------------------------------

#: Stage -> the fields of its per-partition result that are its answer.
ANSWERS = {
    "markdup": ("quality_sums",),
    "metadata": ("nm", "md", "uq"),
    "bqsr": (
        "total_cycle", "total_context", "error_cycle", "error_context",
        "hazard_stalls",
    ),
    "example": ("counts",),
    "active_region": ("base", "activity", "depth"),
}

#: The modelled half of a run's stats: what no topology, host fan-out,
#: fault, filter or engine mode may change.
MODELLED_TALLIES = (
    "waves", "per_wave_cycles", "total_cycles", "spm_load_cycles",
    "cycles_including_load", "total_flits",
)


def _same(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b))


def assert_stage_identical(stage: str, got: Dict, want: Dict) -> None:
    """Two runs of ``stage`` hold the same partitions, in the same order,
    each with the same answer and (BQSR) the same modelled SPM drain."""
    assert list(got) == list(want)
    for pid, result in want.items():
        for name in ANSWERS[stage]:
            assert _same(getattr(got[pid], name), getattr(result, name)), (
                str(pid), name,
            )
        assert_same_modelled(
            getattr(got[pid], "drain_stats", None),
            getattr(result, "drain_stats", None),
        )


def engine_modes(results: Dict, phases: bool = True) -> set:
    """The engine modes a stage run's waves report, with (``phases``)
    each partition's SPM load and drain phases — which replay from
    ``PHASES`` in the mode that first recorded them."""
    modes = set()
    for result in results.values():
        run = getattr(result, "run", None)
        recorded = [getattr(result, "stats", None), getattr(run, "stats", None)]
        if phases:
            recorded += [
                getattr(run, "load_stats", None),
                getattr(result, "drain_stats", None),
            ]
        modes.update(stats.mode for stats in recorded if stats is not None)
    return modes


def assert_same_cycles(a, b) -> None:
    """Two runs' stats agree on every :data:`MODELLED_TALLIES` figure."""
    for name in MODELLED_TALLIES:
        assert getattr(a, name) == getattr(b, name), name


def _bqsr_oracle(wl, pid, part, result):
    tables = build_covariate_tables(
        table_to_reads(part), wl.genome, wl.read_length
    )[pid.read_group]
    return {name: getattr(tables, name) for name in ANSWERS["bqsr"][:4]}


def _metadata_oracle(wl, pid, part, result):
    oracle = [
        compute_read_metadata(read, wl.genome) for read in table_to_reads(part)
    ]
    return {
        name: [getattr(meta, name) for meta in oracle]
        for name in ANSWERS["metadata"]
    }


def _active_region_oracle(wl, pid, part, result):
    oracle = compute_activity(
        table_to_reads(part), wl.genome, pid.chrom, result.base,
        len(result.activity),
    )
    return {"activity": oracle.activity, "depth": oracle.depth}


#: Stage -> the ``repro.gatk`` software oracle's value of each answer
#: field on one non-empty partition (``result``, the accelerator's,
#: places the active-region window).
ORACLES = {
    "markdup": lambda wl, pid, part, result: {
        "quality_sums": [read.quality_sum() for read in table_to_reads(part)],
    },
    "metadata": _metadata_oracle,
    "bqsr": _bqsr_oracle,
    "example": lambda wl, pid, part, result: {
        "counts": count_matching_bases_sw(part, wl.reference.lookup(pid)),
    },
    "active_region": _active_region_oracle,
}


def assert_matches_oracle(stage: str, workload, results: Dict) -> int:
    """Every non-empty partition of ``stage`` over ``workload`` has the
    software oracle's answer in ``results``; returns how many there are."""
    checked = 0
    for pid, part in STAGES[stage].items(workload):
        if part.num_rows == 0:
            continue
        result = results[pid]
        for name, want in ORACLES[stage](workload, pid, part, result).items():
            assert _same(getattr(result, name), want), (str(pid), name)
        checked += 1
    return checked
