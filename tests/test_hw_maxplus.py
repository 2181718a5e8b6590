"""The ``maxplus`` engine mode ≡ the dense loop, and its fall-back rule.

Hypothesis draws whole pipelines of planned modules — Memory Readers
feeding chains of StreamAlu / Filter / Fork / Reducer / MdGen /
AnchorInsertions into Memory Writers, optionally joined first with a
slower keyed reader and forking into an ``rmw`` SPM Updater under
repeated addresses — over drawn queue capacities, memory channels and
latencies, with up to four replicas sharing one memory.  Every draw must
solve to exactly what the dense loop ticks out: cycles, flit and busy
counts, memory traffic and arbitration, every output, every scratchpad
and its counters, every hazard stall — and the profile derived from the
solution must be the one the dense oracle observes tick by tick.  Where
the mode cannot apply it must tick the dense loop and say so.
"""

import copy
import importlib
import pkgutil
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hw_harness import (
    ANSWERS,
    ListSink,
    ListSource,
    TickProfiler,
    assert_runs_equivalent,
    assert_same_profile,
    engine_modes,
    side_effects,
)
from repro.accel.active_region import AnchorInsertions
from repro.accel.common import PHASES, AcceleratorRun, load_reference_spm, spm_base
from repro.accel.sharding import run_sharded
from repro.accel.stages import STAGES
from repro.hw import maxplus
from repro.hw.engine import Engine
from repro.hw.flit import INS, Flit, item_flits
from repro.hw.memory import MemoryConfig, MemorySystem
from repro.hw.module import Module
from repro.hw.modules import (
    Filter,
    Fork,
    Joiner,
    MdGen,
    MemoryReader,
    MemoryWriter,
    ReadToBases,
    Reducer,
    SpmReader,
    SpmUpdater,
    StreamAlu,
)
from repro.hw.spm import Scratchpad
from repro.obs import Profiler
from test_lattice import WORKLOADS, workload

# -- drawn pipelines -----------------------------------------------------------------

#: One element: (value, op, base, ref, addr, pos) — what every stage
#: reads; half the positions are ``INS``, so items open with one and
#: hold runs of them.
elements = st.tuples(
    st.integers(0, 40), st.sampled_from("MMMID"), st.integers(0, 3),
    st.integers(0, 3), st.integers(0, 3), st.just(INS) | st.integers(0, 40),
)
replica_items = st.lists(st.lists(elements, max_size=9), min_size=1, max_size=6)


@dataclass(frozen=True)
class Pipeline:
    """One drawn wave: ``replicas`` copies of reader -> ``chain`` ->
    writer, each with its own items."""

    chain: Tuple[str, ...]
    rmw: bool
    items: Tuple[tuple, ...]
    #: A Joiner mode ("" for none) merging the stream with a second
    #: reader's keys, one line per key so they lag.
    join: str = ""
    #: An SPM Reader draining the replica's values to a writer beside it.
    drain: bool = False
    capacity: int = 8
    channels: int = 4
    latency: int = 40
    elem_size: int = 1
    #: Seed of the order modules register (and so tick) in; None keeps
    #: the dataflow order.
    shuffle: Optional[int] = None


@st.composite
def pipelines(draw):
    return Pipeline(
        chain=tuple(draw(st.lists(
            st.sampled_from(
                ("alu", "filter", "fork", "reducer", "mdgen", "anchor")
            ),
            max_size=4,
        ))),
        rmw=draw(st.booleans()),
        join=draw(st.sampled_from(("", "inner", "left", "outer"))),
        drain=draw(st.booleans()),
        items=tuple(
            tuple(map(tuple, draw(replica_items)))
            for _ in range(draw(st.integers(1, 4)))
        ),
        capacity=draw(st.integers(1, 16)),
        channels=draw(st.integers(1, 4)),
        latency=draw(st.integers(0, 80)),
        elem_size=draw(st.sampled_from((1, 4, 16))),
        shuffle=draw(st.none() | st.integers(0, 2**16)),
    )


FIELDS = ("value", "op", "base", "ref", "addr", "pos")


def _flits(items):
    flits = []
    for item in items:
        flits.extend(
            Flit(dict(zip(FIELDS, element)), last=index == len(item) - 1)
            for index, element in enumerate(item)
        )
        if not item:
            flits.append(Flit({}, last=True))
    return flits


def _keys(items):
    """The other side of a join: each item's even values, sorted, as
    elements of their own."""
    flits = []
    for item in items:
        keys = sorted({element[0] for element in item if element[0] % 2 == 0})
        flits.extend(
            Flit(
                {**dict(zip(FIELDS, (key, "M", 2, 2, key % 4))), "side": key},
                last=index == len(keys) - 1,
            )
            for index, key in enumerate(keys)
        )
        if not keys:
            flits.append(Flit({}, last=True))
    return flits


def build(pipeline: Pipeline) -> Engine:
    """A fresh engine holding the drawn wave."""
    engine = Engine(
        MemorySystem(MemoryConfig(
            channels=pipeline.channels, latency_cycles=pipeline.latency,
        )),
        default_queue_capacity=pipeline.capacity,
    )
    memory = engine.memory
    modules, wires = [], []

    def add(module):
        modules.append(module)
        return module

    def wire(producer, consumer, out_port="out", in_port="in"):
        wires.append((producer, consumer, out_port, in_port))

    for index, items in enumerate(pipeline.items):
        name = f"p{index}"
        tail = add(MemoryReader(f"{name}.read", memory, elem_size=pipeline.elem_size))
        tail.set_stream(_flits(items))
        if pipeline.join:
            keys = add(MemoryReader(f"{name}.keys", memory, elem_size=64))
            keys.set_stream(_keys(items))
            joiner = add(Joiner(
                f"{name}.join", mode=pipeline.join, key_a="value", key_b="value",
            ))
            wire(tail, joiner, in_port="a")
            wire(keys, joiner, in_port="b")
            tail = joiner
        port = "out"
        if pipeline.rmw:
            fork = add(Fork(f"{name}.rmwfork"))
            updater = add(SpmUpdater(
                f"{name}.rmw", Scratchpad(f"{name}.counts", 4), mode="rmw",
            ))
            wire(tail, fork)
            wire(fork, updater, out_port="out1")
            tail, port = fork, "out0"
        for depth, kind in enumerate(pipeline.chain):
            stage = f"{name}.{depth}.{kind}"
            if kind == "alu":
                module = StreamAlu(stage, op="ADD", constant=depth + 1)
            elif kind == "filter":
                module = Filter(
                    stage, field="value",
                    predicate=lambda f: f.get("value", 0) % 3 != 0,
                )
            elif kind == "reducer":
                module = Reducer(stage, op="sum")
            elif kind == "mdgen":
                module = MdGen(stage)
            elif kind == "anchor":
                module = AnchorInsertions(stage)
            else:
                module = Fork(stage)
            wire(tail, add(module), out_port=port)
            tail, port = module, "out"
            if kind == "anchor":  # the anchored positions, written aside
                module = add(Fork(f"{stage}.fork"))
                wire(tail, module)
            if kind in ("fork", "anchor"):
                side = add(MemoryWriter(
                    f"{stage}.side", memory, elem_size=1,
                    field="pos" if kind == "anchor" else "value",
                ))
                wire(module, side, out_port="out1")
                tail, port = module, "out0"
        writer = add(MemoryWriter(f"{name}.write", memory, elem_size=4))
        wire(tail, writer, out_port=port)
        if pipeline.drain:
            values = [element[0] for item in items for element in item] or [0]
            spm = Scratchpad(f"{name}.values", len(values))
            spm.load(values)
            drain = add(SpmReader(f"{name}.drain", spm, mode="drain"))
            wire(drain, add(MemoryWriter(f"{name}.drainw", memory, elem_size=8)))
    if pipeline.shuffle is not None:
        random.Random(pipeline.shuffle).shuffle(modules)
    for module in modules:
        engine.add_module(module)
    for producer, consumer, out_port, in_port in wires:
        engine.connect(producer, consumer, out_port=out_port, in_port=in_port)
    return engine


def outcome(engine: Engine, mode: str):
    """Run ``engine`` under ``mode``; returns its stats and everything the
    run leaves behind."""
    stats = engine.run(mode=mode)
    return stats, leftovers(engine)


def leftovers(engine: Engine):
    """Everything a run left behind in ``engine``'s modules and memory."""
    memory = engine.memory
    left = {
        module.name: side_effects(module) for module in engine.modules
    }
    for module in engine.modules:
        if isinstance(module, MemoryWriter):
            left[module.name]["items"] = module.items
            left[module.name]["collected"] = module.collected
    left["memory"] = (
        memory.requests_served, memory.bytes_transferred,
        memory.responses_completed, memory.busy_channel_cycles,
        list(memory.channel_grants),
        [(a._next, a.grants) for a in memory._arbiters],
    )
    left["clock"] = engine.cycle
    return left


@settings(max_examples=120, deadline=None)
@given(pipelines())
# four replicas on one channel: the writers' requests compete with the
# readers' and the memory iteration takes more than one round
@example(Pipeline(
    chain=("alu", "fork", "reducer"), rmw=True,
    items=tuple((((i, "M", 1, 1, i % 2),) * 40,) for i in range(4)),
    capacity=2, channels=1, latency=7, elem_size=16,
))
# a Joiner whose key side lags: closing an item waits for the other head
@example(Pipeline(
    chain=("mdgen",), rmw=False, join="left",
    items=((((4, "M", 1, 1, 0), (2, "M", 1, 2, 0)), ((6, "D", 0, 3, 0),), ()),),
    capacity=3, channels=2, latency=60, elem_size=1,
))
# one-slot queues: every fold, drop, boundary and drain end waits for room
@example(Pipeline(
    chain=("reducer", "mdgen", "filter"), rmw=False, drain=True,
    items=((((3, "M", 1, 2, 0),) * 3, (), ((5, "D", 0, 1, 1), (6, "M", 2, 2, 2))),),
    capacity=1, channels=1, latency=0, elem_size=4,
))
# one-slot queues from a reader with empty items straight to its writer
@example(Pipeline(
    chain=(), rmw=False,
    items=((((1, "M", 1, 1, 0),), (), (), ((2, "M", 1, 1, 0),), ()),),
    capacity=1, channels=4, latency=0, elem_size=4,
))
# ... and a drain that ends the wave, registered so its writer ticks last
@example(Pipeline(
    chain=(), rmw=False, drain=True,
    items=(((tuple((v, "M", 0, 0, 0) for v in range(8))),),),
    capacity=1, channels=4, latency=0, elem_size=4, shuffle=2,
))
# a prefetch window that starves the reader: 60 elements, 4 to a line
@example(Pipeline(
    chain=(), rmw=False,
    items=(((tuple((v, "M", 0, 0, 0) for v in range(60))),),),
    capacity=8, channels=1, latency=80, elem_size=16,
))
# anchored positions: items opening with INS, runs of INS, empty items,
# one-slot queues and an anchor behind a filter that drops item ends
@example(Pipeline(
    chain=("anchor", "filter", "anchor"), rmw=False,
    items=((
        ((1, "I", 1, 1, 0, INS), (2, "I", 1, 1, 0, INS), (4, "M", 1, 1, 0, 7),
         (5, "I", 2, 1, 0, INS), (3, "I", 2, 1, 0, INS)),
        (),
        ((6, "M", 0, 0, 0, 9), (7, "I", 0, 0, 0, INS), (9, "D", 0, 0, 0, 3)),
        ((8, "I", 1, 0, 0, INS),),
    ),),
    capacity=1, channels=1, latency=0, elem_size=4,
))
def test_maxplus_solves_what_dense_ticks(pipeline):
    engine = build(pipeline)
    oracle = TickProfiler().attach(engine)
    dense_stats, dense_left = engine.run(), leftovers(engine)
    engine = build(pipeline)
    profiler = Profiler().attach(engine)
    with streams_checked():
        stats, left = outcome(engine, "maxplus")
    assert stats.mode == "maxplus"
    assert_runs_equivalent(dense_stats, stats)
    assert left == dense_left
    assert_same_profile(profiler.report(), oracle.report())


#: The planned module classes a drawn pipeline holds.
PLANNED = (
    AnchorInsertions, Filter, Fork, Joiner, MdGen, MemoryReader,
    MemoryWriter, Reducer, SpmReader, SpmUpdater, StreamAlu,
)


@contextmanager
def streams_checked():
    """Plans are pure: every stream a plan hands on — a Fork's one stream
    shared by all its branches included — is held in tuples and is, once
    every plan of the wave has run, what it was when it was produced."""
    produced = []

    def recording(plan):
        def wrapped(self, streams):
            result = plan(self, streams)
            produced.extend(
                (stream, copy.deepcopy(stream)) for stream in result.outputs.values()
            )
            return result
        return wrapped

    with pytest.MonkeyPatch.context() as patch:
        for cls in PLANNED:
            patch.setattr(cls, "plan", recording(cls.plan))
        yield
    assert produced
    for stream, as_produced in produced:
        assert type(stream.last) is tuple
        assert all(type(column) is tuple for column in stream.columns.values())
        assert stream == as_produced


@settings(max_examples=25, deadline=None)
@given(
    stage=st.sampled_from(tuple(STAGES)),
    name=st.sampled_from(tuple(WORKLOADS)),
    first=st.integers(0, 60),
    replicas=st.integers(1, 3),
    capacity=st.integers(1, 16),
    channels=st.integers(1, 4),
    latency=st.integers(0, 80),
)
# one-slot queues behind BinIDGen, Joiner and the RMW updaters
@example(stage="bqsr", name="seed1302", first=0, replicas=2, capacity=1,
         channels=2, latency=10)
@example(stage="metadata", name="sharding", first=3, replicas=1, capacity=1,
         channels=1, latency=0)
# ... and behind AnchorInsertions, on a workload with insertions
@example(stage="active_region", name="sharding", first=0, replicas=2,
         capacity=1, channels=1, latency=0)
def test_stage_replicas_solve_what_dense_ticks(
    stage, name, first, replicas, capacity, channels, latency
):
    """A wave of a stage's replicas — ReadToBases, BinIdGen,
    AnchorInsertions, the interval SPM Reader, Joiners, RMW updaters and
    all — over a drawn queue capacity and memory: ``maxplus`` answers and
    times it as dense does, or raises what dense raises."""
    wl = workload(name)
    row = STAGES[stage]
    driver = row.over(wl)
    parts = [(pid, part) for pid, part in row.items(wl) if part.num_rows]
    wave = parts[first % len(parts):][:replicas]
    config = MemoryConfig(channels=channels, latency_cycles=latency)

    profiles = {"dense": TickProfiler(), "maxplus": Profiler()}

    def run(mode):
        engine = Engine(MemorySystem(config), default_queue_capacity=capacity)
        contexts = []
        for index, (pid, part) in enumerate(wave):
            spm, base = None, 0
            if driver.uses_reference:
                ref_row = driver.reference_row(pid)
                spm, _load = load_reference_spm(ref_row, config, driver.with_snp)
                base = spm_base(ref_row)
            contexts.append(driver.build_replica(engine, f"p{index}", part, spm, base))
        profiles[mode].attach(engine)
        try:
            stats = engine.run(mode=mode)
        except RuntimeError as error:  # e.g. SEQ / QUAL diverged
            return str(error).splitlines()[0], []
        return stats, [driver.harvest(c, AcceleratorRun(stats)) for c in contexts]

    (want, want_results), (got, results) = run("dense"), run("maxplus")
    if isinstance(want, str):
        assert got == want
        return
    assert got.mode == "maxplus"
    assert_runs_equivalent(want, got)
    assert_same_profile(profiles["maxplus"].report(), profiles["dense"].report())
    for expected, result in zip(want_results, results):
        for field in ANSWERS[stage]:
            assert np.array_equal(
                np.asarray(getattr(result, field)), np.asarray(getattr(expected, field))
            ), field


def test_writer_requests_move_reader_responses_over_several_rounds(monkeypatch):
    """One channel shared by a long fetch and early writes: the first
    round (writers silent) is wrong, the iteration settles; capped at one
    round the mode falls back instead."""
    pipeline = Pipeline(
        chain=("alu",), rmw=False,
        items=(tuple(((v, "M", 0, 0, 0),) for v in range(400)),),
        capacity=4, channels=1, latency=30, elem_size=16,
    )
    rounds = []
    simulate = maxplus._simulate_memory

    def counted(*args):
        rounds.append(1)
        return simulate(*args)

    monkeypatch.setattr(maxplus, "_simulate_memory", counted)
    dense_stats, dense_left = outcome(build(pipeline), "dense")
    stats, left = outcome(build(pipeline), "maxplus")
    assert stats.mode == "maxplus" and len(rounds) > 2
    assert_runs_equivalent(dense_stats, stats)
    assert left == dense_left
    monkeypatch.setattr(maxplus, "MEMORY_ROUNDS", 1)
    stats, left = outcome(build(pipeline), "maxplus")
    assert stats.mode == "dense"
    assert left == dense_left


def test_a_second_run_continues_where_the_first_left_off():
    """The clock, the arbiters' pointers, the RMW interlock and every
    counter a run leaves are what the next run on the same engine starts
    from, as under dense."""
    def build():
        engine = Engine(
            MemorySystem(MemoryConfig(channels=1, latency_cycles=3)),
            default_queue_capacity=2,
        )
        reader = engine.add_module(MemoryReader("r", engine.memory, elem_size=16))
        fork = engine.add_module(Fork("f"))
        updater = engine.add_module(SpmUpdater("u", Scratchpad("s", 4), mode="rmw"))
        writer = engine.add_module(MemoryWriter("w", engine.memory, elem_size=16))
        engine.connect(reader, fork)
        engine.connect(fork, updater, out_port="out0")
        engine.connect(fork, writer, out_port="out1")
        return engine, reader

    runs = {}
    for mode in ("dense", "maxplus"):
        engine, reader = build()
        for step in (1, 2):
            reader.set_stream([
                Flit({"addr": i * step % 3, "value": i}, last=i % 5 == 4)
                for i in range(17)
            ])
            stats, left = outcome(engine, mode)
            assert stats.mode == mode
            runs.setdefault(mode, []).append((stats.cycles, left))
    assert runs["maxplus"] == runs["dense"]


# -- the fall-back rule --------------------------------------------------------------


def _chain(sink=None):
    engine = Engine()
    source = engine.add_module(ListSource("src", item_flits(list(range(30)))))
    alu = engine.add_module(StreamAlu("alu", op="ADD", constant=1))
    sink = engine.add_module(sink or ListSink("sink"))
    engine.connect(source, alu)
    engine.connect(alu, sink)
    return engine, sink


def test_a_profiled_run_is_solved():
    """Profiling is no reason to tick: a profiled run is solved, and a
    run that ticks ``dense`` (the fall-back included) leaves no solution
    to profile."""
    engine, _sink = _chain()
    profiler = Profiler().attach(engine)
    assert engine.run(mode="maxplus").mode == "maxplus"
    assert profiler.report().mode == "maxplus"
    assert engine.run(mode="dense").mode == "dense"
    assert engine.solution is None
    with pytest.raises(RuntimeError, match="ticked dense"):
        profiler.report()


def test_a_module_ticking_without_its_plan_falls_back():
    class Skipping(ListSink):
        def tick(self, cycle):
            if cycle % 2:
                super().tick(cycle)

    engine, sink = _chain(Skipping("sink"))
    assert not maxplus.planned(sink)
    assert engine.run(mode="maxplus").mode == "dense"
    engine, sink = _chain()
    sink.tick = lambda cycle: None
    assert not maxplus.planned(sink)


# -- the verdicts kept per class and per step still let every fall-back fire


@pytest.mark.parametrize("hook", ("tick", "plan", "is_idle"))
def test_an_instance_override_falls_back_once_its_class_is_judged(hook):
    """A class is judged once; a fresh instance that overrides one of
    its hooks still ticks ``dense``, and the next instance solves."""
    engine, _sink = _chain()
    assert engine.run(mode="maxplus").mode == "maxplus"
    engine, sink = _chain()
    setattr(sink, hook, getattr(sink, hook))  # the same hook, the instance's
    assert not maxplus.planned(sink)
    assert engine.run(mode="maxplus").mode == "dense"
    engine, _sink = _chain()
    assert engine.run(mode="maxplus").mode == "maxplus"


def test_a_class_patched_after_it_was_judged_is_judged_again(monkeypatch):
    class Sink(ListSink):
        pass

    engine, _sink = _chain(Sink("sink"))
    assert engine.run(mode="maxplus").mode == "maxplus"
    # a tick of Sink's own, which the plan Sink inherits does not describe
    monkeypatch.setattr(
        Sink, "tick", lambda self, cycle: ListSink.tick(self, cycle)
    )
    engine, sink = _chain(Sink("sink"))
    assert not maxplus.planned(sink)
    assert engine.run(mode="maxplus").mode == "dense"


def test_a_hook_moved_to_a_judged_subclass_is_judged_again(monkeypatch):
    """The same function object, moved from the base to the subclass:
    the resolved ``tick`` is unchanged, but its owner now is the class
    below the plan's, so the verdict flips — and flips back when the
    patch is undone."""
    class Sub(ListSink):
        pass

    engine, sink = _chain(Sub("sink"))
    assert maxplus.planned(sink)
    assert engine.run(mode="maxplus").mode == "maxplus"
    with monkeypatch.context() as patch:
        patch.setattr(Sub, "tick", ListSink.tick, raising=False)
        assert Sub.tick is ListSink.tick
        engine, sink = _chain(Sub("sink"))
        assert not maxplus.planned(sink)
        assert engine.run(mode="maxplus").mode == "dense"
    assert "tick" not in vars(Sub)
    engine, sink = _chain(Sub("sink"))
    assert maxplus.planned(sink)
    assert engine.run(mode="maxplus").mode == "maxplus"


class _RoomySink(ListSink):
    """A sink whose plan also waits for room on an ``out`` port."""

    def plan(self, streams):
        plan = super().plan(streams)
        plan.steps = (maxplus.Step(pops=("in",), rooms=("out",), busy=True),)
        return plan


class _LazySink(ListSink):
    """A sink whose plan pops only the first half of its input."""

    def plan(self, streams):
        plan = super().plan(streams)
        del plan.actions[len(plan.actions) // 2:]
        return plan


def test_a_step_naming_an_unconnected_port_falls_back_in_every_wiring():
    """The step's ports are known per step, but whether they are wired
    is asked of each module: unwired, the wave ticks ``dense``; wired,
    the same step solves."""
    for _ in range(2):
        engine, sink = _chain(_RoomySink("sink"))
        assert engine.run(mode="maxplus").mode == "dense"
        engine, sink = _chain(_RoomySink("sink"))
        engine.connect(sink, engine.add_module(ListSink("tail")))
        assert engine.run(mode="maxplus").mode == "maxplus"


@pytest.mark.parametrize("index", (1, -1, 300))
def test_an_action_naming_no_step_falls_back(index):
    class Astray(ListSink):
        def plan(self, streams):
            plan = super().plan(streams)
            plan.actions[-1] = index  # the sink's one step is step 0
            return plan

    engine, sink = _chain(Astray("sink"))
    assert engine.run(mode="maxplus").mode == "dense"
    assert len(sink.collected) == 30


def test_a_plan_leaving_input_unpopped_falls_back():
    for _ in range(2):
        engine, sink = _chain(_LazySink("sink"))
        assert engine.run(mode="maxplus").mode == "dense"
        assert len(sink.collected) == 30


def test_one_set_of_classes_wired_two_ways_gets_two_verdicts():
    """Verdicts are kept per class, never per wiring: the same classes
    solve as a chain, tick ``dense`` as a cycle, and solve registered
    back to front, to the chain's answer."""

    def chain(reverse):
        engine = Engine()
        modules = [
            ListSource("src", item_flits(list(range(30)))),
            StreamAlu("alu", op="ADD", constant=1), ListSink("sink"),
        ]
        for module in reversed(modules) if reverse else modules:
            engine.add_module(module)
        engine.connect(modules[0], modules[1])
        engine.connect(modules[1], modules[2])
        return engine, modules[2]

    def loop():
        engine = Engine()
        a = engine.add_module(StreamAlu("a", op="ID"))
        b = engine.add_module(StreamAlu("b", op="ID"))
        engine.connect(a, b)
        engine.connect(b, a)
        return engine

    answers = {}
    for _ in range(2):
        for reverse in (False, True):
            for mode in ("maxplus", "dense"):
                engine, sink = chain(reverse)
                stats = engine.run(mode=mode)
                assert stats.mode == mode
                answers.setdefault(reverse, set()).add((
                    stats.cycles,
                    tuple((f.fields["value"], f.last) for f in sink.collected),
                ))
        assert loop().run(mode="maxplus").mode == "dense"
    assert len(answers[False]) == len(answers[True]) == 1


def test_a_queue_cycle_falls_back():
    engine = Engine()
    a = engine.add_module(StreamAlu("a", op="ID"))
    b = engine.add_module(StreamAlu("b", op="ID"))
    engine.connect(a, b)
    engine.connect(b, a)
    assert engine.run(mode="maxplus").mode == "dense"


def _unfinished_join():
    """A Joiner left holding an item its other side never sends."""
    engine = Engine()
    left = engine.add_module(ListSource("a", item_flits([1, 2]) + item_flits([3])))
    right = engine.add_module(ListSource("b", item_flits([1, 2])))
    joiner = engine.add_module(Joiner("j", key_a="value", key_b="value"))
    sink = engine.add_module(ListSink("sink"))
    engine.connect(left, joiner, in_port="a")
    engine.connect(right, joiner, in_port="b")
    engine.connect(joiner, sink)
    return engine


def test_a_wave_that_cannot_finish_falls_back_to_the_dense_report():
    with pytest.raises(RuntimeError, match="did not finish within 200 cycles"):
        _unfinished_join().run(max_cycles=200, mode="maxplus")


def test_lagging_qual_falls_back_to_the_divergence_error():
    """QUAL three hops behind SEQ: the tick pops a QUAL head that is not
    there; the plan only assumed it, so the dense loop reports it."""
    engine = Engine()
    r2b = engine.add_module(ReadToBases("r2b", with_qual=True))
    feeds = {
        "pos": item_flits([5]), "cigar": item_flits([3 << 2]),
        "seq": item_flits([0, 1, 2]), "qual": item_flits([30, 31, 32]),
    }
    for port, flits in feeds.items():
        tail = engine.add_module(ListSource(f"src.{port}", flits))
        if port == "qual":
            for hop in range(3):
                delay = engine.add_module(StreamAlu(f"delay{hop}", op="ID"))
                engine.connect(tail, delay)
                tail = delay
        engine.connect(tail, r2b, in_port=port)
    engine.connect(r2b, engine.add_module(ListSink("sink")))
    with pytest.raises(RuntimeError, match="SEQ/QUAL streams diverged"):
        engine.run(mode="maxplus")


def test_an_overflow_falls_back_to_the_dense_report():
    engine, _sink = _chain()
    with pytest.raises(RuntimeError, match="did not finish within 10 cycles"):
        engine.run(max_cycles=10, mode="maxplus")


def test_a_scratchpad_written_and_read_in_one_wave_falls_back():
    engine = Engine()
    spm = Scratchpad("s", 4)
    writes = engine.add_module(
        ListSource("w", [Flit({"addr": 1, "value": 9}, last=True)])
    )
    lookups = engine.add_module(ListSource("l", [Flit({"addr": 1}, last=True)]))
    updater = engine.add_module(SpmUpdater("u", spm, mode="random"))
    reader = engine.add_module(SpmReader("r", spm, mode="lookup"))
    engine.connect(writes, updater)
    engine.connect(lookups, reader)
    engine.connect(reader, engine.add_module(ListSink("sink")))
    assert engine.run(mode="maxplus").mode == "dense"


def test_a_fallen_back_run_leaves_the_modules_as_dense_does():
    """Falling back after the plans ran leaves no trace of them."""
    runs = {}
    for mode in ("dense", "maxplus"):
        engine = _unfinished_join()
        with pytest.raises(RuntimeError):
            engine.run(mode=mode, max_cycles=40)
        runs[mode] = [
            (side_effects(m), [(f.fields, f.last) for f in getattr(m, "collected", ())])
            for m in engine.modules
        ]
    assert runs["maxplus"] == runs["dense"]


# -- no silent fall-back on the stages -----------------------------------------------


def test_every_module_that_ticks_plans():
    """Every :class:`Module` class under ``repro`` that defines a ``tick``
    has a ``plan`` for it, so a wave that falls back to ``dense`` on the
    run path — and so leaves no profile — does so for a pathological
    wave, never for a missing plan."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":  # the CLI entry point runs main()
            importlib.import_module(info.name)

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    ticking = {
        cls for cls in subclasses(Module)
        if cls.__module__.startswith("repro.") and cls.tick is not Module.tick
    }
    assert AnchorInsertions in ticking and Reducer in ticking
    assert sorted(
        cls.__qualname__ for cls in ticking
        if not maxplus.planned(cls.__new__(cls))
    ) == []


@pytest.mark.parametrize("stage", tuple(STAGES))
def test_a_stage_wave_frames_no_flit(stage, monkeypatch):
    """Under ``maxplus`` a stage's wave moves whole columns: from
    ``build_replica`` through ``harvest`` — its SPM load and drain phases
    included — no :class:`Flit` is built."""
    monkeypatch.setattr(Engine, "default_mode", "maxplus")
    PHASES.clear()
    wl = workload("sharding")
    row = STAGES[stage]
    wave = [(pid, part) for pid, part in row.items(wl) if part.num_rows][:2]
    built = []
    init = Flit.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Flit, "__init__", counted)
    results, stats, _load_cycles = row.over(wl).run_wave(wave)
    assert stats.mode == "maxplus"
    assert len(results) == len(wave)
    assert len(built) == 0



@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("stage", tuple(STAGES))
def test_every_stage_wave_is_solved(stage, name, monkeypatch):
    """Every wave of every stage on the lattice workloads runs under
    ``maxplus`` — their SPM load and drain phases included."""
    monkeypatch.setattr(Engine, "default_mode", "maxplus")
    PHASES.clear()
    wl = workload(name)
    row = STAGES[stage]
    results, stats = run_sharded(row.over(wl), row.items(wl), 2)
    assert engine_modes(results) == {"maxplus"}
    assert stats.waves > 0
