"""Randomized stress tests of the dataflow machinery.

These exercise the property the whole simulator rests on: *functional
results are invariant to timing* — queue capacities, consumer rates, and
memory latencies may change cycle-level behaviour but never outputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.engine import Engine
from repro.hw.flit import Flit, item_flits
from repro.hw.memory import MemoryConfig, MemorySystem
from repro.hw.modules import Filter, Fork, Joiner, Reducer, StreamAlu

from hw_harness import MODES, ListSink, ListSource, assert_runs_equivalent, values


class JitterySink(ListSink):
    """A consumer that pops only on a pseudo-random subset of cycles,
    injecting irregular back-pressure."""

    def __init__(self, name, seed, rate=0.5):
        super().__init__(name)
        self._rng = np.random.default_rng(seed)
        self._rate = rate

    def tick(self, cycle):
        if self._rng.random() < self._rate:
            super().tick(cycle)


def run_chain(items, capacity, sink_seed):
    """source -> ALU(+1) -> filter(>2) -> reducer(sum per item) -> sink."""
    engine = Engine(default_queue_capacity=capacity)
    flits = [flit for item in items for flit in item_flits(item)]
    source = engine.add_module(ListSource("src", flits))
    alu = engine.add_module(StreamAlu("alu", op="ADD", field="value", constant=1))
    filt = engine.add_module(Filter("filt", field="value", op=">", constant=2))
    red = engine.add_module(Reducer("red", op="sum", field="value"))
    sink = engine.add_module(JitterySink("sink", sink_seed))
    engine.connect(source, alu)
    engine.connect(alu, filt)
    engine.connect(filt, red)
    engine.connect(red, sink)
    engine.run()
    return values(sink.collected)


def reference_chain(items):
    return [sum(v + 1 for v in item if v + 1 > 2) for item in items]


@given(
    st.lists(st.lists(st.integers(0, 50), max_size=12), min_size=1, max_size=8),
    st.integers(1, 16),
    st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_chain_invariant_to_timing(items, capacity, sink_seed):
    assert run_chain(items, capacity, sink_seed) == reference_chain(items)


def join_reference(a_items, b_items, mode):
    out = []
    for a_item, b_item in zip(a_items, b_items):
        b_map = dict(b_item)
        row = []
        for key, value in a_item:
            if key in b_map:
                row.append((key, value, b_map[key]))
            elif mode == "left":
                row.append((key, value, None))
        out.append(row)
    return out


@st.composite
def keyed_items(draw, n_items):
    items = []
    for _ in range(n_items):
        keys = sorted(draw(st.sets(st.integers(0, 30), max_size=10)))
        items.append([(key, draw(st.integers(0, 9))) for key in keys])
    return items


@given(st.integers(1, 4), st.data(), st.sampled_from(["inner", "left"]),
       st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_joiner_invariant_to_timing(n_items, data, mode, capacity):
    a_items = data.draw(keyed_items(n_items))
    b_items = data.draw(keyed_items(n_items))

    def frame(items, field):
        flits = []
        for item in items:
            body = [Flit({"key": k, field: v}) for k, v in item]
            if body:
                body[-1].last = True
            else:
                body = [Flit({}, last=True)]
            flits.extend(body)
        return flits

    engine = Engine(default_queue_capacity=capacity)
    src_a = engine.add_module(ListSource("a", frame(a_items, "va")))
    src_b = engine.add_module(ListSource("b", frame(b_items, "vb")))
    joiner = engine.add_module(Joiner("j", mode=mode, key_a="key", key_b="key"))
    sink = engine.add_module(JitterySink("sink", capacity * 7 + n_items))
    engine.connect(src_a, joiner, in_port="a")
    engine.connect(src_b, joiner, in_port="b")
    engine.connect(joiner, sink)
    engine.run()

    got = []
    current = []
    for flit in sink.collected:
        if flit.fields:
            current.append((flit["key"], flit["va"], flit.get("vb")))
        if flit.last:
            got.append(current)
            current = []
    assert got == join_reference(a_items, b_items, mode)


@given(st.integers(0, 100), st.integers(1, 64), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_memory_latency_never_changes_results(n_values, latency, channels_idx):
    channels = [1, 2, 4, 8][channels_idx]
    from repro.hw.modules import MemoryReader

    runs = {}
    for mode in MODES:
        engine = Engine(MemorySystem(MemoryConfig(
            channels=channels, latency_cycles=latency,
        )))
        reader = engine.add_module(MemoryReader("r", engine.memory, elem_size=1))
        sink = engine.add_module(ListSink("s"))
        engine.connect(reader, sink)
        payload = list(range(n_values))
        reader.set_items([payload])
        runs[mode] = engine.run(mode=mode)
        assert values(sink.collected) == payload
        assert_runs_equivalent(runs["dense"], runs[mode])


def test_fork_under_asymmetric_consumers():
    """One slow branch must not corrupt the fast branch's data."""
    engine = Engine(default_queue_capacity=2)
    flits = [flit for flit in item_flits(list(range(60)))]
    source = engine.add_module(ListSource("src", flits))
    fork = engine.add_module(Fork("fork", ports=2))
    fast = engine.add_module(ListSink("fast"))
    slow = engine.add_module(JitterySink("slow", seed=5, rate=0.2))
    engine.connect(source, fork)
    engine.connect(fork, fast, out_port="out0")
    engine.connect(fork, slow, out_port="out1")
    engine.run()
    assert values(fast.collected) == list(range(60))
    assert values(slow.collected) == list(range(60))


def _rmw_engine(addresses, capacity, latency):
    from repro.hw.spm import Scratchpad
    from repro.hw.modules.spm_access import SpmUpdater

    engine = Engine(
        MemorySystem(MemoryConfig(latency_cycles=latency)),
        default_queue_capacity=capacity,
    )
    spm = Scratchpad("counts", size=32)
    flits = [Flit({"addr": int(a)}) for a in addresses]
    if flits:
        flits[-1].last = True
    source = engine.add_module(ListSource("src", flits))
    updater = engine.add_module(SpmUpdater("upd", spm, mode="rmw"))
    engine.connect(source, updater)
    return engine, spm, updater


@given(
    st.lists(st.integers(0, 7), min_size=1, max_size=60),
    st.integers(1, 8),
    st.integers(0, 80),
)
@settings(max_examples=40, deadline=None)
def test_rmw_hazard_identical_across_modes(addresses, capacity, latency):
    """The three-stage RMW interlock under repeated-address pressure:
    every engine mode must agree on cycles, hazard stalls, and the final
    SPM contents."""
    runs = {}
    for mode in MODES:
        engine, spm, updater = _rmw_engine(addresses, capacity, latency)
        stats = engine.run(mode=mode)
        assert stats.mode == mode
        runs[mode] = (stats.cycles, spm.dump(), updater.hazard_stalls, updater.updates)
    assert runs["maxplus"] == runs["dense"]
    expected = [0] * 32
    for address in addresses:
        expected[address] += 1
    assert runs["dense"][1] == expected


class CycleKeyedSink(ListSink):
    """A back-pressuring consumer whose pop/skip decision is a pure
    function of the *cycle number* — a timing no plan can describe."""

    def __init__(self, name, seed, rate=0.5):
        super().__init__(name)
        self._gate = np.random.default_rng(seed).random(4096) < rate

    def tick(self, cycle):
        if self._gate[cycle % len(self._gate)]:
            super().tick(cycle)


@given(
    st.lists(st.lists(st.integers(0, 50), max_size=12), min_size=1, max_size=6),
    st.integers(1, 16),
    st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_chain_cycles_identical_across_modes(items, capacity, sink_seed):
    """Irregular back-pressure: same cycle count, same outputs.  The sink
    gates on the cycle number, which no plan can describe, so ``maxplus``
    falls back to ``dense`` — the living test of the fall-back rule."""
    runs = {}
    for mode in MODES:
        engine = Engine(default_queue_capacity=capacity)
        flits = [flit for item in items for flit in item_flits(item)]
        source = engine.add_module(ListSource("src", flits))
        alu = engine.add_module(StreamAlu("alu", op="ADD", field="value", constant=1))
        sink = engine.add_module(CycleKeyedSink("sink", sink_seed))
        engine.connect(source, alu)
        engine.connect(alu, sink)
        stats = engine.run(mode=mode)
        assert stats.mode == "dense"
        runs[mode] = (stats.cycles, values(sink.collected))
    assert runs["dense"] == runs["maxplus"]
