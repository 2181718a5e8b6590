"""Unit tests for the Memory Reader and Memory Writer modules."""

import pytest

from repro.hw.engine import Engine
from repro.hw.flit import Flit
from repro.hw.memory import MemoryConfig, MemorySystem
from repro.hw.modules import MemoryReader, MemoryWriter

from hw_harness import ListSink


def run_reader(reader_setup, memory_config=None):
    engine = Engine(MemorySystem(memory_config))
    reader = MemoryReader("r", engine.memory, elem_size=1)
    engine.add_module(reader)
    reader_setup(reader)
    sink = ListSink("s")
    engine.add_module(sink)
    engine.connect(reader, sink)
    stats = engine.run()
    return sink.collected, stats, engine


def test_scalar_stream():
    collected, _, _ = run_reader(lambda r: r.set_scalars([10, 20, 30]))
    assert [f["value"] for f in collected] == [10, 20, 30]
    assert all(f.last for f in collected)


def test_item_stream_framing():
    collected, _, _ = run_reader(lambda r: r.set_items([[1, 2], [3]]))
    lasts = [f.last for f in collected]
    assert lasts == [False, True, True]


def test_empty_item_produces_boundary():
    collected, _, _ = run_reader(lambda r: r.set_items([[], [5]]))
    assert not collected[0].fields and collected[0].last
    assert collected[1]["value"] == 5


def test_memory_traffic_accounted():
    _, stats, engine = run_reader(lambda r: r.set_scalars(list(range(100))))
    # 100 one-byte elements = ceil(100/64) = 2 access lines.
    assert engine.memory.requests_served == 2
    assert stats.memory_bytes == 128


def test_latency_delays_first_flit():
    def setup(reader):
        reader.set_scalars([1])

    _, stats_fast, _ = run_reader(setup, MemoryConfig(latency_cycles=0))
    _, stats_slow, _ = run_reader(setup, MemoryConfig(latency_cycles=50))
    assert stats_slow.cycles > stats_fast.cycles + 40


def test_throughput_one_element_per_cycle():
    collected, stats, _ = run_reader(lambda r: r.set_items([list(range(500))]))
    assert len(collected) == 500
    # Requests pipeline behind the prefetch buffer: ~1 flit/cycle after warmup.
    assert stats.cycles < 600


def test_elem_size_validation():
    engine = Engine()
    with pytest.raises(ValueError):
        MemoryReader("r", engine.memory, elem_size=0)


@pytest.mark.parametrize("prefetch_lines", [0, -1])
def test_prefetch_window_validation(prefetch_lines):
    """A reader that may never have a line outstanding could never run:
    refused at construction, whatever engine mode would run it."""
    engine = Engine()
    with pytest.raises(ValueError, match="prefetch_lines"):
        MemoryReader("r", engine.memory, prefetch_lines=prefetch_lines)


def test_writer_collects_items():
    engine = Engine()
    writer = MemoryWriter("w", engine.memory, elem_size=4)
    engine.add_module(writer)
    flits = [Flit({"value": 1}), Flit({"value": 2}, last=True), Flit({"value": 3}, last=True)]
    queue = engine.new_queue("in", capacity=16)
    writer.connect_input("in", queue)
    for flit in flits:
        queue.push(flit)
    engine.run()
    assert writer.collected == [1, 2, 3]
    assert writer.items == [[1, 2], [3]]


def test_writer_issues_requests_per_line():
    engine = Engine()
    writer = MemoryWriter("w", engine.memory, elem_size=4)  # 16 elems/64B line
    engine.add_module(writer)
    queue = engine.new_queue("in", capacity=64)
    writer.connect_input("in", queue)
    for i in range(32):
        queue.push(Flit({"value": i}, last=(i == 31)))
    engine.run()
    assert engine.memory.requests_served == 2


def test_writer_skips_boundary_flits():
    engine = Engine()
    writer = MemoryWriter("w", engine.memory)
    engine.add_module(writer)
    queue = engine.new_queue("in")
    writer.connect_input("in", queue)
    queue.push(Flit({}, last=True))
    engine.run()
    assert writer.collected == []
    assert writer.items == [[]]
