"""Unit tests for the registered hardware queue."""

import pytest

from repro.hw.flit import Flit
from repro.hw.queue import HardwareQueue


def test_push_not_visible_until_commit():
    queue = HardwareQueue("q", capacity=4)
    queue.push(Flit({"v": 1}))
    assert not queue.can_pop()  # staged, not committed
    queue.commit()
    assert queue.can_pop()
    assert queue.pop()["v"] == 1


def test_capacity_counts_staged():
    queue = HardwareQueue("q", capacity=2)
    queue.push(Flit({}))
    queue.push(Flit({}))
    assert not queue.can_push()
    with pytest.raises(RuntimeError):
        queue.push(Flit({}))


def test_fifo_order():
    queue = HardwareQueue("q", capacity=8)
    for i in range(5):
        queue.push(Flit({"v": i}))
    queue.commit()
    assert [queue.pop()["v"] for _ in range(5)] == [0, 1, 2, 3, 4]


def test_pop_empty_raises():
    queue = HardwareQueue("q")
    with pytest.raises(RuntimeError):
        queue.pop()


def test_peek_non_destructive():
    queue = HardwareQueue("q")
    queue.push(Flit({"v": 9}))
    queue.commit()
    assert queue.peek()["v"] == 9
    assert queue.peek()["v"] == 9
    assert len(queue) == 1


def test_is_empty_considers_staged():
    queue = HardwareQueue("q")
    assert queue.is_empty()
    queue.push(Flit({}))
    assert not queue.is_empty()


def test_statistics():
    queue = HardwareQueue("q", capacity=8)
    for i in range(3):
        queue.push(Flit({}))
    queue.commit()
    assert queue.total_pushed == 3
    assert len(queue) == 3


def test_capacity_validation():
    with pytest.raises(ValueError):
        HardwareQueue("q", capacity=0)


def test_try_push_returns_false_when_full():
    queue = HardwareQueue("q", capacity=1)
    assert queue.try_push(Flit({"v": 1}))
    assert not queue.try_push(Flit({"v": 2}))  # staged flit counts
    queue.commit()
    assert not queue.try_push(Flit({"v": 3}))
    assert queue.pop()["v"] == 1
    assert queue.try_push(Flit({"v": 4}))


def test_try_push_does_not_count_stalls():
    """try_push itself must not touch full_stalls — attribution happens
    once, in Module._note_stalled(queue)."""
    queue = HardwareQueue("q", capacity=1)
    queue.try_push(Flit({}))
    queue.try_push(Flit({}))
    queue.try_push(Flit({}))
    assert queue.full_stalls == 0


def test_full_stalls_attributed_to_blocking_queue():
    """A back-pressured producer charges its stall cycles to the queue
    that blocked it."""
    from repro.hw.engine import Engine
    from repro.hw.flit import item_flits

    import sys
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    from hw_harness import ListSink, ListSource

    class SlowSink(ListSink):
        def tick(self, cycle):
            if cycle % 4 == 0:
                super().tick(cycle)

    for mode in ("dense", "maxplus"):  # SlowSink has no plan: both tick
        engine = Engine()
        source = engine.add_module(ListSource("src", item_flits(list(range(40)))))
        sink = engine.add_module(SlowSink("sink"))
        queue = engine.connect(source, sink, capacity=2)
        engine.run(mode=mode)
        assert queue.full_stalls > 0, mode
        assert queue.full_stalls == source.stall_cycles, mode


def test_occupancy_and_is_full():
    queue = HardwareQueue("q", capacity=2)
    assert queue.occupancy() == 0 and not queue.is_full()
    queue.push(Flit({}))
    assert queue.occupancy() == 1
    queue.push(Flit({}))
    assert queue.is_full()
    queue.commit()
    assert queue.occupancy() == 2 and queue.is_full()
