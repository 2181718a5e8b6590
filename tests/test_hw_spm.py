"""Unit tests for the scratchpad and the RMW hazard interlock."""

import pytest

from repro.hw.spm import RmwInterlock, Scratchpad


def test_read_write():
    spm = Scratchpad("s", 16)
    spm.write(3, 42)
    assert spm.read(3) == 42
    assert spm.reads == 1 and spm.writes == 1


def test_bounds_checked():
    spm = Scratchpad("s", 4)
    with pytest.raises(IndexError):
        spm.read(4)
    with pytest.raises(IndexError):
        spm.write(-1, 0)


def test_load_and_dump():
    spm = Scratchpad("s", 5)
    spm.load([1, 2, 3], offset=1)
    assert spm.dump() == [0, 1, 2, 3, 0]


def test_load_counts_one_write_per_word_and_checks_range():
    spm = Scratchpad("s", 5)
    spm.load(iter([1, 2, 3]), offset=2)
    assert (spm.reads, spm.writes) == (0, 3)
    spm.load([])
    assert spm.writes == 3
    for values, offset in (([1, 2], 4), ([1], -1), ([1] * 6, 0)):
        with pytest.raises(IndexError):
            spm.load(values, offset=offset)
    assert spm.dump() == [0, 0, 1, 2, 3] and spm.writes == 3


def test_clear():
    spm = Scratchpad("s", 3, fill=7)
    assert spm.dump() == [7, 7, 7]
    spm.clear(0)
    assert spm.dump() == [0, 0, 0]


def test_size_validation():
    with pytest.raises(ValueError):
        Scratchpad("s", 0)


def test_interlock_blocks_same_address_within_three_cycles():
    interlock = RmwInterlock()
    assert interlock.try_enter(0, 5)
    assert not interlock.try_enter(1, 5)
    assert not interlock.try_enter(2, 5)
    assert interlock.try_enter(3, 5)  # pipeline drained
    assert interlock.hazard_stalls == 2


def test_interlock_allows_different_addresses():
    interlock = RmwInterlock()
    assert interlock.try_enter(0, 1)
    assert interlock.try_enter(0, 2)
    assert interlock.try_enter(1, 3)
    assert interlock.hazard_stalls == 0


def test_interlock_busy():
    interlock = RmwInterlock()
    interlock.try_enter(0, 9)
    assert interlock.busy(1)
    assert not interlock.busy(3)
