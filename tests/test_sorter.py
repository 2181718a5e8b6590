"""Tests for the merge-sort hardware and the merge-tree sort driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.sort import run_hw_sort
from repro.hw.engine import Engine
from repro.hw.modules.sorter import MergeUnit, build_merge_tree, sorted_run_flits

from hw_harness import drive


def merge_two(a, b):
    unit = MergeUnit("m")
    out, _ = drive(unit, {"a": sorted_run_flits(a), "b": sorted_run_flits(b)})
    return [flit["key"] for flit in out["out"] if flit.fields]


def test_merge_unit_basic():
    assert merge_two([1, 3, 5], [2, 4, 6]) == [1, 2, 3, 4, 5, 6]


def test_merge_unit_uneven_lengths():
    assert merge_two([5], [1, 2, 3, 4]) == [1, 2, 3, 4, 5]
    assert merge_two([1, 2, 3, 4], [5]) == [1, 2, 3, 4, 5]


def test_merge_unit_empty_sides():
    assert merge_two([], [1, 2]) == [1, 2]
    assert merge_two([1, 2], []) == [1, 2]
    assert merge_two([], []) == []


def test_merge_unit_duplicates_stable():
    unit = MergeUnit("m")
    a = sorted_run_flits([1, 2], payload={"side": "a"})
    b = sorted_run_flits([1, 2], payload={"side": "b"})
    out, _ = drive(unit, {"a": a, "b": b})
    flits = [f for f in out["out"] if f.fields]
    assert [(f["key"], f["side"]) for f in flits] == [
        (1, "a"), (1, "b"), (2, "a"), (2, "b")
    ]


def test_merge_emits_single_terminator():
    unit = MergeUnit("m")
    out, _ = drive(unit, {"a": sorted_run_flits([1]), "b": sorted_run_flits([2])})
    assert sum(1 for f in out["out"] if f.last) == 1


def test_build_merge_tree_validation():
    engine = Engine()
    with pytest.raises(ValueError):
        build_merge_tree(engine, "t", 3)
    with pytest.raises(ValueError):
        build_merge_tree(engine, "t", 1)


def test_merge_tree_unit_count():
    engine = Engine()
    _leaves, _out, units = build_merge_tree(engine, "t", 8)
    assert len(units) == 7  # 4 + 2 + 1


def test_hw_sort_random():
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 1000, size=200).tolist()
    result = run_hw_sort(keys, n_leaves=8)
    assert result.keys == sorted(keys)


def test_hw_sort_carries_tags():
    keys = [5, 1, 4, 2, 3]
    result = run_hw_sort(keys, tags=["e", "a", "d", "b", "c"], n_leaves=2)
    assert result.keys == [1, 2, 3, 4, 5]
    assert result.tags == ["a", "b", "c", "d", "e"]


def test_hw_sort_empty():
    assert run_hw_sort([], n_leaves=4).keys == []


def test_hw_sort_throughput():
    keys = list(range(500, 0, -1))
    result = run_hw_sort(keys, n_leaves=8)
    # One record per cycle plus tree latency (~log leaves) and framing.
    assert result.stats.cycles < 700


@given(st.lists(st.integers(-100, 100), max_size=80), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_hw_sort_property(keys, leaves_pow):
    result = run_hw_sort(keys, n_leaves=2 ** leaves_pow)
    assert result.keys == sorted(keys)
