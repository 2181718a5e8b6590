"""Unit tests for the simulation engine, pipelines, and resources."""

import pytest

from repro.hw.engine import Engine
from repro.hw.flit import Flit, item_flits
from repro.hw.modules import MemoryWriter, Reducer
from repro.hw.pipeline import Pipeline
from repro.hw.resources import (
    SHELL_COST,
    ResourceVector,
    estimate_accelerator,
    estimate_pipeline,
)

from hw_harness import MODES, ListSink, ListSource, assert_runs_equivalent


def test_flits_advance_one_hop_per_cycle():
    """A flit traverses a 3-module chain in ~3 cycles, not 1 (registered
    queue semantics)."""
    engine = Engine()
    source = engine.add_module(ListSource("src", [Flit({"value": 1}, last=True)]))
    middle = engine.add_module(Reducer("mid", op="sum"))
    sink = engine.add_module(ListSink("sink"))
    engine.connect(source, middle)
    engine.connect(middle, sink)
    engine.step()  # source pushes
    assert not sink.collected
    engine.step()  # reducer consumes + emits
    assert not sink.collected
    engine.step()  # sink consumes
    assert len(sink.collected) == 1


def test_run_reaches_quiescence():
    engine = Engine()
    source = engine.add_module(ListSource("src", item_flits([1, 2, 3])))
    sink = engine.add_module(ListSink("sink"))
    engine.connect(source, sink)
    stats = engine.run()
    assert len(sink.collected) == 3
    assert stats.cycles < 20


def test_run_detects_deadlock():
    engine = Engine()

    class Stuck(ListSource):
        def is_idle(self):
            return False

        def tick(self, cycle):
            pass

    engine.add_module(Stuck("stuck", []))
    with pytest.raises(RuntimeError):
        engine.run(max_cycles=100)


def test_stats_collection():
    engine = Engine()
    source = engine.add_module(ListSource("src", item_flits([1, 2])))
    sink = engine.add_module(ListSink("sink"))
    engine.connect(source, sink)
    stats = engine.run()
    assert stats.flits_by_module["src"] == 2
    assert stats.throughput(2) > 0


def test_back_pressure_stalls_producer():
    engine = Engine()
    source = engine.add_module(ListSource("src", item_flits(list(range(50)))))

    class SlowSink(ListSink):
        def tick(self, cycle):
            if cycle % 4 == 0:  # consumes once every 4 cycles
                super().tick(cycle)

    sink = engine.add_module(SlowSink("sink"))
    engine.connect(source, sink, capacity=2)
    stats = engine.run()
    assert len(sink.collected) == 50
    assert source.stall_cycles > 0
    assert stats.cycles > 150


def test_pipeline_census():
    engine = Engine()
    pipe = Pipeline("p", engine)
    pipe.add(Reducer("r1", op="sum"))
    pipe.add(Reducer("r2", op="sum"))
    pipe.add(MemoryWriter("w", engine.memory))
    assert pipe.module_census() == {"Reducer": 2, "MemoryWriter": 1}


def test_pipeline_duplicate_module_rejected():
    engine = Engine()
    pipe = Pipeline("p", engine)
    pipe.add(Reducer("r", op="sum"))
    with pytest.raises(ValueError):
        pipe.add(Reducer("r", op="sum"))


def test_resource_vector_arithmetic():
    a = ResourceVector(10, 20, 30)
    b = ResourceVector(1, 2, 3)
    assert (a + b).luts == 11
    assert a.scaled(2).registers == 40
    assert 0 < a.utilization()["luts"] < 1e-3


def test_estimate_pipeline_includes_spm():
    base = estimate_pipeline({"Reducer": 1})
    with_spm = estimate_pipeline({"Reducer": 1}, spm_bytes=[1024])
    assert with_spm.bram_bytes == base.bram_bytes + 1024


def test_estimate_unknown_module_rejected():
    with pytest.raises(KeyError):
        estimate_pipeline({"FluxCapacitor": 1})


def test_estimate_accelerator_adds_shell_once():
    one = estimate_accelerator({"Reducer": 1}, [], 1)
    two = estimate_accelerator({"Reducer": 1}, [], 2)
    pipeline_cost = two.luts - one.luts
    assert one.luts == SHELL_COST.luts + pipeline_cost


def test_reducer_lanes_increase_cost():
    narrow = estimate_pipeline({"Reducer": 1}, reducer_lanes=1)
    wide = estimate_pipeline({"Reducer": 1}, reducer_lanes=64)
    assert wide.luts > narrow.luts
    with pytest.raises(ValueError):
        estimate_pipeline({"Reducer": 1}, reducer_lanes=0)


# -- differential tests across the engine modes --------------------------------------
#
# The max-plus solution must be indistinguishable from the dense loop on
# everything the paper measures: cycle counts, flit counts, busy cycles,
# memory traffic, and functional outputs.  Executed-tick metrics (starve
# tallies, ticks_executed) legitimately differ — that difference is the
# mode's win and is covered by the RunStats tests instead.


def _force_mode(monkeypatch, mode):
    monkeypatch.setattr(Engine, "default_mode", mode)


def _per_mode(monkeypatch, run):
    """``run()`` under each engine mode, the dense oracle first."""
    results = {}
    for mode in MODES:
        _force_mode(monkeypatch, mode)
        results[mode] = run()
    return results


def test_example_query_identical_across_modes(workload, monkeypatch):
    from repro.accel.example_query import run_example_query

    pid, part = next((p, t) for p, t in workload.partitions if t.num_rows > 0)
    ref_row = workload.reference.lookup(pid)
    runs = _per_mode(monkeypatch, lambda: run_example_query(part, ref_row))
    for mode, run in runs.items():
        assert run.counts == runs["dense"].counts
        assert_runs_equivalent(runs["dense"].run.stats, run.run.stats)
        assert run.run.stats.mode == mode


def test_markdup_identical_across_modes(workload, monkeypatch):
    from repro.accel.markdup import run_quality_sums

    pid, part = next((p, t) for p, t in workload.partitions if t.num_rows > 0)
    runs = _per_mode(monkeypatch, lambda: run_quality_sums(part.column("QUAL")))
    for mode, run in runs.items():
        assert run.quality_sums == runs["dense"].quality_sums
        assert_runs_equivalent(runs["dense"].stats, run.stats)
        assert run.stats.mode == mode


def test_metadata_identical_across_modes(workload, monkeypatch):
    from repro.accel.metadata import run_metadata_update

    checked = 0
    for pid, part in workload.partitions:
        if part.num_rows == 0:
            continue
        ref_row = workload.reference.lookup(pid)
        runs = _per_mode(monkeypatch, lambda: run_metadata_update(part, ref_row))
        dense = runs["dense"]
        for mode, run in runs.items():
            assert (run.nm, run.md, run.uq) == (dense.nm, dense.md, dense.uq)
            assert_runs_equivalent(dense.run.stats, run.run.stats)
            assert run.run.stats.mode == mode
        checked += 1
    assert checked > 0


def test_bqsr_identical_across_modes(workload, monkeypatch):
    import numpy as np

    from repro.accel.bqsr import run_bqsr_partition

    pid, part = next(
        (p, t) for p, t in workload.group_partitions if t.num_rows > 0
    )
    ref_row = workload.reference.lookup(pid)
    runs = _per_mode(
        monkeypatch,
        lambda: run_bqsr_partition(part, ref_row, workload.read_length),
    )
    dense = runs["dense"]
    for mode, run in runs.items():
        for field in ("total_cycle", "total_context", "error_cycle", "error_context"):
            assert np.array_equal(getattr(dense, field), getattr(run, field))
        assert run.hazard_stalls == dense.hazard_stalls
        assert_runs_equivalent(dense.run.stats, run.run.stats)
        assert run.run.stats.mode == mode


def test_metadata_parallel_identical_across_modes(workload):
    from repro.accel import MetadataWaveDriver
    from repro.accel.sharding import run_sharded

    runs = {}
    for mode in MODES:
        runs[mode] = run_sharded(
            MetadataWaveDriver(reference=workload.reference, mode=mode),
            workload.partitions, 4,
        )
    dense_results, dense_stats = runs["dense"]
    for mode, (results, stats) in runs.items():
        assert stats.per_wave_cycles == dense_stats.per_wave_cycles
        assert stats.total_flits == dense_stats.total_flits
        assert set(results) == set(dense_results)
        for pid in dense_results:
            assert results[pid].nm == dense_results[pid].nm
            assert results[pid].md == dense_results[pid].md
            assert results[pid].uq == dense_results[pid].uq


def test_maxplus_mode_solves_memory_latency():
    """A single reader on a high-latency memory: the max-plus solution
    lands on the dense cycle count, timing each flit once."""
    from repro.hw.memory import MemoryConfig, MemorySystem
    from repro.hw.modules import MemoryReader

    def build():
        engine = Engine(MemorySystem(MemoryConfig(latency_cycles=250)))
        reader = engine.add_module(MemoryReader("r", engine.memory, elem_size=1))
        sink = engine.add_module(ListSink("s"))
        engine.connect(reader, sink)
        reader.set_items([list(range(40))])
        return engine, sink

    engine_d, sink_d = build()
    dense = engine_d.run(mode="dense")
    engine_m, sink_m = build()
    solved = engine_m.run(mode="maxplus")
    assert_runs_equivalent(dense, solved)
    assert [f.fields for f in sink_m.collected] == [f.fields for f in sink_d.collected]
    assert solved.ticks_executed < dense.ticks_executed


def test_run_stats_host_metrics():
    dense = Engine()
    src2 = dense.add_module(ListSource("src", item_flits(list(range(20)))))
    sink2 = dense.add_module(ListSink("sink"))
    dense.connect(src2, sink2)
    dstats = dense.run(mode="dense")
    assert dstats.mode == "dense"
    assert dstats.skip_ratio == 0.0
    assert dstats.ticks_executed == dstats.ticks_possible
    solved = Engine()
    src3 = solved.add_module(ListSource("src", item_flits(list(range(20)))))
    sink3 = solved.add_module(ListSink("sink"))
    solved.connect(src3, sink3)
    mstats = solved.run(mode="maxplus")
    assert mstats.mode == "maxplus"
    assert mstats.cycles == dstats.cycles == solved.cycle
    assert mstats.wall_seconds > 0
    assert mstats.ticks_executed == 40  # one action per flit moved or taken
    assert 0.0 < mstats.skip_ratio < 1.0
    assert mstats.host_flits_per_second(20) > 0


def test_unknown_mode_rejected():
    for mode in ("quantum", "event"):  # the event scheduler is retired
        with pytest.raises(ValueError):
            Engine().run(mode=mode)


def test_deadlock_report_names_the_stuck_parts():
    """On overflow the error must say which modules and queues are stuck,
    not just 'deadlock'."""
    engine = Engine()

    class Stuck(ListSource):
        def is_idle(self):
            return False

        def tick(self, cycle):
            self._note_stalled(self.output())

    stuck = engine.add_module(Stuck("jammed", []))
    sink = engine.add_module(ListSink("sink"))
    queue = engine.connect(stuck, sink, capacity=2)
    queue.push(Flit({}))
    queue.push(Flit({}))
    queue.commit()
    sink.tick = lambda cycle: None  # sink never consumes
    with pytest.raises(RuntimeError) as err:
        engine.run(max_cycles=50, mode="dense")
    message = str(err.value)
    assert "jammed" in message
    assert "FULL" in message
    assert "full_stalls" in message


def test_remove_module_keeps_scheduler_consistent():
    engine = Engine()
    source = engine.add_module(ListSource("src", item_flits([1, 2])))
    middle = engine.add_module(Reducer("mid", op="sum"))
    sink = engine.add_module(ListSink("sink"))
    q1 = engine.connect(source, middle)
    engine.connect(middle, sink)
    engine.remove_module(middle)
    assert [m._index for m in engine.modules] == [0, 1]
    assert middle not in q1.consumers
