"""Tests for multi-pipeline (Figure 8) execution of the real accelerators."""

import pytest

from repro.accel.metadata import run_metadata_update
from repro.accel import MetadataWaveDriver
from repro.accel.scheduler import ParallelRunStats
from repro.accel.sharding import run_sharded
from repro.tables.partition import PartitionId


def run_metadata_parallel(partitions, reference, n_pipelines, workers=1):
    return run_sharded(
        MetadataWaveDriver(reference=reference), partitions, n_pipelines,
        workers=workers,
    )


@pytest.fixture(scope="module")
def parts(workload):
    return [(pid, part) for pid, part in workload.partitions if part.num_rows > 0]


def test_parallel_results_match_serial(workload, parts):
    results, _stats = run_metadata_parallel(parts, workload.reference, n_pipelines=4)
    for pid, part in parts:
        serial = run_metadata_update(part, workload.reference.lookup(pid))
        assert results[pid].nm == serial.nm, str(pid)
        assert results[pid].md == serial.md, str(pid)
        assert results[pid].uq == serial.uq, str(pid)


def test_parallelism_reduces_wall_cycles(workload, parts):
    if len(parts) < 2:
        pytest.skip("needs multiple partitions")
    _res1, serial = run_metadata_parallel(parts, workload.reference, n_pipelines=1)
    _resn, parallel = run_metadata_parallel(
        parts, workload.reference, n_pipelines=min(4, len(parts))
    )
    assert parallel.total_cycles < serial.total_cycles
    assert parallel.waves < serial.waves


def test_wave_count(workload, parts):
    n = len(parts)
    _res, stats = run_metadata_parallel(parts, workload.reference, n_pipelines=2)
    assert stats.waves == (n + 1) // 2
    assert len(stats.per_wave_cycles) == stats.waves
    assert stats.cycles_including_load > stats.total_cycles


def test_pipeline_count_validation(workload, parts):
    with pytest.raises(ValueError):
        run_metadata_parallel(parts, workload.reference, n_pipelines=0)


def test_empty_partitions_included_in_results(workload, parts):
    """Regression: the parallel path used to drop empty partitions from
    its results dict while the serial driver included them."""
    empty_pid = PartitionId(20, 4096)
    with_empty = parts + [(empty_pid, workload.table.take([]))]
    results, _stats = run_metadata_parallel(
        with_empty, workload.reference, n_pipelines=2
    )
    assert set(results) == {pid for pid, _part in with_empty}
    empty = results[empty_pid]
    assert empty.nm == [] and empty.md == [] and empty.uq == []
    assert empty.run is None


def test_workers_kwarg_matches_serial(workload, parts):
    serial_res, serial_stats = run_metadata_parallel(
        parts, workload.reference, n_pipelines=1, workers=1
    )
    pool_res, pool_stats = run_metadata_parallel(
        parts, workload.reference, n_pipelines=1, workers=2
    )
    assert serial_stats.per_wave_cycles == pool_stats.per_wave_cycles
    for pid in serial_res:
        assert pool_res[pid].nm == serial_res[pid].nm
        assert pool_res[pid].md == serial_res[pid].md


def test_skip_ratio_guards_division_by_zero():
    assert ParallelRunStats(device=0).skip_ratio == 0.0
    assert ParallelRunStats(device=0, ticks_executed=3, ticks_possible=4).skip_ratio == 0.25


def test_host_flits_per_second_guards_division_by_zero():
    assert ParallelRunStats(device=0).host_flits_per_second == 0.0
    assert ParallelRunStats(device=0, total_flits=10).host_flits_per_second == 0.0
    assert ParallelRunStats(device=0, total_flits=10, wall_seconds=2.0).host_flits_per_second == 5.0


def test_host_parallelism_guards_division_by_zero():
    assert ParallelRunStats(device=0).host_parallelism == 0.0
    assert ParallelRunStats(device=0, wall_seconds=4.0, elapsed_seconds=2.0).host_parallelism == 2.0
