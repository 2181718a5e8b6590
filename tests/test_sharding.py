"""Tests for multi-device sharding (repro.accel.sharding).

That a sharded run is bit-identical to the serial one — results and
modelled cycles, at every ``(devices, workers)``, faulted, filtered,
stealing — is ``tests/test_lattice.py``'s to draw; the stage x devices x
workers grid and its faulted row are named points of it here.  Also: the
shard planner, the steal loop, per-device SPM caches, the sharded stats view,
the BQSR reduction, the one topology CI smokes by name, and the hang only
a real watchdog can reap.  Host-side cache hit/miss counts are the one
deliberate exception to bit-identity (locality depends on which device a
wave lands on); the *modelled* SPM load cycles charge the same either way.
"""

import dataclasses
import os
from collections import Counter

import numpy as np
import pytest

from hw_harness import assert_same_cycles, assert_stage_identical
from repro.accel import BqsrWaveDriver, MetadataWaveDriver
from repro.accel.scheduler import (
    WAVE_FAULT_SITE,
    ParallelRunStats,
    SpmImageCache,
    pack_waves,
)
from repro.accel.sharding import (
    ShardedRunStats,
    plan_shards,
    reduce_bqsr_results,
    run_sharded,
    stable_shard_hash,
)
from repro.eval.workloads import make_workload
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.retry import RetryPolicy
from test_lattice import Config, check_direct, fault

BQSR_FIELDS = ("total_cycle", "total_context", "error_cycle", "error_context")

DEVICE_GRID = [
    (devices, workers) for devices in (1, 2, 4) for workers in (1, 4)
]


@pytest.fixture(scope="module")
def workload():
    """Enough partitions for multi-wave, multi-device schedules."""
    return make_workload(
        n_reads=120,
        read_length=60,
        chromosomes=(20, 21),
        genome_scale=4.5e-5,
        psize=1000,
        seed=105,
    )


@pytest.fixture(scope="module")
def metadata_serial(workload):
    driver = MetadataWaveDriver(reference=workload.reference)
    return run_sharded(driver, workload.partitions, 2, workers=1)


@pytest.fixture(scope="module")
def bqsr_serial(workload):
    driver = BqsrWaveDriver(
        reference=workload.reference, read_length=workload.read_length
    )
    return run_sharded(driver, workload.group_partitions, 4, workers=1)


# -- named lattice points: devices x workers vs the serial schedule -----------------


@pytest.mark.parametrize("devices,workers", DEVICE_GRID)
def test_metadata_sharded_bit_identical(devices, workers):
    stats = check_direct(Config("metadata", devices=devices, workers=workers))
    assert stats.waves > 1, "need a multi-wave schedule to compare"
    assert isinstance(stats, ShardedRunStats) and stats.devices == devices


@pytest.mark.parametrize("devices,workers", DEVICE_GRID)
def test_markdup_sharded_bit_identical(devices, workers):
    check_direct(Config("markdup", pipelines=1, devices=devices, workers=workers))


@pytest.mark.parametrize("devices,workers", DEVICE_GRID)
def test_bqsr_sharded_bit_identical(devices, workers):
    check_direct(Config("bqsr", pipelines=4, devices=devices, workers=workers))


@pytest.mark.parametrize("devices", (1, 2, 4))
def test_sharded_bit_identical_under_faults(devices):
    """Global fault slots fire on whichever device runs that wave, and
    the retry ladder still converges to the serial answer."""
    stats = check_direct(Config(
        "metadata", devices=devices, workers=2,
        faults=(fault("worker_crash", WAVE_FAULT_SITE, 0, 1),),
    ))
    assert stats.faults_by_kind == {"worker_crash": 2}


def test_sharded_smoke(workload, metadata_serial):
    """Fast single-topology differential for CI smoke jobs
    (``pytest -k test_sharded_smoke``)."""
    serial_res, serial_stats = metadata_serial
    driver = MetadataWaveDriver(reference=workload.reference)
    sharded_res, stats = run_sharded(
        driver, workload.partitions, 2, devices=2, workers=2
    )
    assert_same_cycles(serial_stats, stats)
    assert_stage_identical("metadata", sharded_res, serial_res)


def test_kept_pool_serves_consecutive_sharded_runs(
    workload, metadata_serial, pools_built, worker_pids
):
    """Two ``run_sharded(devices=2)`` calls in one process: the second
    forks nothing and runs on the first's workers, bit-identically."""
    serial_res, serial_stats = metadata_serial
    driver = MetadataWaveDriver(reference=workload.reference)
    pids = []
    for _ in range(2):
        del worker_pids[:]
        sharded_res, stats = run_sharded(
            driver, workload.partitions, 2, devices=2
        )
        assert_same_cycles(serial_stats, stats)
        assert_stage_identical("metadata", sharded_res, serial_res)
        pids.append(set(worker_pids))
    assert pools_built == [2]
    assert os.getpid() not in pids[0] | pids[1]
    assert len(pids[0] | pids[1]) <= 2


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("devices", (1, 2, 3))
def test_sharded_stats_sum_every_tally_the_queue_stats_declare(
    workload, devices, workers
):
    """Driven by the dataclass, not a list: whatever ``ParallelRunStats``
    declares, ``ShardedRunStats`` must answer for — numeric tallies as
    the sum over ``per_device`` — so a tally added to the executor
    cannot be left out of the sharded view."""
    plan = FaultPlan(seed=1, specs=(
        FaultSpec("transfer_error", site="scheduler.wave", at=(0, 2)),
    ))
    _results, stats = run_sharded(
        MetadataWaveDriver(reference=workload.reference),
        workload.partitions, 1, devices=devices, workers=workers,
        fault_plan=plan, retry_policy=RetryPolicy(backoff_base=0.001),
    )
    assert stats.retries == 2 and stats.backoff_seconds > 0
    own = {spec.name for spec in dataclasses.fields(ShardedRunStats)}
    summed = []
    for spec in dataclasses.fields(ParallelRunStats):
        if spec.name in own or spec.name == "device":
            continue  # the run's own figure / a queue's identity
        queues = [getattr(queue, spec.name) for queue in stats.per_device]
        total = getattr(stats, spec.name)
        if spec.name == "faults_by_kind":
            assert total == dict(sum(map(Counter, queues), Counter()))
        elif spec.name == "per_worker":
            assert len(total) == sum(map(len, queues))
        else:
            assert isinstance(spec.default, (int, float)), spec.name
            assert total == sum(queues), spec.name
            summed.append(spec.name)
    assert {"spm_load_cycles", "total_flits", "retries"} <= set(summed)
    for derived in ("waves", "total_cycles", "faults_injected"):
        assert getattr(stats, derived) == sum(
            getattr(queue, derived) for queue in stats.per_device
        ), derived
    assert stats.faults_injected == 2


# -- a real hang ---------------------------------------------------------------------


def test_sharded_bit_identical_under_timeout(workload, metadata_serial):
    serial_res, serial_stats = metadata_serial
    driver = MetadataWaveDriver(reference=workload.reference)
    plan = FaultPlan(
        seed=11, specs=(FaultSpec("wave_timeout", at=(0,)),)
    )
    sharded_res, stats = run_sharded(
        driver, workload.partitions, 2, devices=2, workers=1,
        fault_plan=plan, wave_timeout=0.75,
    )
    assert stats.faults_injected == 1
    assert stats.watchdog_timeouts >= 1
    assert_same_cycles(serial_stats, stats)
    assert_stage_identical("metadata", sharded_res, serial_res)


# -- work stealing ------------------------------------------------------------------


def test_range_policy_forces_a_steal(workload, metadata_serial):
    """The range policy front-loads the LPT order onto low devices, so
    the steal loop must engage — and results stay bit-identical."""
    serial_res, serial_stats = metadata_serial
    plan = plan_shards(workload.partitions, 2, devices=2, policy="range")
    assert plan.steals, "expected the range layout to trigger stealing"
    driver = MetadataWaveDriver(reference=workload.reference)
    sharded_res, stats = run_sharded(
        driver, workload.partitions, 2, devices=2, workers=1, policy="range"
    )
    assert stats.steal_count == len(plan.steals)
    for steal in stats.steals:
        assert stats.per_device[steal.target].steals_in >= 1
        assert stats.per_device[steal.source].steals_out >= 1
    assert_same_cycles(serial_stats, stats)
    assert_stage_identical("metadata", sharded_res, serial_res)


def test_steal_strictly_improves_makespan(workload):
    stolen = plan_shards(workload.partitions, 2, devices=2, policy="range")
    unstolen = plan_shards(
        workload.partitions, 2, devices=2, policy="range", steal=False
    )
    assert not unstolen.steals
    assert max(stolen.loads()) < max(unstolen.loads())
    assert sum(stolen.loads()) == sum(unstolen.loads())


# -- the shard planner --------------------------------------------------------------


def test_plan_shards_is_deterministic(workload):
    first = plan_shards(workload.partitions, 2, devices=3)
    second = plan_shards(workload.partitions, 2, devices=3)
    assert [w.device for w in first.waves] == [w.device for w in second.waves]
    assert first.steals == second.steals
    for device in range(3):
        assert first.device_waves(device) == second.device_waves(device)


def test_plan_shards_preserves_global_packing(workload):
    """Sharding must never re-pack: every wave's composition is exactly
    the serial LPT packing's."""
    empty_pids, packed = pack_waves(workload.partitions, 2)
    plan = plan_shards(workload.partitions, 2, devices=4)
    assert plan.empty_pids == empty_pids
    assert len(plan.waves) == len(packed)
    for wave, packed_wave in zip(plan.waves, packed):
        assert [pid for pid, _p in wave.items] == [pid for pid, _p in packed_wave]


def test_plan_shards_queue_order_and_hash_homes(workload):
    plan = plan_shards(workload.partitions, 2, devices=2, steal=False)
    for device in range(2):
        queue = [wave.global_index for wave in plan.device_waves(device)]
        assert queue == sorted(queue)  # global order within a queue
    for wave in plan.waves:
        assert wave.device == wave.home_device  # steal=False: nothing moved
        assert wave.home_device == stable_shard_hash(wave.items[0][0]) % 2


def test_plan_shards_rejects_bad_arguments(workload):
    with pytest.raises(ValueError, match="at least one device"):
        plan_shards(workload.partitions, 2, devices=0)
    with pytest.raises(ValueError, match="unknown shard policy"):
        plan_shards(workload.partitions, 2, devices=2, policy="striped")


def test_stable_shard_hash_is_value_based(workload):
    """The shard hash must depend only on the partition id's *value*
    (CRC32 of its rendered form), never on object identity or Python's
    per-process hash salt."""
    import zlib

    pid = next(iter(workload.partitions))[0]
    clone = type(pid)(pid.chrom, pid.segment, pid.read_group)
    assert clone is not pid
    assert stable_shard_hash(clone) == stable_shard_hash(pid)
    assert stable_shard_hash(pid) == zlib.crc32(str(pid).encode("utf-8"))


# -- per-device SPM caches ----------------------------------------------------------


def test_shared_cache_seeds_every_device(workload):
    """A warm shared cache reaches every device queue: the second
    sharded run re-simulates nothing, anywhere."""
    driver = MetadataWaveDriver(reference=workload.reference)
    cache = SpmImageCache()
    _cold, cold_stats = run_sharded(
        driver, workload.partitions, 2, devices=2, workers=1, spm_cache=cache
    )
    assert cold_stats.spm_cache_misses > 0
    warm_res, warm_stats = run_sharded(
        driver, workload.partitions, 2, devices=2, workers=1, spm_cache=cache
    )
    assert warm_stats.spm_cache_misses == 0
    assert warm_stats.spm_cache_hits > 0
    assert warm_stats.spm_cycles_saved > 0
    assert_same_cycles(cold_stats, warm_stats)
    for pid in warm_res:
        assert warm_res[pid].nm is not None


def test_device_caches_absorb_into_shared(workload):
    """After a sharded run the shared cache holds every device's images
    (a later serial run replays them all)."""
    driver = MetadataWaveDriver(reference=workload.reference)
    cache = SpmImageCache()
    run_sharded(
        driver, workload.partitions, 2, devices=4, workers=1, spm_cache=cache
    )
    _res, serial_stats = run_sharded(
        driver, workload.partitions, 2, spm_cache=cache
    )
    assert serial_stats.spm_cache_misses == 0


# -- sharded stats surface ----------------------------------------------------------


def test_sharded_stats_views(workload):
    driver = MetadataWaveDriver(reference=workload.reference)
    _res, stats = run_sharded(
        driver, workload.partitions, 2, devices=2, workers=1
    )
    assert stats.devices == 2
    utilization = stats.device_utilization()
    assert len(utilization) == 2
    assert max(utilization) == pytest.approx(1.0)
    assert all(0.0 <= u <= 1.0 for u in utilization)
    assert len(stats.plan_loads) == 2
    assert len(stats.device_busy_seconds) == 2
    assert len(stats.device_transfer_seconds) == 2
    assert all(b > 0 for b in stats.device_busy_seconds if b)
    assert stats.elapsed_seconds > 0
    assert stats.host_parallelism > 0
    # per-worker tallies are namespaced by device
    assert all(key.startswith("d") for key in stats.per_worker)


def test_run_sharded_rejects_zero_devices(workload):
    driver = MetadataWaveDriver(reference=workload.reference)
    with pytest.raises(ValueError, match="at least one device"):
        run_sharded(driver, workload.partitions, 2, devices=0)


# -- deterministic BQSR reduction ---------------------------------------------------


def test_reduce_bqsr_matches_serial_reduction(workload, bqsr_serial):
    """Reducing per-device BQSR shards gives the exact covariate tables
    the serial reduction gives — whichever devices the partitions ran
    on, the per-read-group sums are the same integers."""
    serial_res, _stats = bqsr_serial
    driver = BqsrWaveDriver(
        reference=workload.reference, read_length=workload.read_length
    )
    sharded_res, _sharded = run_sharded(
        driver, workload.group_partitions, 4, devices=4, workers=1
    )
    serial_tables = reduce_bqsr_results(serial_res, workload.read_length)
    sharded_tables = reduce_bqsr_results(sharded_res, workload.read_length)
    assert set(sharded_tables) == set(serial_tables)
    assert len(serial_tables) > 1, "need multiple read groups to reduce"
    for group in serial_tables:
        a, b = serial_tables[group], sharded_tables[group]
        for field in BQSR_FIELDS:
            assert np.array_equal(getattr(a, field), getattr(b, field)), (
                group, field,
            )
