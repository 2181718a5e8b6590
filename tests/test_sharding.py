"""Tests for multi-device sharding (repro.accel.sharding).

That a sharded run is bit-identical to the serial one — results and
modelled cycles, at every ``(devices, workers)``, faulted, filtered — is
``tests/test_lattice.py``'s to draw; the stage x devices x workers grid
and its faulted row are named points of it here, and each multi-device
point also holds the run's placement to a lone served job's and its
busiest card to the list-scheduling bound (``check_direct``).  Also:
placement follows solving, the global packing, per-card SPM caches
(whose tallies do not depend on ``workers``), the sharded stats view,
the BQSR reduction, the one topology CI smokes by name, and the hang
only a real watchdog can reap.  Host-side cache hit/miss counts depend
on the card count (locality depends on which card a wave lands on); the
*modelled* SPM load cycles charge the same either way.
"""

import dataclasses
import os

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
    assert pids[0] and os.getpid() not in pids[0] | pids[1]
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
        if spec.name == "per_worker":
            assert len(total) == sum(map(len, queues))
        else:
            assert isinstance(spec.default, (int, float)), spec.name
            assert total == sum(queues), spec.name
            summed.append(spec.name)
    assert {"spm_load_cycles", "total_flits", "spm_cache_hits"} <= set(summed)
    for derived in ("waves", "total_cycles"):
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


# -- placement follows solving ------------------------------------------------------

#: One fault plan that exhausts no budget: two waves crash once each.
PLACED_FAULTS = (fault("worker_crash", WAVE_FAULT_SITE, 1, 2),)


@pytest.mark.parametrize("faults", [(), PLACED_FAULTS], ids=["clean", "faulted"])
@pytest.mark.parametrize("storage", [False, True], ids=["raw", "filtered"])
@pytest.mark.parametrize("devices", (2, 3))
@pytest.mark.parametrize("stage,pipelines", [("metadata", 1), ("bqsr", 4)])
def test_a_direct_run_is_placed_as_a_lone_served_job(
    stage, pipelines, devices, storage, faults
):
    """Each solved wave goes to the card that frees first: every wave's
    card, start, end, transfer and penalty equal those of the same waves
    submitted as one job at cycle 0 to a ``JobService`` of as many cards
    (``check_direct`` compares them), and the busiest card ends within
    the list-scheduling bound."""
    stats = check_direct(Config(
        stage, pipelines=pipelines, devices=devices, storage=storage,
        faults=faults,
    ))
    assert stats.waves > devices, "every card must take a second wave"


def test_plan_shards_preserves_global_packing(workload):
    """Sharding must never re-pack: the waves are exactly the serial
    LPT packing's."""
    assert plan_shards(workload.partitions, 2, devices=4) == pack_waves(
        workload.partitions, 2
    )


def test_plan_shards_rejects_bad_arguments(workload):
    with pytest.raises(ValueError, match="at least one device"):
        plan_shards(workload.partitions, 2, devices=0)


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


@pytest.mark.parametrize("devices", (2, 3))
def test_spm_tallies_do_not_depend_on_workers(workload, devices):
    """A wave's loads are tallied on its card's cache once it is placed,
    so hits, misses and cycles saved are the same inline and pooled."""
    driver = BqsrWaveDriver(
        reference=workload.reference, read_length=workload.read_length
    )
    tallies = []
    for workers in (1, 2):
        _res, stats = run_sharded(
            driver, workload.group_partitions, 2, devices=devices,
            workers=workers,
        )
        tallies.append([
            (card.spm_cache_hits, card.spm_cache_misses,
             card.spm_cycles_saved)
            for card in stats.per_device
        ])
    assert tallies[0] == tallies[1]
    assert sum(hits for hits, _misses, _saved in tallies[0]) > 0


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
    assert sum(stats.plan_loads) == sum(
        part.num_rows for _pid, part in workload.partitions
    )
    assert stats.steal_count == 0
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
