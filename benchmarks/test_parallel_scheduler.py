"""Host scheduler throughput: multi-core wave fan-out.

Not a paper figure — this benchmark measures the *host scheduler*.  A
32-partition metadata-update workload is run through
:func:`run_sharded` once serially (``workers=1``) and once fanned
out over a 4-process pool (``workers=4``); with one pipeline per wave
every partition is its own wave, so the pool is the only source of
host-side concurrency.  The fanned-out run must finish the batch in at
most half the serial host wall-clock (gated only where >= 4 cores
exist), while staying bit-identical in simulated cycles and outputs.
A second pass over the same partitions through a shared
:class:`SpmImageCache` must hit on every reference row (>= 1 hit per
re-used partition, zero misses) — that part runs on any machine.
"""

import os

import pytest

from repro.accel import MetadataWaveDriver
from repro.accel.scheduler import SpmImageCache
from repro.accel.sharding import run_sharded
from repro.eval.workloads import make_workload

N_PARTITIONS = 32
WORKERS = 4
SPEEDUP_GATE = 2.0


def _scheduler_workload():
    # 69 non-empty partitions at this scale; keep the first 32 by input
    # order so the benchmark workload is exactly the issue's shape.
    workload = make_workload(
        n_reads=320,
        read_length=80,
        genome_scale=4.5e-5,
        psize=2000,
        seed=2021,
    )
    parts = [(pid, part) for pid, part in workload.partitions if part.num_rows]
    assert len(parts) >= N_PARTITIONS
    return workload, parts[:N_PARTITIONS]


def _assert_identical(serial_res, serial_stats, other_res, other_stats):
    assert other_stats.total_cycles == serial_stats.total_cycles
    assert other_stats.per_wave_cycles == serial_stats.per_wave_cycles
    assert other_stats.spm_load_cycles == serial_stats.spm_load_cycles
    assert other_stats.total_flits == serial_stats.total_flits
    assert set(other_res) == set(serial_res)
    for pid, serial in serial_res.items():
        assert other_res[pid].nm == serial.nm, str(pid)
        assert other_res[pid].md == serial.md, str(pid)
        assert other_res[pid].uq == serial.uq, str(pid)


def test_spm_cache_replays_reused_partitions(report):
    """Acceptance: a re-run over the same partitions through a shared
    cache shows >= 1 hit per re-used partition and zero misses."""
    workload, parts = _scheduler_workload()
    driver = MetadataWaveDriver(reference=workload.reference)
    cache = SpmImageCache()
    cold_res, cold = run_sharded(driver, parts, 4, spm_cache=cache)
    warm_res, warm = run_sharded(driver, parts, 4, spm_cache=cache)

    assert cold.spm_cache_misses == N_PARTITIONS
    assert warm.spm_cache_misses == 0
    assert warm.spm_cache_hits >= N_PARTITIONS
    assert warm.spm_cycles_saved > 0
    _assert_identical(cold_res, cold, warm_res, warm)

    report("Host scheduler - SPM image cache (32 partitions)", [
        f"cold: {cold.spm_cache_misses} misses, "
        f"{cold.spm_load_cycles} load cycles simulated",
        f"warm: {warm.spm_cache_hits} hits / {warm.spm_cache_misses} misses, "
        f"{warm.spm_cycles_saved} simulated load cycles saved by the cache",
    ])


@pytest.mark.skipif(
    (os.cpu_count() or 1) < WORKERS,
    reason=f"speedup gate needs >= {WORKERS} cores",
)
def test_worker_fanout_speedup(benchmark, report):
    workload, parts = _scheduler_workload()
    driver = MetadataWaveDriver(reference=workload.reference)

    # Best-of-N on both sides so host scheduler-noise outliers don't
    # decide the comparison.  Fresh private caches in both runs: SPM
    # loading is part of the work being fanned out.
    serial_runs = [
        run_sharded(driver, parts, 1, workers=1) for _ in range(2)
    ]
    serial_res, serial_stats = min(
        serial_runs, key=lambda run: run[1].elapsed_seconds
    )

    pool_runs = []

    def run_pool():
        pool_runs.append(run_sharded(driver, parts, 1, workers=WORKERS))

    benchmark.pedantic(run_pool, rounds=3, iterations=1)
    pool_res, pool_stats = min(pool_runs, key=lambda run: run[1].elapsed_seconds)

    assert serial_stats.waves == N_PARTITIONS
    assert pool_stats.workers == WORKERS
    _assert_identical(serial_res, serial_stats, pool_res, pool_stats)

    speedup = serial_stats.elapsed_seconds / pool_stats.elapsed_seconds
    assert speedup >= SPEEDUP_GATE, (
        f"workers={WORKERS} only {speedup:.2f}x the serial scheduler "
        f"on the {N_PARTITIONS}-partition metadata workload"
    )

    benchmark.extra_info.update(
        serial_seconds=round(serial_stats.elapsed_seconds, 4),
        pool_seconds=round(pool_stats.elapsed_seconds, 4),
        host_speedup=round(speedup, 3),
        host_parallelism=round(pool_stats.host_parallelism, 3),
        simulated_cycles=pool_stats.total_cycles,
        waves=pool_stats.waves,
    )

    report(f"Host scheduler - wave fan-out ({N_PARTITIONS} partitions)", [
        f"workers=1: {serial_stats.elapsed_seconds:.2f}s host wall-clock",
        f"workers={WORKERS}: {pool_stats.elapsed_seconds:.2f}s "
        f"(speedup {speedup:.2f}x, parallelism "
        f"{pool_stats.host_parallelism:.2f}x); "
        f"simulated cycles identical ({pool_stats.total_cycles})",
    ])
