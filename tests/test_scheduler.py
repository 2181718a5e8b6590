"""Tests for the host partition scheduler (repro.accel.scheduler).

That ``workers=N`` runs are bit-identical — per-partition outputs AND
simulated cycle accounting — to the ``workers=1`` serial schedule is
``tests/test_lattice.py``'s to draw; one ``workers=4`` point per stage is
named here.  Also: the executor's mixed-stage
rounds, the stand-alone per-partition drivers, empty partitions, the
SPM image cache, wave packing and the kept pool's lifecycle.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from hw_harness import (
    assert_same_cycles,
    assert_same_modelled,
    assert_stage_identical,
    engine_modes,
)
from repro.accel.markdup import run_quality_sums
from repro.accel.metadata import run_metadata_update
from repro.accel import BqsrWaveDriver, MarkdupWaveDriver, MetadataWaveDriver
from repro.accel import scheduler
from repro.accel.common import load_reference_spm
from repro.accel.scheduler import (
    SpmImageCache,
    WaveTask,
    pack_waves,
    run_waves,
)
from repro.accel.sharding import run_sharded
from repro.accel.stages import STAGES
from repro.eval.workloads import make_workload
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.obs.ledger import RunLedger, RunManifest, run_context
from repro.serve import JobService, JobSpec
from repro.tables.partition import PartitionId
from test_lattice import Config, check_direct


@pytest.fixture(scope="module")
def sched_workload():
    """Enough partitions for multi-wave, multi-worker schedules."""
    return make_workload(
        n_reads=120,
        read_length=60,
        chromosomes=(20, 21),
        genome_scale=4.5e-5,
        psize=1000,
        seed=105,
    )


# -- named lattice points: workers=N vs the serial schedule -------------------------


def test_metadata_workers_bit_identical():
    stats = check_direct(Config("metadata", workers=4))
    assert stats.waves > 1, "need a multi-wave schedule to compare"


def test_markdup_workers_bit_identical():
    check_direct(Config("markdup", pipelines=1, workers=4))


def test_bqsr_workers_bit_identical():
    check_direct(Config("bqsr", pipelines=4, workers=4))


@dataclass
class _LingeringMetadataDriver(MetadataWaveDriver):
    """Its first wave to reach a pool worker lingers there, so a crash
    elsewhere in the pool is sure to catch it in flight."""

    parent_pid: int = 0
    marker: str = ""

    def run_wave(self, wave):
        if os.getpid() != self.parent_pid and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            time.sleep(0.5)
        return super().run_wave(wave)


@pytest.mark.parametrize("plan", [
    None,
    FaultPlan(specs=(FaultSpec("worker_crash", at=(1,)),)),
], ids=["clean", "crash_on_second"])
def test_mixed_stage_tasks_inline_equals_pooled(
    sched_workload, tmp_path, monkeypatch, plan
):
    """``run_sharded`` hands :func:`run_waves` one driver; a served round
    mixes stages.  A metadata and a BQSR task come out the same inline
    and on a pool of 2 — outcomes, cycles, ``fault.*`` events, the
    attempts retried and the wave charged them — and the crash's
    innocent bystander goes back to the pool at the attempt it was on."""
    submitted = []
    pool_submit = ProcessPoolExecutor.submit

    def spy(self, fn, *args):
        submitted.append((args[1], args[-1]))  # (wave index, attempt)
        return pool_submit(self, fn, *args)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
    _empty, metadata_waves = pack_waves(sched_workload.partitions, 2)
    _empty, bqsr_waves = pack_waves(sched_workload.group_partitions, 2)

    def drive(fan_out):
        tasks = [
            WaveTask(0, _LingeringMetadataDriver(
                reference=sched_workload.reference, parent_pid=os.getpid(),
                marker=str(tmp_path / f"lingered{fan_out}"),
            ), metadata_waves[0]),
            WaveTask(1, BqsrWaveDriver(
                reference=sched_workload.reference,
                read_length=sched_workload.read_length,
            ), bqsr_waves[0]),
        ]
        ledger = RunLedger(str(tmp_path / f"fan{fan_out}.jsonl"))
        with run_context(RunManifest(workload="mixed", config={}), ledger):
            injector = FaultInjector(plan) if plan is not None else None
            outcomes = {
                task.index: outcome
                for task, _worker, outcome in run_waves(tasks, fan_out, injector)
            }
        faults = sorted([
            (r["event"], r["stage"], r.get("wave", r.get("slot")),
             r["attempt"], r["kind"])
            for r in ledger.events("fault.")
            if r["event"] != "fault.pool_restart"  # the pool's alone
        ] + [
            ("retried", task.driver.stage, task.index, failed.attempt,
             failed.kind)
            for task in tasks for failed in task.retried
        ])
        return outcomes, faults, [len(task.retried) for task in tasks]

    inline, inline_faults, inline_retries = drive(1)
    assert submitted == []
    pooled, pooled_faults, pooled_retries = drive(2)
    assert pooled_faults == inline_faults
    assert pooled_retries == inline_retries == [0, 1 if plan else 0]
    assert len(inline_faults) == (2 if plan else 0)  # injected + retry
    assert sorted(submitted) == (
        [(0, 0), (0, 0), (1, 0), (1, 1)] if plan else [(0, 0), (1, 0)]
    )
    for index, stage in enumerate(("metadata", "bqsr")):
        assert pooled[index].stats.cycles == inline[index].stats.cycles
        assert pooled[index].load_cycles == inline[index].load_cycles
        assert_stage_identical(
            stage, pooled[index].results, inline[index].results
        )


# -- scheduler vs the stand-alone per-partition drivers ------------------------------


def test_metadata_matches_standalone_driver(sched_workload):
    driver = MetadataWaveDriver(reference=sched_workload.reference)
    results, _stats = run_sharded(driver, sched_workload.partitions, 4)
    for pid, part in sched_workload.partitions:
        if part.num_rows == 0:
            continue
        standalone = run_metadata_update(
            part, sched_workload.reference.lookup(pid)
        )
        assert results[pid].nm == standalone.nm, str(pid)
        assert results[pid].md == standalone.md, str(pid)
        assert results[pid].uq == standalone.uq, str(pid)


def test_markdup_matches_standalone_driver(sched_workload):
    driver = MarkdupWaveDriver()
    results, _stats = run_sharded(driver, sched_workload.partitions, 4)
    for pid, part in sched_workload.partitions:
        if part.num_rows == 0:
            continue
        standalone = run_quality_sums(part.column("QUAL"))
        assert results[pid].quality_sums == standalone.quality_sums, str(pid)


# -- empty partitions ----------------------------------------------------------------


def test_empty_partitions_get_empty_results(sched_workload):
    empty_pid = PartitionId(20, 999)
    empty_part = sched_workload.table.take([])
    parts = list(sched_workload.partitions) + [(empty_pid, empty_part)]
    driver = MetadataWaveDriver(reference=sched_workload.reference)
    for workers in (1, 2):
        results, stats = run_sharded(driver, parts, 2, workers=workers)
        assert empty_pid in results
        empty = results[empty_pid]
        assert empty.nm == [] and empty.md == [] and empty.uq == []
        assert empty.run is None
        # the empty partition never consumed a pipeline slot
        assert stats.waves == (len(parts) - 1 + 1) // 2


def test_empty_partition_never_hits_reference():
    """Empty partitions must not trigger a reference lookup (their pid
    may have no REF row at all)."""
    workload = make_workload(
        n_reads=20, read_length=40, chromosomes=(21,),
        genome_scale=1.2e-6, psize=2500, seed=9,
    )
    bogus = PartitionId(99, 12345)  # no REF partition exists for this
    parts = list(workload.partitions) + [(bogus, workload.table.take([]))]
    driver = MetadataWaveDriver(reference=workload.reference)
    results, _stats = run_sharded(driver, parts, 2)
    assert results[bogus].nm == []


# -- SPM image cache -----------------------------------------------------------------


def test_spm_cache_replay_bit_identical(sched_workload):
    driver = MetadataWaveDriver(reference=sched_workload.reference)
    cache = SpmImageCache()
    cold_res, cold_stats = run_sharded(
        driver, sched_workload.partitions, 2, spm_cache=cache
    )
    assert cold_stats.spm_cache_hits == 0
    assert cold_stats.spm_cache_misses > 0
    warm_res, warm_stats = run_sharded(
        driver, sched_workload.partitions, 2, spm_cache=cache
    )
    # every re-used partition hits; nothing is re-simulated
    assert warm_stats.spm_cache_misses == 0
    assert warm_stats.spm_cache_hits == cold_stats.spm_cache_misses
    assert warm_stats.spm_cycles_saved > 0
    # and the replayed images leave results and cycles bit-identical
    assert_same_cycles(cold_stats, warm_stats)
    assert_stage_identical("metadata", warm_res, cold_res)


def test_spm_cache_seeds_worker_processes(sched_workload):
    """A warm parent cache must reach pool workers (no re-simulation in
    the fanned-out run either)."""
    driver = MetadataWaveDriver(reference=sched_workload.reference)
    cache = SpmImageCache()
    _cold, cold_stats = run_sharded(
        driver, sched_workload.partitions, 2, spm_cache=cache
    )
    warm_res, warm_stats = run_sharded(
        driver, sched_workload.partitions, 2, workers=2, spm_cache=cache
    )
    assert warm_stats.spm_cache_misses == 0
    assert warm_stats.spm_cache_hits == cold_stats.spm_cache_misses
    assert_same_cycles(cold_stats, warm_stats)
    for pid in warm_res:
        assert warm_res[pid].nm is not None


def test_spm_cache_shared_across_stages(sched_workload):
    """Metadata then BQSR: the with_snp images differ, but a second
    metadata-style pass (e.g. another stage on the same partitions)
    replays every image."""
    cache = SpmImageCache()
    metadata = MetadataWaveDriver(reference=sched_workload.reference)
    _res, first = run_sharded(
        metadata, sched_workload.partitions, 4, spm_cache=cache
    )
    bqsr = BqsrWaveDriver(
        reference=sched_workload.reference,
        read_length=sched_workload.read_length,
        drain=False,
    )
    _res2, second = run_sharded(
        bqsr, sched_workload.group_partitions, 4, spm_cache=cache
    )
    # BQSR's (base, is_snp) images are distinct entries, but read-group
    # slices of one segment share an image within the run.
    assert second.spm_cache_misses <= len(
        {(pid.chrom, pid.segment) for pid, p in sched_workload.group_partitions}
    )
    _res3, third = run_sharded(
        metadata, sched_workload.partitions, 4, spm_cache=cache
    )
    assert third.spm_cache_misses == 0
    assert third.spm_cache_hits == first.spm_cache_misses


def test_bqsr_read_group_slices_share_images(sched_workload):
    segments = {}
    for pid, part in sched_workload.group_partitions:
        if part.num_rows:
            segments.setdefault((pid.chrom, pid.segment), 0)
            segments[(pid.chrom, pid.segment)] += 1
    if max(segments.values(), default=0) < 2:
        pytest.skip("no segment with multiple read groups")
    driver = BqsrWaveDriver(
        reference=sched_workload.reference,
        read_length=sched_workload.read_length,
        drain=False,
    )
    _res, stats = run_sharded(driver, sched_workload.group_partitions, 8)
    assert stats.spm_cache_misses == len(segments)
    assert stats.spm_cache_hits == sum(segments.values()) - len(segments)


def test_a_solve_takes_nothing_from_its_caller(sched_workload, monkeypatch):
    """A wave solves the same inline and on a pool of 2, before and
    after the caller's cache holds its keys — results, cycles and each
    item's load cycles — and a pool task carries no SPM-cache state:
    the wave, its driver and the fault decision."""
    submitted = []
    pool_submit = ProcessPoolExecutor.submit

    def spy(self, fn, *args):
        submitted.append((fn, args))
        return pool_submit(self, fn, *args)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
    driver = BqsrWaveDriver(
        reference=sched_workload.reference,
        read_length=sched_workload.read_length,
    )
    _empty, waves = pack_waves(sched_workload.group_partitions, 2)
    cache = SpmImageCache()

    def solve(fan_out):
        tasks = [WaveTask(index, driver, waves[index]) for index in (0, 1)]
        return {
            task.index: outcome
            for task, _worker, outcome in run_waves(tasks, fan_out)
        }

    before = [solve(1), solve(2)]
    run_sharded(driver, sched_workload.group_partitions, 2, spm_cache=cache)
    keys = [key for wave in waves[:2] for key in driver.wave_keys(wave)]
    assert keys and set(keys) <= cache.keys()
    after = [solve(1), solve(2)]
    want = before[0]
    for got in before[1:] + after:
        for index, outcome in want.items():
            assert outcome.load_cycles and any(outcome.load_cycles)
            assert got[index].load_cycles == outcome.load_cycles
            assert_same_modelled(got[index].stats, outcome.stats)
            assert_stage_identical(
                "bqsr", got[index].results, outcome.results
            )
    assert len(submitted) == 4
    for fn, args in submitted:
        assert fn is scheduler._pool_task
        shipped, index, wave, *rest = args
        assert wave is waves[index] and shipped.stage == "bqsr"
        assert rest == [None, 0.0, 0]


def test_spm_cache_keeps_references_sharing_a_position_apart():
    """Two genomes (or one genome at another psize) can put different
    rows at the same (CHR, REFPOS): a shared cache must not answer one
    with the other's image."""
    zeros = {"CHR": 20, "REFPOS": 0, "SEQ": [0] * 100, "IS_SNP": [False] * 100}
    ones = {"CHR": 20, "REFPOS": 0, "SEQ": [1] * 50, "IS_SNP": [False] * 50}
    snps = {"CHR": 20, "REFPOS": 0, "SEQ": [1] * 50, "IS_SNP": [True] * 50}
    key = SpmImageCache.key
    cache = SpmImageCache()
    cache.tally([key(zeros), key(ones)], [100, 50])
    assert (cache.hits, cache.misses) == (0, 2)
    # same length, same bases, different SNP bitmap: apart only with_snp
    cache.tally([key(snps)], [50])
    assert (cache.hits, cache.misses, cache.cycles_saved) == (1, 2, 50)
    cache.tally([key(ones, with_snp=True), key(snps, with_snp=True)], [50, 50])
    assert (cache.hits, cache.misses) == (1, 4)
    # an equal row is the same key whatever container holds it
    cache.tally([key({**zeros, "SEQ": np.zeros(100, dtype=np.uint8)})], [100])
    assert (cache.hits, cache.misses, cache.cycles_saved) == (2, 4, 150)
    # and each row loads its own image
    assert load_reference_spm(zeros)[0].dump() == [0] * 100
    assert load_reference_spm(ones)[0].dump() == [1] * 50
    assert load_reference_spm(ones, with_snp=True)[0].dump() == [(1, False)] * 50
    assert load_reference_spm(snps, with_snp=True)[0].dump() == [(1, True)] * 50


def test_spm_cache_absorb_merges_images_and_counters(sched_workload):
    """absorb() is the cross-device merge: disjoint key sets union,
    and the per-pool hit/miss/cycles-saved history accumulates."""
    driver = MetadataWaveDriver(reference=sched_workload.reference)
    parts = list(sched_workload.partitions)
    half = len(parts) // 2
    assert half >= 1
    cache_a, cache_b = SpmImageCache(), SpmImageCache()
    run_sharded(driver, parts[:half], 2, spm_cache=cache_a)
    run_sharded(driver, parts[half:], 2, spm_cache=cache_b)
    keys_a, keys_b = cache_a.keys(), cache_b.keys()
    misses_a, misses_b = cache_a.misses, cache_b.misses
    cache_a.absorb(cache_b)
    assert cache_a.keys() == keys_a | keys_b
    assert cache_a.misses == misses_a + misses_b
    # the absorbed pool hits on both halves
    _res, stats = run_sharded(driver, parts, 2, spm_cache=cache_a)
    assert stats.spm_cache_misses == 0


def test_spm_cache_absorb_overlapping_keys_idempotent(sched_workload):
    """Two pools that cached the same partitions merge to the same key
    set, however often one is absorbed into the other."""
    driver = MetadataWaveDriver(reference=sched_workload.reference)
    cache_a, cache_b = SpmImageCache(), SpmImageCache()
    run_sharded(driver, sched_workload.partitions, 2, spm_cache=cache_a)
    run_sharded(driver, sched_workload.partitions, 2, spm_cache=cache_b)
    before = cache_a.keys()
    assert before and cache_b.keys() == before
    for _ in range(2):
        cache_a.absorb(cache_b)
        assert cache_a.keys() == before and len(cache_a) == len(before)


def test_spm_cache_absorb_counters_survive_merge(sched_workload):
    driver = MetadataWaveDriver(reference=sched_workload.reference)
    cache_a, cache_b = SpmImageCache(), SpmImageCache()
    run_sharded(driver, sched_workload.partitions, 2, spm_cache=cache_a)
    run_sharded(driver, sched_workload.partitions, 2, spm_cache=cache_b)
    run_sharded(driver, sched_workload.partitions, 2, spm_cache=cache_b)
    assert cache_b.hits > 0 and cache_b.cycles_saved > 0
    expected = (
        cache_a.hits + cache_b.hits,
        cache_a.misses + cache_b.misses,
        cache_a.cycles_saved + cache_b.cycles_saved,
    )
    cache_a.absorb(cache_b)
    assert (cache_a.hits, cache_a.misses, cache_a.cycles_saved) == expected


# -- wave packing --------------------------------------------------------------------


def test_pack_waves_largest_first(sched_workload):
    parts = list(sched_workload.partitions)
    empty, waves = pack_waves(parts, 2)
    sizes = [part.num_rows for wave in waves for _pid, part in wave]
    assert sizes == sorted(sizes, reverse=True)
    packed = {pid for wave in waves for pid, _part in wave}
    assert packed | set(empty) == {pid for pid, _part in parts}
    # deterministic: same input, same packing
    assert pack_waves(parts, 2)[1] == waves


def test_pack_waves_validates_pipelines(sched_workload):
    with pytest.raises(ValueError):
        pack_waves(list(sched_workload.partitions), 0)


def test_run_partitioned_validates_workers(sched_workload):
    driver = MarkdupWaveDriver()
    with pytest.raises(ValueError):
        run_sharded(driver, sched_workload.partitions, 1, workers=0)


def test_per_worker_breakdown_accounts_every_wave(sched_workload):
    driver = MetadataWaveDriver(reference=sched_workload.reference)
    _res, stats = run_sharded(
        driver, sched_workload.partitions, 1, workers=2
    )
    assert sum(w.waves for w in stats.per_worker.values()) == stats.waves
    assert sum(w.cycles for w in stats.per_worker.values()) == stats.total_cycles
    assert stats.workers == 2


# -- the kept pool: a process pays for its workers once ------------------------------


def _tasks(workload, n=4, mode=None):
    """``n`` one-replica metadata tasks in engine ``mode``, as
    ``run_sharded`` builds them."""
    driver = MetadataWaveDriver(reference=workload.reference, mode=mode)
    _empty, waves = pack_waves(workload.partitions, 1)
    assert len(waves) >= n
    return [WaveTask(i, driver, waves[i]) for i in range(n)]


def test_kept_pool_serves_the_next_run(sched_workload, pools_built, worker_pids):
    """Metadata then BQSR in one process — the three-stage preprocess —
    fork one pool between them."""
    metadata = MetadataWaveDriver(reference=sched_workload.reference)
    bqsr = BqsrWaveDriver(
        reference=sched_workload.reference,
        read_length=sched_workload.read_length,
    )
    run_sharded(metadata, sched_workload.partitions, 2, workers=2)
    first = set(worker_pids)
    run_sharded(bqsr, sched_workload.group_partitions, 2, workers=2)
    assert pools_built == [2]
    assert os.getpid() not in worker_pids
    assert len(first | set(worker_pids)) <= 2


def test_kept_pool_is_not_built_where_one_wave_runs_at_a_time(
    sched_workload, pools_built
):
    """``preprocess_serial``, ``serve_mixed`` and a one-wave stage run
    inline: nothing is forked for them and nothing kept."""
    driver = MetadataWaveDriver(reference=sched_workload.reference)
    run_sharded(driver, sched_workload.partitions, 2, devices=1, workers=1)
    run_sharded(driver, list(sched_workload.partitions)[:1], 2, workers=4)
    service = JobService(devices=2, workers=1)
    service.schedule(
        JobSpec("t", driver, sched_workload.partitions, 2), at_cycles=0
    )
    assert service.run().jobs_completed == 1
    assert scheduler.wave_pool(1, 8) is scheduler.wave_pool(8, 1) is None
    assert pools_built == []


def test_kept_pool_is_rebuilt_across_a_worker_crash(
    sched_workload, tmp_path, pools_built, worker_pids
):
    """A crash drops the pool it broke, as ever; the one rebuilt in its
    place ends the run clean and is the one kept."""
    driver = MetadataWaveDriver(reference=sched_workload.reference)
    clean, _stats = run_sharded(driver, sched_workload.partitions, 2)
    ledger = RunLedger(str(tmp_path / "crash.jsonl"))
    with run_context(RunManifest(workload="kept-pool", config={}), ledger):
        results, stats = run_sharded(
            driver, sched_workload.partitions, 2, workers=2,
            fault_plan=FaultPlan(specs=(FaultSpec("worker_crash", at=(0,)),)),
        )
    assert_stage_identical("metadata", results, clean)
    assert (stats.pool_restarts, stats.retries) == (1, 1)
    assert stats.serial_fallback_waves == 0
    assert [
        (r["event"], r.get("wave", r.get("slot")), r.get("restarts"))
        for r in ledger.events("fault.")
    ] == [
        ("fault.injected", 0, None), ("fault.pool_restart", None, 1),
        ("fault.retry", 0, None),
    ]
    assert pools_built == [2, 2]
    rebuilt = set(worker_pids)
    del worker_pids[:]
    run_sharded(driver, sched_workload.partitions, 2, workers=2)
    assert pools_built == [2, 2], "the rebuilt pool was kept"
    assert set(worker_pids) <= rebuilt


def test_kept_pool_is_dropped_after_a_watchdog_expiry(
    sched_workload, pools_built
):
    """A future the watchdog gave up on was never collected — its worker
    may still be on it — so that pool does not outlive the run."""
    driver = MetadataWaveDriver(reference=sched_workload.reference)
    clean, _stats = run_sharded(driver, sched_workload.partitions, 2)
    results, stats = run_sharded(
        driver, sched_workload.partitions, 2, workers=2,
        fault_plan=FaultPlan(specs=(FaultSpec("wave_timeout", at=(0,)),)),
        wave_timeout=0.5,
    )
    assert_stage_identical("metadata", results, clean)
    assert stats.watchdog_timeouts >= 1 and stats.pool_restarts == 0
    run_sharded(driver, sched_workload.partitions, 2, workers=2)
    assert pools_built == [2, 2]


def test_kept_pool_is_dropped_when_the_run_is_closed_midway(
    sched_workload, pools_built
):
    running = run_waves(_tasks(sched_workload), 2)
    next(running)
    running.close()  # three futures still in flight
    assert scheduler._kept is None
    finished = run_waves(_tasks(sched_workload), 2)
    assert len(list(finished)) == 4
    assert scheduler._kept is not None
    # closed with every future collected, the pool is as good as new
    drained = run_waves(_tasks(sched_workload), 2)
    for _ in range(4):
        next(drained)
    drained.close()
    assert scheduler._kept is not None
    assert pools_built == [2, 2]


def test_kept_pool_is_replaced_when_it_does_not_fit(sched_workload, pools_built):
    """Kept between ``min(workers, waves)`` and ``workers`` processes;
    outside that it is shut down and a pool of the asked size built."""
    def run(workers, n=4):
        assert len(list(run_waves(_tasks(sched_workload, n), workers))) == n

    run(3)
    run(3)
    assert pools_built == [3]
    run(2)  # no more than ``workers`` processes, ever
    assert pools_built == [3, 2]
    run(4, n=2)  # two waves need no more than the two kept
    run(1)  # inline: the kept pool is left alone
    run(2)
    assert pools_built == [3, 2]
    run(4)  # four waves in flight want four
    assert pools_built == [3, 2, 4]


def test_kept_pool_worker_follows_the_drivers_engine_mode(
    sched_workload, pools_built
):
    """The engine mode travels in the driver: a kept worker that solved
    ``maxplus`` waves solves a ``dense`` driver's waves dense, their SPM
    load phases too — pooled ≡ inline on every ``RunStats`` field but
    ``wall_seconds`` — and a default driver's after them ``maxplus``."""
    def outcomes(fan_out, mode=None):
        return {
            task.index: outcome
            for task, _worker, outcome in run_waves(
                _tasks(sched_workload, mode=mode), fan_out
            )
        }

    def modes(solved):
        return set().union(*(engine_modes(o.results) for o in solved.values()))

    assert modes(outcomes(2)) == {"maxplus"}
    pooled, inline = outcomes(2, "dense"), outcomes(1, "dense")
    assert modes(pooled) == modes(inline) == {"dense"}
    for index, want in inline.items():
        assert_same_modelled(pooled[index].stats, want.stats)
        assert pooled[index].load_cycles == want.load_cycles
        assert_stage_identical("metadata", pooled[index].results, want.results)
        for pid, result in want.results.items():
            got = pooled[index].results[pid].run
            assert_same_modelled(got.load_stats, result.run.load_stats)
    assert modes(outcomes(2)) == {"maxplus"}
    assert pools_built == [2]


@pytest.mark.parametrize("stage", ("metadata", "bqsr"))
def test_a_dense_driver_is_dense_throughout(stage):
    """With nothing global set, a driver built ``mode="dense"`` runs its
    wave, its SPM loads and (BQSR) its drains dense, inline and on a
    pool of two; a default driver in the same process still runs them
    all ``maxplus``."""
    wl = make_workload(n_reads=30, read_length=24, seed=3)
    row = STAGES[stage]
    for workers in (1, 2):
        results, stats = run_sharded(
            row.over(wl, mode="dense"), row.items(wl), 2, workers=workers,
        )
        assert stats.waves >= 2
        assert engine_modes(results) == {"dense"}
    results, _stats = run_sharded(row.over(wl), row.items(wl), 2, workers=2)
    assert engine_modes(results) == {"maxplus"}


def test_a_pool_task_carries_its_waves_reference_rows(
    sched_workload, monkeypatch
):
    """A worker unpickles a driver whose reference holds exactly its
    wave's REF rows, not the whole genome's — and solves the wave as
    inline execution does."""
    scheduler.drop_kept_pool()
    execute = scheduler.execute_wave

    def spy(driver, index, wave):
        outcome = execute(driver, index, wave)
        outcome.shipped_rows = len(driver.reference)
        outcome.shipped_all = all(pid in driver.reference for pid, _ in wave)
        return outcome

    monkeypatch.setattr(scheduler, "execute_wave", spy)
    driver = MetadataWaveDriver(reference=sched_workload.reference)
    _empty, waves = pack_waves(sched_workload.partitions, 2)
    assert len(waves) >= 2
    inline = {
        task.index: outcome for task, _worker, outcome in run_waves(
            [WaveTask(i, driver, wave) for i, wave in enumerate(waves)], 1,
        )
    }
    pooled = list(run_waves(
        [WaveTask(i, driver, wave) for i, wave in enumerate(waves)], 2,
    ))
    assert len(pooled) == len(waves)
    assert all(worker.startswith("w") for _task, worker, _o in pooled)
    assert len(sched_workload.reference) > max(len(wave) for wave in waves)
    for task, _worker, outcome in pooled:
        assert outcome.worker_pid != os.getpid()
        assert outcome.shipped_rows == len({
            (pid.chrom, pid.segment) for pid, _part in task.items
        })
        assert outcome.shipped_all
        want = inline[task.index]
        assert_same_modelled(outcome.stats, want.stats)
        assert outcome.load_cycles == want.load_cycles
        assert_stage_identical("metadata", outcome.results, want.results)
