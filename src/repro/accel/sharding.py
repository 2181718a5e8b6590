"""Multi-device sharding: N modelled cards, one bit-identical answer.

The partition-parallel scheduler (:mod:`repro.accel.scheduler`) drives
*one* simulated device, so total throughput is capped by one PCIe link
and one accelerator's pipelines — the ceiling the paper's scaling
analysis (Fig. 8/9) identifies.  This module adds the scale-out tier:
a :class:`~repro.runtime.device.DevicePool` of N cards, each solved
wave placed on the card that frees first, and a deterministic merge
stage that reassembles one answer from the per-card shards.

:func:`run_sharded` is the one front door of a direct run, whatever
the topology: pack → solve → place → merge (DESIGN.md §3.2), where
*solve* hands every wave to the one wave executor
(:func:`repro.accel.scheduler.run_waves`) and *place* charges each
solved wave to a card, and a one-device run is the same walk with one
card.  Why the answer cannot depend on the topology, in execution
order:

1. **Waves are packed globally, then placed whole.**  A wave's
   simulated cycles depend on its composition (the replicas share one
   memory system), so re-packing per device would change cycles the
   moment ``devices > 1``.  :func:`plan_shards` therefore runs the
   exact same :func:`~repro.accel.scheduler.pack_waves` a serial run
   uses and cards take *whole waves* — wave composition, and hence
   every simulated cycle count, is topology-invariant.
2. **Placement follows solving.**  A wave is solved before it has a
   card; then, in global wave order, each is charged to the card whose
   timeline frees first (:meth:`~repro.runtime.device.DevicePool.
   first_free`, lowest index on ties) — a pure function of the solved
   waves' modelled cycles, never of host timing, and for a lone job at
   cycle 0 the order in which the job service hands out waves.  A
   solve takes nothing from the caller's SPM cache; a wave's loads are
   tallied on its card's cache once it is placed, so the tallies do not
   depend on ``workers``.
3. **A wave keeps its global index wherever it runs.**  One fault
   injector is polled by that index, so a fault planned for wave ``g``
   fires on wave ``g`` on every topology, with the same retry backoff;
   the ledger's ``scheduler.wave``, ``storage.wave`` and ``fault.*``
   events all name it the same way.
4. **The merge is canonical.**  Results are re-keyed in input partition
   order, cards are charged in global wave order, per-card SPM caches
   are absorbed into the shared cache in device order, and BQSR
   covariate tables reduce per read group in canonical key order — the
   same answer regardless of which wave finished first.

Net: for every ``(devices, workers)`` combination, with or without
injected faults, a sharded run is bit-identical to the serial one in
both results and simulated cycles; only host-side wall-clock metrics
differ.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..faults.injector import FaultInjector, RetryBudgetExceeded
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..gatk.bqsr import CovariateTables
from ..obs.ledger import record_event
from ..obs.log import get_logger
from ..runtime.device import DeviceConfig, DevicePool, WaveStorage
from ..tables.partition import PartitionId
from .bqsr import merge_partition_results
from .scheduler import (
    ParallelRunStats,
    RunRates,
    SpmImageCache,
    WaveDriver,
    WaveItem,
    WaveTask,
    WorkerStats,
    pack_waves,
    run_waves,
)

_log = get_logger("sharding")


def plan_shards(
    partitions: Iterable[WaveItem], n_pipelines: int, devices: int
) -> Tuple[List[PartitionId], List[List[WaveItem]]]:
    """Pack a run for ``devices`` cards: the empty pids and the global
    :func:`~repro.accel.scheduler.pack_waves` waves a serial run packs
    (see the module determinism argument).  No wave has a card yet —
    :func:`run_sharded` places each once it is solved."""
    if devices < 1:
        raise ValueError("need at least one device")
    return pack_waves(partitions, n_pipelines)


#: What a sharded run reports as the sum over its device queues: every
#: numeric tally ``ParallelRunStats`` declares, read off the dataclass so
#: one added there is summed here.  (``workers`` and ``elapsed_seconds``
#: never get this far — they are ``ShardedRunStats``'s own fields.)
ADDITIVE_FIELDS = frozenset(
    spec.name for spec in fields(ParallelRunStats)
    if isinstance(spec.default, (int, float))
)


@dataclass
class ShardedRunStats(RunRates):
    """Aggregate statistics of a sharded run: per-card scheduler stats
    plus the pool's virtual occupancy.

    Every additive :class:`~repro.accel.scheduler.ParallelRunStats`
    tally (:data:`ADDITIVE_FIELDS` — ``spm_load_cycles``,
    ``total_flits``, ``wall_seconds``, ``spm_cache_hits``, ``retries``,
    ``pool_restarts``, …) reads here as the sum over :attr:`per_device`.
    The simulated-cycle aggregates (:attr:`total_cycles`,
    :attr:`per_wave_cycles`, …) are in global wave order and equal the
    serial run's bit-for-bit; only the host-side fields (elapsed
    seconds, parallelism) reflect the actual fan-out.
    """

    devices: int
    #: Host fan-out per card actually used (the most any card used).
    workers: int
    per_device: List[ParallelRunStats]
    #: Partition rows each card was given.
    plan_loads: List[int]
    #: Simulated cycles per wave in global (serial) order.
    per_wave_cycles: List[int]
    #: Virtual accelerator occupancy per card, from the DevicePool.
    device_busy_seconds: List[float] = field(default_factory=list)
    #: Virtual PCIe occupancy per card, from the DevicePool.
    device_transfer_seconds: List[float] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def __getattr__(self, name: str):
        if name in ADDITIVE_FIELDS:
            return sum(getattr(stats, name) for stats in self.per_device)
        raise AttributeError(name)

    @property
    def per_worker(self) -> Dict[str, WorkerStats]:
        """Per-worker tallies across devices, keyed ``d<device>/<worker>``."""
        merged: Dict[str, WorkerStats] = {}
        for stats in self.per_device:
            for worker, tally in stats.per_worker.items():
                merged[f"d{stats.device}/{worker}"] = tally
        return merged

    @property
    def faults_by_kind(self) -> Dict[str, int]:
        merged: Counter = Counter()
        for stats in self.per_device:
            merged.update(stats.faults_by_kind)
        return dict(merged)

    @property
    def steal_count(self) -> int:
        """Always 0: a solved wave goes to the card that frees first, so
        nothing is planned and nothing stolen (the ``accel.steals``
        benchmark figure still reads it)."""
        return 0

    def device_utilization(self) -> List[float]:
        """Each card's simulated-cycle share of the busiest card's
        (1.0 for the busiest device)."""
        cycles = [stats.total_cycles for stats in self.per_device]
        peak = max(cycles) if cycles else 0
        if peak <= 0:
            return [0.0 for _ in cycles]
        return [c / peak for c in cycles]


def reduce_bqsr_results(
    results: Dict[PartitionId, object], read_length: int
) -> Dict[int, CovariateTables]:
    """Deterministic cross-device BQSR reduction: group the (already
    canonically ordered) per-partition results by read group and
    accumulate one :class:`~repro.gatk.bqsr.CovariateTables` per group.
    Covariate accumulation is integer addition, so any grouping of the
    same partitions reduces to the same tables — this helper fixes the
    order anyway so the reduction is reproducible byte-for-byte."""
    by_group: Dict[int, List[object]] = {}
    for pid in sorted(results, key=lambda p: (p.read_group, p.chrom, p.segment)):
        by_group.setdefault(pid.read_group, []).append(results[pid])
    return merge_partition_results(by_group, read_length)


def record_storage_wave(
    storage: WaveStorage,
    items: Sequence[WaveItem],
    emit: Callable[..., None] = record_event,
    **labels: object,
) -> Dict[str, object]:
    """The one ``storage.wave`` writer: what the in-SSD filter did for
    one wave (raw and survivor bytes, pruned rows, scan time), emitted
    under the caller's ``labels`` and returned for totals."""
    fields = dict(
        raw_nbytes=storage.wave_raw_nbytes(items),
        nbytes=storage.wave_nbytes(items),
        pruned_rows=storage.wave_pruned_rows(items),
        scan_seconds=storage.wave_scan_seconds(items),
    )
    emit("storage.wave", **labels, **fields)
    return fields


def record_storage_run(
    storage: WaveStorage,
    config: DeviceConfig,
    totals: Dict[str, object],
    kernel_seconds: float,
    transfer_seconds: float,
    **labels: object,
) -> None:
    """The one ``storage.run`` writer — the summary ``repro analyze
    --storage`` sweeps (DESIGN.md §3.10).  ``totals`` carries the
    :func:`record_storage_wave` fields summed over whatever the caller
    is summarizing (a run's waves, a served plan)."""
    record_event(
        "storage.run",
        **labels,
        filtered_fraction=storage.filtered_fraction,
        raw_nbytes=totals["raw_nbytes"], survivor_nbytes=totals["nbytes"],
        saved_nbytes=totals["raw_nbytes"] - totals["nbytes"],
        pruned_rows=totals["pruned_rows"],
        scan_seconds=totals["scan_seconds"],
        kernel_seconds=kernel_seconds,
        transfer_seconds=transfer_seconds,
        internal_bandwidth=storage.internal_bandwidth,
        pcie_bandwidth=config.pcie_bandwidth,
        compression_ratio=storage.compression_ratio,
    )


def _record_shard_run(
    driver: WaveDriver, stats: ShardedRunStats, pipelines: int
) -> None:
    """Ledger the sharded run: one ``shard.device`` summary per card
    plus the ``shard.run`` summary ``repro analyze --sharding`` reads."""
    utilization = stats.device_utilization()
    for device, card in enumerate(stats.per_device):
        record_event(
            "shard.device",
            stage=driver.stage, device=device, waves=card.waves,
            workers=card.workers, pipelines=pipelines,
            cycles=card.total_cycles, spm_load_cycles=card.spm_load_cycles,
            spm_cache_hits=card.spm_cache_hits,
            spm_cache_misses=card.spm_cache_misses,
            faults_injected=card.faults_injected, retries=card.retries,
            watchdog_timeouts=card.watchdog_timeouts,
            serial_fallback_waves=card.serial_fallback_waves,
            pool_restarts=card.pool_restarts,
            busy_seconds=stats.device_busy_seconds[device],
            transfer_seconds=stats.device_transfer_seconds[device],
            elapsed_seconds=card.elapsed_seconds,
            utilization=utilization[device],
        )
    record_event(
        "shard.run",
        stage=driver.stage, devices=stats.devices, workers=stats.workers,
        waves=stats.waves, total_cycles=stats.total_cycles,
        spm_load_cycles=stats.spm_load_cycles,
        per_wave_cycles=list(stats.per_wave_cycles),
        plan_loads=list(stats.plan_loads),
        elapsed_seconds=stats.elapsed_seconds,
        host_parallelism=stats.host_parallelism,
        faults_injected=stats.faults_injected,
    )


def run_sharded(
    driver: WaveDriver,
    partitions: Iterable[WaveItem],
    n_pipelines: int,
    devices: int = 1,
    workers: int = 1,
    spm_cache: Optional[SpmImageCache] = None,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    wave_timeout: Optional[float] = None,
    storage: Optional[WaveStorage] = None,
) -> Tuple[Dict[PartitionId, object], ShardedRunStats]:
    """Run an accelerator stage sharded over ``devices`` modelled cards
    on a pool of ``devices × workers`` host processes — the one front
    door of a direct run.

    One walk for every topology: :func:`plan_shards` packs the waves;
    :func:`~repro.accel.scheduler.run_waves` solves them all, one
    :class:`~repro.accel.scheduler.WaveTask` per wave — one loop, one
    process pool, one fault injector over ``fault_plan`` polled by
    global wave index; then, in global wave order, each solved wave is
    charged to the card that frees first
    (:meth:`~repro.runtime.device.DevicePool.first_free`,
    :meth:`~repro.runtime.device.DevicePool.charge_wave`), its SPM loads
    tallied on that card's cache (which starts from the keys
    ``spm_cache`` holds) and its ladder's faults booked there; and the
    merge is canonical — results in input partition
    order (empty partitions, never simulated, in the driver's empty
    shape), card caches absorbed in device order.  See the module
    docstring for why the answer is bit-identical to serial.

    ``storage`` optionally attaches the modelled in-SSD filter (a
    :class:`~repro.storage.filter.StorageFilterPlan`): wave H2D charges
    shrink to the survivor footprint — pruned exactly-matching reads
    ship descriptors the device expands against its resident REF
    partition — while the simulation itself is untouched, so results and
    per-stage kernel cycles are bit-identical to the unfiltered run
    (DESIGN.md §3.10).

    A wave whose retry budget runs out fails the run, at every topology
    alike: the other waves still run and are ledgered, then the
    lowest-index wave's :class:`~repro.faults.injector.
    RetryBudgetExceeded` is raised.

    Each wave is ledgered once, after execution, in global order: its
    ``fault.retry`` records (no ``device``: an attempt fails before its
    wave has a card) and ``storage.wave``, then one ``scheduler.wave``
    carrying its card, its H2D bytes and the
    :class:`~repro.obs.spans.WaveTimeline` the card's charge returned —
    the record its trace is folded from (DESIGN.md §3.9).
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    parts = list(partitions)
    started = time.perf_counter()

    empty_pids, waves = plan_shards(parts, n_pipelines, devices)
    shared_cache = spm_cache if spm_cache is not None else SpmImageCache()
    tasks = [WaveTask(index, driver, wave) for index, wave in enumerate(waves)]
    _log.info(
        "%s: %d wave(s) of up to %d pipeline(s) over %d device(s) x "
        "%d worker(s)",
        driver.stage, len(tasks), n_pipelines, devices, workers,
        extra={"stage": driver.stage},
    )

    outcomes: Dict[int, Tuple[str, object]] = {}
    executing = time.perf_counter()
    for task, worker, outcome in run_waves(
        tasks, devices * workers,
        FaultInjector(fault_plan) if fault_plan is not None else None,
        retry_policy, wave_timeout,
    ):
        outcomes[task.index] = worker, outcome
    elapsed = time.perf_counter() - executing

    # -- place and merge: canonical order regardless of finish order -------------

    # Place, book, charge and ledger each wave in global order (so the
    # per-card clocks and float sums never depend on finish order): the
    # card's charge is the wave's timeline, and the record the trace
    # lays it from.
    merged = {pid: driver.empty_result(pid) for pid in empty_pids}
    pool = DevicePool(devices, storage=storage)
    caches = [SpmImageCache() for _ in range(devices)]
    for cache in caches:
        cache.merge(shared_cache.keys())
    per_device = [ParallelRunStats(device=device) for device in range(devices)]
    loads = [0] * devices
    totals = dict(raw_nbytes=0, nbytes=0, pruned_rows=0, scan_seconds=0.0)
    per_wave_cycles: List[int] = []
    spent: Dict[int, RetryBudgetExceeded] = {}
    for task in tasks:
        for failed in task.retried:
            record_event(
                "fault.retry",
                stage=driver.stage, wave=task.index, attempt=failed.attempt,
                kind=failed.kind, backoff_seconds=failed.backoff_seconds,
            )
        worker, outcome = outcomes[task.index]
        if isinstance(outcome, RetryBudgetExceeded):
            spent[task.index] = outcome
            continue
        device = pool.first_free()
        card = per_device[device]
        caches[device].tally(task.keys, outcome.load_cycles)
        merged.update(outcome.results)
        card.book(worker, outcome)
        card.book_ladder(task.stats)
        card.per_wave_cycles.append(outcome.stats.cycles)
        per_wave_cycles.append(outcome.stats.cycles)
        loads[device] += sum(part.num_rows for _pid, part in task.items)
        if storage is not None:
            scanned = record_storage_wave(
                storage, task.items, stage=driver.stage, wave=task.index,
                device=device,
            )
            for name, value in scanned.items():
                totals[name] += value
        timeline = pool.charge_wave(
            device, task.items, outcome.stats.cycles,
            outcome.wave_load_cycles, task.backoff_seconds, at=0,
        )
        record_event(
            "scheduler.wave",
            stage=driver.stage, wave=task.index, worker=worker,
            replicas=len(task.items), nbytes=pool.wave_nbytes(task.items),
            elapsed_seconds=outcome.elapsed_seconds, device=device,
            **timeline.to_record(),
        )
    if spent:
        # every wave ran its ladder; the run fails on the lowest-index
        # wave out of budget, whatever the topology
        raise spent[min(spent)]
    for card, cache in zip(per_device, caches):
        # one loop, one pool: every card shares the run's wall clock
        card.workers = max(1, min(workers, card.waves))
        card.elapsed_seconds = elapsed
        card.spm_cache_hits, card.spm_cache_misses = cache.hits, cache.misses
        card.spm_cycles_saved = cache.cycles_saved
    results = {pid: merged[pid] for pid, _part in parts}

    sharded = ShardedRunStats(
        devices=devices,
        workers=max(card.workers for card in per_device),
        per_device=per_device,
        plan_loads=loads,
        per_wave_cycles=per_wave_cycles,
        device_busy_seconds=pool.busy_seconds(),
        device_transfer_seconds=pool.transfer_seconds(),
        elapsed_seconds=time.perf_counter() - started,
    )

    # absorb per-card caches in device order (key sets union,
    # counters accumulate), so later stages' loads of these rows hit
    for cache in caches:
        shared_cache.absorb(cache)
    if storage is not None:
        record_storage_run(
            storage, pool.config, totals,
            kernel_seconds=sharded.total_cycles / pool.config.clock_hz,
            transfer_seconds=sum(pool.transfer_seconds()),
            stage=driver.stage, devices=devices,
        )
    _record_shard_run(driver, sharded, n_pipelines)
    _log.info(
        "%s done: %d cycles over %d wave(s) on %d device(s), %.3fs host "
        "(parallelism %.2f, spm cache %d/%d hit, %d fault(s) survived)",
        driver.stage, sharded.total_cycles, sharded.waves, devices,
        sharded.elapsed_seconds, sharded.host_parallelism,
        sharded.spm_cache_hits,
        sharded.spm_cache_hits + sharded.spm_cache_misses,
        sharded.faults_injected,
        extra={"stage": driver.stage},
    )
    return results, sharded
