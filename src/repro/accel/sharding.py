"""Multi-device sharding: N modelled cards, one bit-identical answer.

The partition-parallel scheduler (:mod:`repro.accel.scheduler`) drives
*one* simulated device, so total throughput is capped by one PCIe link
and one accelerator's pipelines — the ceiling the paper's scaling
analysis (Fig. 8/9) identifies.  This module adds the scale-out tier:
a :class:`~repro.runtime.device.DevicePool` of N cards, a shard planner
that assigns wave queues to devices, a plan-time work-stealing pass
that rebalances straggler queues, and a deterministic merge stage that
reassembles one answer from the per-device shards.

:func:`run_sharded` is the one front door of a direct run, whatever
the topology: pack → plan → execute → charge → merge (DESIGN.md §3.2),
where *execute* hands every wave of the plan to the one wave executor
(:func:`repro.accel.scheduler.run_waves`), and a one-device run is the
same walk with one queue.  Why the answer cannot depend on the
topology, in execution order:

1. **Waves are packed globally, then sharded whole.**  A wave's
   simulated cycles depend on its composition (the replicas share one
   memory system), so re-packing per device would change cycles the
   moment ``devices > 1``.  :func:`plan_shards` therefore runs the
   exact same :func:`~repro.accel.scheduler.pack_waves` a serial run
   uses and assigns *whole waves* to device queues — wave composition,
   and hence every simulated cycle count, is topology-invariant.
2. **Stealing happens at plan time, from deterministic costs.**  The
   steal loop moves trailing waves from the most-loaded queue to the
   least-loaded one while that strictly reduces the estimated makespan,
   using partition row counts as the cost model — a pure function of
   the inputs, never of host timing.  Stealing relocates *host work
   only*; the stolen wave simulates the same cycles wherever it runs.
3. **A wave keeps its global index wherever it runs.**  One fault
   injector is polled by that index, so a fault planned for wave ``g``
   fires on wave ``g`` on every topology, with the same retry backoff;
   the ledger's ``scheduler.wave``, ``storage.wave`` and ``fault.*``
   events all name it the same way.
4. **The merge is canonical.**  Results are re-keyed in input partition
   order, cards are charged in global wave order, per-device SPM caches
   are absorbed into the shared cache in device order, and BQSR
   covariate tables reduce per read group in canonical key order — the
   same answer regardless of which wave finished first.

Net: for every ``(devices, workers)`` combination, with or without
injected faults, with or without steals, a sharded run is bit-identical
to the serial one in both results and simulated cycles; only host-side
wall-clock metrics differ.
"""

from __future__ import annotations

import time
import zlib
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

#: Shard assignment policies understood by :func:`plan_shards`.
SHARD_POLICIES = ("hash", "range")


def stable_shard_hash(pid: PartitionId) -> int:
    """A process-stable hash of a partition id (CRC32 of its rendered
    form).  Python's builtin ``hash`` is salted per process, which would
    make shard assignment — and thus fault placement and steal records —
    differ between runs."""
    return zlib.crc32(str(pid).encode("utf-8"))


@dataclass(frozen=True)
class StealRecord:
    """One plan-time steal: ``wave`` (global index) migrated from the
    ``source`` device queue to ``target``, carrying ``cost`` estimated
    rows of host work."""

    wave: int
    source: int
    target: int
    cost: int


@dataclass
class ShardWave:
    """One globally packed wave and its device placement."""

    global_index: int
    items: List[WaveItem]
    #: Deterministic cost estimate: summed partition rows (the wave's
    #: host work scales with its widest replica, but total rows is the
    #: better queue-load proxy and is what LPT packed by).
    cost: int
    #: The queue the assignment policy put the wave on.
    home_device: int
    #: The queue that actually runs it (differs after a steal).
    device: int


@dataclass
class ShardPlan:
    """The deterministic shard layout of one run: every wave's placement
    plus the steal log that produced it."""

    devices: int
    policy: str
    empty_pids: List[PartitionId]
    #: All waves in global (LPT) order.
    waves: List[ShardWave]
    steals: List[StealRecord]

    def device_waves(self, device: int) -> List[ShardWave]:
        """Device ``device``'s queue, largest-first (global order)."""
        return [wave for wave in self.waves if wave.device == device]

    def loads(self) -> List[int]:
        """Post-steal estimated cost per device queue."""
        return [
            sum(wave.cost for wave in self.device_waves(device))
            for device in range(self.devices)
        ]


def plan_shards(
    partitions: Iterable[WaveItem],
    n_pipelines: int,
    devices: int,
    policy: str = "hash",
    steal: bool = True,
) -> ShardPlan:
    """Lay out a run across ``devices`` queues.

    Waves are packed globally (identical to a serial run — see the
    module determinism argument), assigned a home queue by ``policy``
    (``"hash"``: stable hash of the wave's lead partition id;
    ``"range"``: contiguous blocks of the LPT order), then rebalanced by
    the straggler-aware steal loop: while moving the most-loaded queue's
    trailing wave to the least-loaded queue strictly reduces the
    estimated makespan, move it and log a :class:`StealRecord`.  Ties
    break on the lowest device index, so the plan is a pure function of
    ``(partitions, n_pipelines, devices, policy, steal)``.
    """
    if devices < 1:
        raise ValueError("need at least one device")
    if policy not in SHARD_POLICIES:
        raise ValueError(
            f"unknown shard policy {policy!r} "
            f"(choose from {', '.join(SHARD_POLICIES)})"
        )
    empty_pids, packed = pack_waves(partitions, n_pipelines)
    waves: List[ShardWave] = []
    for index, wave in enumerate(packed):
        if policy == "hash":
            home = stable_shard_hash(wave[0][0]) % devices
        else:
            home = index * devices // len(packed)
        waves.append(
            ShardWave(
                global_index=index,
                items=list(wave),
                cost=sum(part.num_rows for _pid, part in wave),
                home_device=home,
                device=home,
            )
        )

    steals: List[StealRecord] = []
    if steal and devices > 1 and waves:
        queues = [
            [wave for wave in waves if wave.device == device]
            for device in range(devices)
        ]
        while True:
            loads = [sum(wave.cost for wave in queue) for queue in queues]
            source = max(range(devices), key=lambda d: (loads[d], -d))
            target = min(range(devices), key=lambda d: (loads[d], d))
            if source == target or len(queues[source]) <= 1:
                break
            victim = queues[source][-1]
            after_source = loads[source] - victim.cost
            after_target = loads[target] + victim.cost
            if max(after_source, after_target) >= loads[source]:
                break  # no strict makespan improvement left
            queues[source].pop()
            victim.device = target
            queues[target].append(victim)
            queues[target].sort(key=lambda wave: wave.global_index)
            steals.append(
                StealRecord(
                    wave=victim.global_index, source=source,
                    target=target, cost=victim.cost,
                )
            )

    return ShardPlan(
        devices=devices, policy=policy, empty_pids=empty_pids,
        waves=waves, steals=steals,
    )


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
    """Aggregate statistics of a sharded run: per-device scheduler stats
    plus the shard plan's steal log and the pool's virtual occupancy.

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
    #: Host fan-out per device queue actually used (the widest queue's).
    workers: int
    per_device: List[ParallelRunStats]
    steals: List[StealRecord]
    #: Post-steal estimated cost per device queue (plan-time view).
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
            prefix = f"d{stats.device}" if stats.device is not None else "d0"
            for worker, tally in stats.per_worker.items():
                merged[f"{prefix}/{worker}"] = tally
        return merged

    @property
    def faults_by_kind(self) -> Dict[str, int]:
        merged: Counter = Counter()
        for stats in self.per_device:
            merged.update(stats.faults_by_kind)
        return dict(merged)

    @property
    def steal_count(self) -> int:
        return len(self.steals)

    def device_utilization(self) -> List[float]:
        """Each queue's simulated-cycle share of the critical-path
        queue (1.0 for the busiest device)."""
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
    driver: WaveDriver, stats: ShardedRunStats, policy: str
) -> None:
    """Ledger the sharded run: one ``shard.device`` event per queue plus
    the ``shard.run`` summary ``repro analyze --sharding`` reads."""
    utilization = stats.device_utilization()
    for device, device_stats in enumerate(stats.per_device):
        record_event(
            "shard.device",
            stage=driver.stage, device=device,
            waves=device_stats.waves, cycles=device_stats.total_cycles,
            steals_in=device_stats.steals_in,
            steals_out=device_stats.steals_out,
            busy_seconds=stats.device_busy_seconds[device],
            transfer_seconds=stats.device_transfer_seconds[device],
            elapsed_seconds=device_stats.elapsed_seconds,
            utilization=utilization[device],
        )
    record_event(
        "shard.run",
        stage=driver.stage, devices=stats.devices, workers=stats.workers,
        policy=policy, waves=stats.waves, steals=stats.steal_count,
        total_cycles=stats.total_cycles,
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
    policy: str = "hash",
    steal: bool = True,
    storage: Optional[WaveStorage] = None,
) -> Tuple[Dict[PartitionId, object], ShardedRunStats]:
    """Run an accelerator stage sharded over ``devices`` modelled cards,
    each queue fanned out over ``workers`` host processes — the one
    front door of a direct run.

    One walk for every topology: :func:`plan_shards` packs the waves and
    lays them on ``devices`` queues (one queue when ``devices=1``);
    :func:`~repro.accel.scheduler.run_waves` executes them all, one
    :class:`~repro.accel.scheduler.WaveTask` per wave — one loop, one
    process pool, one fault injector over ``fault_plan`` polled by
    global wave index, one SPM cache per queue seeded from
    ``spm_cache``; each wave is then charged to its card's virtual
    timeline in global order (:meth:`~repro.runtime.device.DevicePool.
    charge_wave`); and the merge is canonical — results in input
    partition order (empty partitions, never simulated, in the driver's
    empty shape), caches absorbed in device order.  See the module
    docstring for why the answer is bit-identical to serial.

    ``storage`` optionally attaches the modelled in-SSD filter (a
    :class:`~repro.storage.filter.StorageFilterPlan`): wave H2D charges
    shrink to the survivor footprint — pruned exactly-matching reads
    ship descriptors the device expands against its resident REF
    partition — while the simulation itself is untouched, so results and
    per-stage kernel cycles are bit-identical to the unfiltered run
    (DESIGN.md §3.10).

    A wave whose retry budget runs out fails the run, at every topology
    alike: the other waves still run, then the lowest-index wave's
    :class:`~repro.faults.injector.RetryBudgetExceeded` is raised.

    The one asymmetry between topologies: a lone card with no filter in
    front of it charges no transfer timeline (it reports zero busy and
    transfer seconds), a lone card never gets a ``pcie:<n>`` trace lane,
    and a lone card's events and queue stats carry no ``device``.
    """
    if devices < 1:
        raise ValueError("need at least one device")
    if workers < 1:
        raise ValueError("need at least one worker")
    parts = list(partitions)
    started = time.perf_counter()

    plan = plan_shards(parts, n_pipelines, devices, policy=policy, steal=steal)
    queues = [plan.device_waves(device) for device in range(devices)]
    shared_cache = spm_cache if spm_cache is not None else SpmImageCache()
    caches = [SpmImageCache() for _ in queues]
    for cache in caches:
        cache.merge(shared_cache.keys())
    labels = [{"device": d} if devices > 1 else {} for d in range(devices)]
    per_device = [
        ParallelRunStats(
            # this queue's share of the pool
            workers=max(1, min(workers, len(queue))),
            device=label.get("device"),
            steals_in=sum(s.target == device for s in plan.steals),
            steals_out=sum(s.source == device for s in plan.steals),
        )
        for device, (queue, label) in enumerate(zip(queues, labels))
    ]
    tasks = [
        WaveTask(
            wave.global_index, driver, wave.items, caches[wave.device],
            per_device[wave.device], labels[wave.device],
        )
        for wave in plan.waves
    ]
    _log.info(
        "%s: %d wave(s) of up to %d pipeline(s) over %d device(s) x "
        "%d worker(s) (%s policy, %d steal(s), loads %s)",
        driver.stage, len(plan.waves), n_pipelines, devices, workers,
        policy, len(plan.steals), plan.loads(),
        extra={"stage": driver.stage},
    )

    merged = {pid: driver.empty_result(pid) for pid in plan.empty_pids}
    per_wave_cycles = [0] * len(tasks)
    spent: Dict[int, RetryBudgetExceeded] = {}
    executing = time.perf_counter()
    for task, worker, outcome in run_waves(
        tasks, devices * workers,
        FaultInjector(fault_plan) if fault_plan is not None else None,
        retry_policy, wave_timeout,
    ):
        for failed in task.retried:
            record_event(
                "fault.retry",
                stage=driver.stage, wave=task.index, attempt=failed.attempt,
                kind=failed.kind, backoff_seconds=failed.backoff_seconds,
                **task.labels,
            )
        if isinstance(outcome, RetryBudgetExceeded):
            spent[task.index] = outcome
            continue
        merged.update(outcome.results)
        task.cache.adopt(task.keys(), outcome)
        record_event(
            "scheduler.wave",
            stage=driver.stage, wave=task.index, worker=worker,
            replicas=len(task.items), cycles=outcome.stats.cycles,
            load_cycles=outcome.load_cycles,
            elapsed_seconds=outcome.elapsed_seconds,
            **task.labels,
        )
        per_wave_cycles[task.index] = outcome.stats.cycles
        task.stats.book(worker, outcome)
    if spent:
        # every wave ran its ladder; the run fails on the lowest-index
        # wave out of budget, whatever the topology
        raise spent[min(spent)]
    elapsed = time.perf_counter() - executing
    for queue, stats, label in zip(queues, per_device, labels):
        stats.per_wave_cycles = [
            per_wave_cycles[wave.global_index] for wave in queue
        ]
        # one loop, one pool: every queue shares the run's wall clock
        stats.elapsed_seconds = elapsed
        record_event(
            "scheduler.run",
            **label,
            stage=driver.stage, waves=stats.waves, workers=stats.workers,
            pipelines=n_pipelines, total_cycles=stats.total_cycles,
            spm_load_cycles=stats.spm_load_cycles,
            elapsed_seconds=stats.elapsed_seconds,
            spm_cache_hits=stats.spm_cache_hits,
            spm_cache_misses=stats.spm_cache_misses,
            faults_injected=stats.faults_injected,
            retries=stats.retries,
            watchdog_timeouts=stats.watchdog_timeouts,
            serial_fallback_waves=stats.serial_fallback_waves,
            pool_restarts=stats.pool_restarts,
        )

    # -- deterministic merge: canonical order regardless of finish order ----------

    results = {pid: merged[pid] for pid, _part in parts}

    # Charge each wave to its card, in global order (so the per-card
    # float sums never depend on finish order), ledgering the charge: on
    # a multi-card run it carries the card, and traces as the modelled
    # H2D link occupancy on that card's pcie:<n> lane.
    pool = DevicePool(devices, storage=storage)
    timeline = devices > 1 or storage is not None
    for wave in plan.waves if timeline else ():
        nbytes, seconds = pool.charge_wave(
            wave.device, wave.global_index, wave.items,
            per_wave_cycles[wave.global_index],
        )
        record_event(
            "shard.wave",
            stage=driver.stage, wave=wave.global_index, nbytes=nbytes,
            transfer_cycles=int(round(seconds * pool.config.clock_hz)),
            **labels[wave.device],
        )

    sharded = ShardedRunStats(
        devices=devices,
        workers=max(stats.workers for stats in per_device),
        per_device=per_device,
        steals=list(plan.steals), plan_loads=plan.loads(),
        per_wave_cycles=per_wave_cycles,
        device_busy_seconds=pool.busy_seconds(),
        device_transfer_seconds=pool.transfer_seconds(),
        elapsed_seconds=time.perf_counter() - started,
    )

    # absorb per-device caches in device order (key sets union,
    # counters accumulate), so later stages' loads of these rows hit
    for cache in caches:
        shared_cache.absorb(cache)
    if storage is not None:
        # the in-storage filter's work: a storage.wave per wave, queue by
        # queue (each traces as a scan span on its card's storage:<n>
        # lane), then the storage.run summary
        totals = dict(raw_nbytes=0, nbytes=0, pruned_rows=0, scan_seconds=0.0)
        for queue in queues:
            for wave in queue:
                scanned = record_storage_wave(
                    storage, wave.items, stage=driver.stage,
                    device=wave.device, wave=wave.global_index,
                )
                for name, value in scanned.items():
                    totals[name] += value
        record_storage_run(
            storage, pool.config, totals,
            kernel_seconds=sharded.total_cycles / pool.config.clock_hz,
            transfer_seconds=sum(pool.transfer_seconds()),
            stage=driver.stage, devices=devices,
        )
    _record_shard_run(driver, sharded, policy)
    _log.info(
        "%s done: %d cycles over %d wave(s) on %d device(s), %.3fs host "
        "(parallelism %.2f, spm cache %d/%d hit, %d steal(s), "
        "%d fault(s) survived)",
        driver.stage, sharded.total_cycles, sharded.waves, devices,
        sharded.elapsed_seconds, sharded.host_parallelism,
        sharded.spm_cache_hits,
        sharded.spm_cache_hits + sharded.spm_cache_misses,
        sharded.steal_count, sharded.faults_injected,
        extra={"stage": driver.stage},
    )
    return results, sharded
