"""Host-side partition scheduler: multi-core wave fan-out for every
accelerator, with a reference-SPM image cache.

The paper replicates each accelerator pipeline 16x (8x for BQSR) so
independent genome partitions process concurrently behind the shared
memory fabric (Figure 8).  The simulator reproduces the replication —
N replicas in ONE engine with ONE memory system per *wave* — but waves
themselves are embarrassingly parallel: each wave is an independent
engine over disjoint partitions.  :func:`run_partitioned` therefore
drives them three ways at once:

* **one entry point for all accelerators** — a :class:`WaveDriver`
  builds and harvests the replicas of one wave; concrete drivers exist
  for metadata update (:class:`MetadataWaveDriver`), mark duplicates
  (:class:`MarkdupWaveDriver`), and BQSR covariate construction
  (:class:`BqsrWaveDriver`);
* **multi-core fan-out** — with ``workers > 1`` the waves are dispatched
  onto a :class:`~concurrent.futures.ProcessPoolExecutor`.  Waves are
  packed largest-partition-first (an LPT schedule) and pulled from the
  executor's shared queue by whichever worker frees up first, so a
  straggler wave never serializes the tail;
* **SPM image caching** — :class:`SpmImageCache` memoizes the simulated
  reference-SPM load by ``(partition, memory config, snp flag)``.
  Repeated accelerator stages over the same partitions (and BQSR
  read-group slices of one segment) replay the cached image instead of
  re-simulating the load;
* **fault tolerance** — pass a
  :class:`~repro.faults.injector.FaultInjector` (and optionally a
  :class:`~repro.faults.retry.RetryPolicy` / ``wave_timeout``) and the
  scheduler survives injected and real failures alike: failed wave
  attempts are retried with exponential backoff under a retry budget,
  futures get a watchdog deadline, a broken pool is rebuilt, and when
  the pool keeps dying (or a wave exhausts its budget) execution
  degrades to serial in-process waves.  See DESIGN.md §3.5 for the
  fault model and the recovery ladder.

Results are bit-identical across ``workers`` settings: wave packing is
deterministic, every wave simulates in its own engine, and a cache
replay returns exactly the scratchpad contents and cycle statistics a
fresh load simulation would produce.  Only the host-side throughput
metrics (wall seconds, per-worker breakdowns, cache hit counts) vary.
The same holds under fault injection: a wave is a pure function of its
partitions, so a retried or serially re-run wave reproduces exactly the
results and simulated cycles of an undisturbed run.
"""

from __future__ import annotations

import os
import time
import zlib
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..faults.injector import (
    FAULT_EXCEPTIONS,
    FaultInjector,
    InjectedFaultError,
    RetryBudgetExceeded,
)
from ..faults.retry import RetryPolicy
from ..hw.engine import Engine, RunStats
from ..hw.memory import MemoryConfig, MemorySystem
from ..hw.spm import Scratchpad
from ..obs.ledger import record_event
from ..obs.log import get_logger, set_worker_id
from ..obs.registry import MetricsRegistry, registry_or_null
from ..obs.spans import active_spans
from ..tables.partition import PartitionId, PartitionedReference
from ..tables.table import Table
from .bqsr import (
    BqsrAccelResult,
    BqsrSpms,
    build_bqsr_pipeline,
    configure_bqsr_streams,
    harvest_bqsr,
)
from .common import AcceleratorRun, load_reference_spm, spm_base
from .markdup import MarkDupAccelResult, build_markdup_pipeline
from .metadata import (
    MetadataAccelResult,
    build_metadata_pipeline,
    collect_metadata_outputs,
    configure_metadata_streams,
)

#: One (pid, partition) work item as accepted by the scheduler.
WaveItem = Tuple[PartitionId, Table]

#: The injection site wave attempts are polled at (slot = wave index).
WAVE_FAULT_SITE = "scheduler.wave"

#: Pool breakages tolerated (each rebuilds the pool) before the run
#: degrades permanently to serial in-process execution.
POOL_RESTART_BUDGET = 1

_log = get_logger("scheduler")


# -- SPM image cache -----------------------------------------------------------------


@dataclass
class CachedImage:
    """One memoized reference-SPM load: the word contents the load
    simulation produced plus its cycle statistics."""

    words: List[object]
    stats: RunStats


class SpmImageCache:
    """Memoizes reference-SPM load simulations.

    ``load_reference_spm`` is deterministic in the REF partition row, the
    memory configuration, and the snp flag, so its scratchpad image and
    cycle statistics can be keyed on ``(chrom, refpos, row length,
    content digest, with_snp, memory config)`` and replayed.  The length
    and digest keep two references that share a ``(chrom, refpos)`` —
    different genomes, or one genome at another ``psize``/``overlap`` —
    apart in a shared cache.  A replay builds a fresh
    :class:`Scratchpad` (replicas never share the physical SPM) and
    returns a copy of the recorded statistics — bit-identical to
    re-simulating the load, minus the host time.
    """

    def __init__(self, max_images: Optional[int] = None):
        self._images: "OrderedDict[tuple, CachedImage]" = OrderedDict()
        self.max_images = max_images
        self.hits = 0
        self.misses = 0
        self.cycles_saved = 0

    @staticmethod
    def key(
        ref_row: dict,
        memory_config: Optional[MemoryConfig] = None,
        with_snp: bool = False,
    ) -> tuple:
        """The cache key of one REF partition row under one memory
        configuration (``None`` normalizes to the default config)."""
        seq = np.asarray(ref_row["SEQ"], dtype=np.uint8)
        digest = zlib.crc32(seq.tobytes())
        if with_snp:
            snp = np.asarray(ref_row["IS_SNP"], dtype=bool)
            digest = zlib.crc32(snp.tobytes(), digest)
        return (
            int(ref_row["CHR"]),
            int(ref_row["REFPOS"]),
            len(seq),
            digest,
            bool(with_snp),
            memory_config or MemoryConfig(),
        )

    def load(
        self,
        ref_row: dict,
        memory_config: Optional[MemoryConfig] = None,
        with_snp: bool = False,
    ) -> Tuple[Scratchpad, RunStats]:
        """The cached equivalent of :func:`load_reference_spm`."""
        key = self.key(ref_row, memory_config, with_snp)
        image = self._images.get(key)
        if image is None:
            self.misses += 1
            spm, stats = load_reference_spm(
                ref_row, memory_config, with_snp=with_snp
            )
            self._store(key, CachedImage(words=spm.dump(), stats=stats))
            return spm, stats
        self.hits += 1
        self.cycles_saved += image.stats.cycles
        self._images.move_to_end(key)
        spm = Scratchpad("ref_spm", len(image.words))
        spm.load(image.words)
        return spm, image.stats.copy()

    def _store(self, key: tuple, image: CachedImage) -> None:
        self._images[key] = image
        if self.max_images is not None:
            while len(self._images) > self.max_images:
                self._images.popitem(last=False)

    def images(self) -> Dict[tuple, CachedImage]:
        """A snapshot of every cached image."""
        return dict(self._images)

    def images_for(self, keys: Iterable[tuple]) -> Dict[tuple, CachedImage]:
        """The subset of cached images present for ``keys``."""
        return {key: self._images[key] for key in keys if key in self._images}

    def merge(self, images: Dict[tuple, CachedImage]) -> None:
        """Adopt images (e.g. shipped back from a worker process) without
        overwriting entries already present."""
        for key, image in images.items():
            if key not in self._images:
                self._store(key, image)

    def absorb(self, other: "SpmImageCache") -> None:
        """Merge another pool into this one: images adopt idempotently
        (first writer wins, exactly like :meth:`merge`) and the
        hit/miss/cycles-saved counters accumulate, so a cache merged from
        per-device pools keeps the full replay history.  Absorbing the
        same pool twice double-counts nothing image-wise; counters are
        the caller's to absorb exactly once per pool."""
        self.merge(other.images())
        self.hits += other.hits
        self.misses += other.misses
        self.cycles_saved += other.cycles_saved

    def __len__(self) -> int:
        return len(self._images)


# -- wave drivers --------------------------------------------------------------------


class WaveDriver:
    """Builds, runs, and harvests one wave of replicated pipelines.

    A wave is N pipeline replicas in one engine sharing one memory
    system, each assigned a different partition — exactly the Figure 8
    replication.  Concrete drivers supply three hooks:
    ``empty_result`` (the result shape of a partition with no reads),
    ``build_replica`` (wire one replica and load its streams), and
    ``harvest`` (post-process one replica's outputs).  Drivers must be
    picklable: they are shipped to worker processes together with the
    wave's partitions.
    """

    stage = "wave"
    #: Whether replicas need a reference SPM loaded (and hence the cache).
    uses_reference = False
    #: Whether the reference SPM holds ``(base, is_snp)`` pairs.
    with_snp = False

    def empty_result(self, pid: PartitionId):
        """Result for a partition with no reads (never simulated)."""
        raise NotImplementedError

    def build_replica(
        self,
        engine: Engine,
        name: str,
        part: Table,
        spm: Optional[Scratchpad],
        base: int,
    ):
        """Wire one replica into ``engine`` and load its streams."""
        raise NotImplementedError

    def harvest(self, context, stats: RunStats, load_stats: Optional[RunStats]):
        """Turn one replica's writer contents into a per-partition result."""
        raise NotImplementedError

    def reference_row(self, pid: PartitionId) -> dict:
        """The REF partition row serving ``pid``."""
        return self.reference.lookup(pid)

    def wave_keys(self, wave: Sequence[WaveItem]) -> List[tuple]:
        """The SPM-cache keys a wave will look up (for seeding workers)."""
        if not self.uses_reference:
            return []
        return [
            SpmImageCache.key(
                self.reference_row(pid), self.memory_config, self.with_snp
            )
            for pid, _part in wave
        ]

    def run_wave(
        self, wave: Sequence[WaveItem], spm_cache: SpmImageCache
    ) -> Tuple[Dict[PartitionId, object], RunStats, int]:
        """Simulate one wave; returns per-partition results, the wave's
        engine statistics, and the wave's SPM load cycles (the replicas
        load concurrently, so the wave charges the slowest load)."""
        engine = Engine(MemorySystem(self.memory_config))
        contexts = []
        load_cycles = 0
        for index, (pid, part) in enumerate(wave):
            spm: Optional[Scratchpad] = None
            base = 0
            load_stats: Optional[RunStats] = None
            if self.uses_reference:
                ref_row = self.reference_row(pid)
                spm, load_stats = spm_cache.load(
                    ref_row, self.memory_config, self.with_snp
                )
                load_cycles = max(load_cycles, load_stats.cycles)
                base = spm_base(ref_row)
            context = self.build_replica(engine, f"p{index}", part, spm, base)
            contexts.append((pid, context, load_stats))
        stats = engine.run(mode=self.mode)
        results = {
            pid: self.harvest(context, stats, load_stats)
            for pid, context, load_stats in contexts
        }
        return results, stats, load_cycles


@dataclass
class MetadataWaveDriver(WaveDriver):
    """Waves of Figure 11 metadata-update replicas."""

    reference: PartitionedReference
    memory_config: Optional[MemoryConfig] = None
    mode: Optional[str] = None

    stage = "metadata"
    uses_reference = True

    def empty_result(self, pid: PartitionId) -> MetadataAccelResult:
        return MetadataAccelResult.empty()

    def build_replica(self, engine, name, part, spm, base):
        pipe = build_metadata_pipeline(engine, name, spm, base)
        configure_metadata_streams(pipe, part)
        return pipe

    def harvest(self, pipe, stats, load_stats) -> MetadataAccelResult:
        nm, md, uq = collect_metadata_outputs(pipe)
        return MetadataAccelResult(
            nm=nm, md=md, uq=uq, run=AcceleratorRun(None, stats, load_stats)
        )


@dataclass
class MarkdupWaveDriver(WaveDriver):
    """Waves of Figure 10 quality-sum replicas."""

    memory_config: Optional[MemoryConfig] = None
    mode: Optional[str] = None

    stage = "markdup"
    uses_reference = False

    def empty_result(self, pid: PartitionId) -> MarkDupAccelResult:
        return MarkDupAccelResult.empty()

    def build_replica(self, engine, name, part, spm, base):
        pipe = build_markdup_pipeline(engine, name)
        pipe.modules[f"{name}.qual"].set_items(
            [[int(q) for q in item] for item in part.column("QUAL")]
        )
        return pipe

    def harvest(self, pipe, stats, load_stats) -> MarkDupAccelResult:
        writer = pipe.modules[f"{pipe.name}.writer"]
        return MarkDupAccelResult(
            quality_sums=[int(item[0]) for item in writer.items], stats=stats
        )


@dataclass
class BqsrWaveDriver(WaveDriver):
    """Waves of Figure 12 covariate-construction replicas.

    Each replica owns its four count scratchpads; the reference SPM is
    loaded with ``(base, is_snp)`` words.  Read-group slices of the same
    genome segment share one REF row, so a wave over group partitions
    hits the SPM cache within a single run.
    """

    reference: PartitionedReference
    read_length: int
    memory_config: Optional[MemoryConfig] = None
    mode: Optional[str] = None
    drain: bool = True

    stage = "bqsr"
    uses_reference = True
    with_snp = True

    def empty_result(self, pid: PartitionId) -> BqsrAccelResult:
        return BqsrAccelResult.empty(self.read_length)

    def build_replica(self, engine, name, part, spm, base):
        spms = BqsrSpms.allocate(self.read_length)
        pipe = build_bqsr_pipeline(
            engine, name, spm, base, spms, self.read_length
        )
        configure_bqsr_streams(pipe, part)
        return pipe, spms

    def harvest(self, context, stats, load_stats) -> BqsrAccelResult:
        pipe, spms = context
        return harvest_bqsr(
            pipe, spms, AcceleratorRun(None, stats, load_stats),
            self.memory_config, self.drain,
        )


# -- aggregate statistics ------------------------------------------------------------


@dataclass
class WorkerStats:
    """One worker's share of a partitioned run."""

    waves: int = 0
    cycles: int = 0
    wall_seconds: float = 0.0
    elapsed_seconds: float = 0.0


@dataclass
class ParallelRunStats:
    """Aggregate statistics of a waved multi-pipeline run.

    Since the observability layer landed this is a *view*: the scheduler
    accounts every wave into a :class:`~repro.obs.registry.MetricsRegistry`
    and :meth:`from_registry` assembles the dataclass from the registry's
    contents; the fields and semantics are unchanged for existing callers.

    Besides the simulated-cycle accounting, the host-side fields
    aggregate the event scheduler's metrics across waves so multi-workload
    sweeps can report how much simulator time the wake sets and
    fast-forwarding saved (``ticks_executed`` vs ``ticks_possible``), and
    the scheduler fields record how the waves were spread over host
    workers and what the SPM image cache saved.
    """

    waves: int
    total_cycles: int
    spm_load_cycles: int
    per_wave_cycles: List[int]
    # host-side (simulator throughput) metrics, summed over waves
    wall_seconds: float = 0.0
    ticks_executed: int = 0
    ticks_possible: int = 0
    fast_forward_cycles: int = 0
    total_flits: int = 0
    # host scheduler metrics
    workers: int = 1
    elapsed_seconds: float = 0.0
    spm_cache_hits: int = 0
    spm_cache_misses: int = 0
    spm_cycles_saved: int = 0
    per_worker: Dict[str, WorkerStats] = field(default_factory=dict)
    # resilience metrics: faults/retries/fallbacks are deterministic for
    # a given (plan, seed, schedule); watchdog_timeouts and pool_restarts
    # count host-side infrastructure events and may vary across hosts
    faults_injected: int = 0
    faults_by_kind: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    backoff_seconds: float = 0.0
    watchdog_timeouts: int = 0
    serial_fallback_waves: int = 0
    pool_restarts: int = 0
    # sharding: which device queue this run drove (None when the run is
    # not part of a DevicePool shard) and how many waves the plan-time
    # steal loop moved into/out of that queue
    device: Optional[int] = None
    steals_in: int = 0
    steals_out: int = 0

    @property
    def cycles_including_load(self) -> int:
        """Wall cycles including the reference SPM loads (which the
        replicas also perform concurrently, so each wave charges the
        slowest load)."""
        return self.total_cycles + self.spm_load_cycles

    @property
    def skip_ratio(self) -> float:
        """Fraction of dense-equivalent module ticks never executed."""
        if not self.ticks_possible:
            return 0.0
        return 1.0 - self.ticks_executed / self.ticks_possible

    @property
    def host_flits_per_second(self) -> float:
        """Simulated flits per host wall second across all waves."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_flits / self.wall_seconds

    @property
    def host_parallelism(self) -> float:
        """Effective concurrency: summed per-wave engine seconds over the
        end-to-end scheduler seconds (≈1 serial, →N with N busy workers)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.wall_seconds / self.elapsed_seconds

    @classmethod
    def from_registry(
        cls,
        registry: MetricsRegistry,
        waves: int,
        workers: int,
        elapsed_seconds: float,
    ) -> "ParallelRunStats":
        """Assemble the stats view from one run's accounting registry
        (the ``scheduler.*`` / ``sim.*`` metrics ``run_partitioned``
        publishes per wave)."""
        per_wave_cycles = [0] * waves
        for labels, gauge in registry.values("scheduler.wave.cycles").items():
            per_wave_cycles[int(dict(labels)["wave"])] = gauge.value
        per_worker: Dict[str, WorkerStats] = {}
        for metric, attr in (
            ("scheduler.worker.waves", "waves"),
            ("scheduler.worker.cycles", "cycles"),
            ("scheduler.worker.wall_seconds", "wall_seconds"),
            ("scheduler.worker.elapsed_seconds", "elapsed_seconds"),
        ):
            for labels, counter in registry.values(metric).items():
                worker = dict(labels)["worker"]
                tally = per_worker.setdefault(worker, WorkerStats())
                setattr(tally, attr, counter.value)
        faults_by_kind = {
            dict(labels)["kind"]: counter.value
            for labels, counter in registry.values("scheduler.faults").items()
        }
        return cls(
            waves=waves,
            total_cycles=sum(per_wave_cycles),
            spm_load_cycles=registry.value("scheduler.spm_load_cycles"),
            per_wave_cycles=per_wave_cycles,
            wall_seconds=registry.value("sim.wall_seconds"),
            ticks_executed=registry.value("sim.ticks_executed"),
            ticks_possible=registry.value("sim.ticks_possible"),
            fast_forward_cycles=registry.value("sim.fast_forward_cycles"),
            total_flits=registry.value("sim.flits"),
            workers=workers,
            elapsed_seconds=elapsed_seconds,
            spm_cache_hits=registry.value("scheduler.spm_cache.hits"),
            spm_cache_misses=registry.value("scheduler.spm_cache.misses"),
            spm_cycles_saved=registry.value("scheduler.spm_cache.cycles_saved"),
            per_worker=per_worker,
            faults_injected=sum(faults_by_kind.values()),
            faults_by_kind=faults_by_kind,
            retries=registry.value("scheduler.retries"),
            backoff_seconds=registry.value("scheduler.backoff_seconds"),
            watchdog_timeouts=registry.value("scheduler.watchdog_timeouts"),
            serial_fallback_waves=registry.value(
                "scheduler.serial_fallback_waves"
            ),
            pool_restarts=registry.value("scheduler.pool_restarts"),
        )

    def publish(self, registry: MetricsRegistry, stage: str = "run") -> None:
        """Mirror the aggregates into an external registry (labelled by
        accelerator stage, plus the device queue when the run was one
        shard of a DevicePool) so cross-stage consumers — the runtime
        API, ``eval/experiments.py`` — see scheduler totals next to
        their own metrics."""
        labels = {"stage": stage}
        if self.device is not None:
            labels["device"] = str(self.device)
        registry.counter("scheduler.runs", **labels).inc()
        registry.counter("scheduler.waves", **labels).inc(self.waves)
        registry.counter("scheduler.cycles", **labels).inc(self.total_cycles)
        registry.counter(
            "scheduler.spm_load_cycles", **labels
        ).inc(self.spm_load_cycles)
        registry.counter(
            "scheduler.elapsed_seconds", **labels
        ).inc(self.elapsed_seconds)
        registry.counter(
            "scheduler.spm_cache.hits", **labels
        ).inc(self.spm_cache_hits)
        registry.counter(
            "scheduler.spm_cache.misses", **labels
        ).inc(self.spm_cache_misses)
        registry.counter(
            "scheduler.spm_cache.cycles_saved", **labels
        ).inc(self.spm_cycles_saved)
        registry.counter("sim.wall_seconds", **labels).inc(self.wall_seconds)
        registry.counter(
            "sim.ticks_executed", **labels
        ).inc(self.ticks_executed)
        registry.counter(
            "sim.ticks_possible", **labels
        ).inc(self.ticks_possible)
        registry.counter(
            "sim.fast_forward_cycles", **labels
        ).inc(self.fast_forward_cycles)
        registry.counter("sim.flits", **labels).inc(self.total_flits)
        registry.gauge("scheduler.workers", **labels).set(self.workers)
        for kind, count in self.faults_by_kind.items():
            registry.counter(
                "scheduler.faults", kind=kind, **labels
            ).inc(count)
        registry.counter("scheduler.retries", **labels).inc(self.retries)
        registry.counter(
            "scheduler.backoff_seconds", **labels
        ).inc(self.backoff_seconds)
        registry.counter(
            "scheduler.watchdog_timeouts", **labels
        ).inc(self.watchdog_timeouts)
        registry.counter(
            "scheduler.serial_fallback_waves", **labels
        ).inc(self.serial_fallback_waves)
        registry.counter(
            "scheduler.pool_restarts", **labels
        ).inc(self.pool_restarts)
        if self.device is not None:
            registry.counter(
                "scheduler.steals_in", **labels
            ).inc(self.steals_in)
            registry.counter(
                "scheduler.steals_out", **labels
            ).inc(self.steals_out)


# -- wave packing and dispatch -------------------------------------------------------


def pack_waves(
    partitions: Iterable[WaveItem], n_pipelines: int
) -> Tuple[List[PartitionId], List[List[WaveItem]]]:
    """Split partitions into empty pids and largest-first waves.

    Non-empty partitions are sorted by descending read count (ties break
    on input order, so packing is deterministic) and chunked into waves
    of ``n_pipelines``.  Largest-first packing keeps each wave's replicas
    similarly sized — the wave costs its slowest replica — and, under
    multi-worker dispatch, schedules the heavy waves first so the run
    never ends on a lone straggler (the LPT heuristic).
    """
    if n_pipelines < 1:
        raise ValueError("need at least one pipeline")
    empty: List[PartitionId] = []
    todo: List[Tuple[int, PartitionId, Table]] = []
    for index, (pid, part) in enumerate(partitions):
        if part.num_rows == 0:
            empty.append(pid)
        else:
            todo.append((index, pid, part))
    todo.sort(key=lambda item: (-item[2].num_rows, item[0]))
    waves = [
        [(pid, part) for _index, pid, part in todo[start:start + n_pipelines]]
        for start in range(0, len(todo), n_pipelines)
    ]
    return empty, waves


def _run_wave_task(
    driver, wave_index, wave, seed_images, fault_kind=None,
    hang_seconds=0.0, attempt=0,
):
    """Worker-side wave execution (module-level so it pickles).

    The worker runs against a private cache seeded with the images the
    parent already holds for this wave, and ships newly loaded images
    back so the parent cache (and later stages) can reuse them.

    ``fault_kind`` is the parent's injection decision for this attempt
    (decided deterministically before submission): the worker *enacts*
    it — an injected hang sleeps ``hang_seconds`` so the parent's
    watchdog genuinely fires, a ``worker_crash`` dies for real
    (``os._exit``, surfacing as ``BrokenProcessPool`` in the parent),
    and every other kind raises its
    :class:`~repro.faults.injector.InjectedFaultError` subclass, which
    travels back through the future like a real worker failure would.
    """
    set_worker_id(f"w{os.getpid()}")
    if fault_kind is not None:
        if fault_kind == "wave_timeout" and hang_seconds > 0:
            time.sleep(hang_seconds)
        if fault_kind == "worker_crash":
            os._exit(1)  # a genuine process death, not an exception
        raise FAULT_EXCEPTIONS[fault_kind](WAVE_FAULT_SITE, wave_index, attempt)
    cache = SpmImageCache()
    cache.merge(seed_images)
    started = time.perf_counter()
    results, stats, load_cycles = driver.run_wave(wave, cache)
    elapsed = time.perf_counter() - started
    _log.debug(
        "wave %d done: %d replicas, %d cycles, %.3fs",
        wave_index, len(wave), stats.cycles, elapsed,
        extra={"stage": driver.stage, "wave": wave_index},
    )
    new_images = {
        key: image
        for key, image in cache.images().items()
        if key not in seed_images
    }
    return (
        wave_index,
        results,
        stats,
        load_cycles,
        new_images,
        cache.hits,
        cache.misses,
        cache.cycles_saved,
        os.getpid(),
        elapsed,
    )


def _lay_run_spans(
    driver, waves, device, run_registry, stats, accounted_faults, policy
) -> None:
    """Lay one run's trace spans on its device lane (no-op without an
    ambient :func:`~repro.obs.spans.tracing` recorder).

    Spans are laid parent-side *after* the run from the per-wave
    accounting, in wave-index order on a cumulative virtual-cycle axis —
    so the trace is identical for every ``workers`` value, exactly like
    the cycle accounting itself.  Each wave gets a parent span with
    ``spm_load``/``kernel`` children tiling it, plus a zero-length fault
    marker per injected fault (carrying the deterministic backoff the
    retry would charge)."""
    tracer = active_spans()
    if not tracer.enabled:
        return
    lane_index = device if device is not None else 0
    lane = f"device:{lane_index}"
    trace_id = f"run-{driver.stage}-d{lane_index}"
    load_by_wave = {
        int(dict(labels)["wave"]): gauge.value
        for labels, gauge in
        run_registry.values("scheduler.wave.load_cycles").items()
    }
    faults_by_wave: Dict[int, List[Tuple[int, str]]] = {}
    for kind, wave_index, attempt in sorted(
        accounted_faults, key=lambda item: (item[1], item[2])
    ):
        faults_by_wave.setdefault(wave_index, []).append((attempt, kind))
    run_span = tracer.reserve()
    cursor = 0
    for wave_index, cycles in enumerate(stats.per_wave_cycles):
        load = load_by_wave.get(wave_index, 0)
        parent = tracer.record(
            f"{driver.stage}:w{wave_index}", "wave",
            cursor, cursor + load + cycles,
            trace_id=trace_id, parent_id=run_span, lane=lane,
            wave=wave_index, replicas=len(waves[wave_index]),
        )
        for attempt, kind in faults_by_wave.get(wave_index, ()):
            tracer.record(
                f"fault:{kind}", "fault", cursor, cursor,
                trace_id=trace_id, parent_id=parent, lane=lane,
                wave=wave_index, attempt=attempt, kind=kind,
                backoff_seconds=policy.backoff_seconds(wave_index, attempt),
            )
        if load > 0:
            tracer.record(
                "spm_load", "spm_load", cursor, cursor + load,
                trace_id=trace_id, parent_id=parent, lane=lane,
                wave=wave_index,
            )
        tracer.record(
            "kernel", "kernel", cursor + load, cursor + load + cycles,
            trace_id=trace_id, parent_id=parent, lane=lane,
            wave=wave_index,
        )
        cursor += load + cycles
    tracer.record(
        f"{driver.stage}:run", "run", 0, cursor,
        trace_id=trace_id, span_id=run_span, lane=lane,
        stage=driver.stage, waves=stats.waves, workers=stats.workers,
        device=device,
    )


def run_partitioned(
    driver: WaveDriver,
    partitions: Iterable[WaveItem],
    n_pipelines: int,
    workers: int = 1,
    spm_cache: Optional[SpmImageCache] = None,
    registry: Optional[MetricsRegistry] = None,
    fault_injector: Optional[FaultInjector] = None,
    retry_policy: Optional[RetryPolicy] = None,
    wave_timeout: Optional[float] = None,
    prepacked_waves: Optional[List[List[WaveItem]]] = None,
    device: Optional[int] = None,
    force_pool: bool = False,
    storage: Optional[object] = None,
) -> Tuple[Dict[PartitionId, object], ParallelRunStats]:
    """Run an accelerator over many partitions: N replicated pipelines
    per wave, waves fanned out over ``workers`` host processes.

    Empty partitions are never simulated; they appear in the results with
    the driver's empty shape so per-partition result sets match the
    serial drivers key-for-key.  Pass ``spm_cache`` to share reference-SPM
    images across stages (each call otherwise uses a private cache).
    Results and simulated cycles are bit-identical for every ``workers``
    value; only host-side metrics differ.

    All accounting flows through a per-run metrics registry (the
    returned :class:`ParallelRunStats` is a view over it); pass
    ``registry`` to additionally receive the aggregates — labelled by
    the driver's stage — in a registry shared across runs.

    Resilience: ``fault_injector`` injects the deterministic faults of
    its :class:`~repro.faults.plan.FaultPlan` at the ``scheduler.wave``
    site (slot = wave index, decided in the parent before dispatch, so
    injections are identical across ``workers`` settings).  Failed wave
    attempts — injected or real — are retried under ``retry_policy``
    (default :class:`~repro.faults.retry.RetryPolicy`) with exponential
    backoff; ``wave_timeout`` arms a watchdog deadline (seconds) around
    every pool future.  The degradation ladder is retry → requeue →
    serial in-process fallback (the serial rung retries with a fresh
    budget counted from its entry attempt); a wave that keeps faulting
    past the serial budget raises
    :class:`~repro.faults.injector.RetryBudgetExceeded`.  Non-injected
    exceptions from driver code propagate immediately — they are
    deterministic bugs, not infrastructure failures.

    Sharding hooks (used by :func:`repro.accel.sharding.run_sharded`):
    ``prepacked_waves`` executes an exact wave list instead of packing
    ``partitions`` — a device queue must run the globally packed waves
    it was assigned verbatim, because wave composition determines the
    shared-memory contention and thus the simulated cycles; ``device``
    labels the run's events and published metrics with the device queue
    it drove; ``force_pool`` dispatches through a process pool even at
    ``workers=1`` so concurrent device queues are not serialised by the
    interpreter lock.  None of the three affects results or cycles.

    ``storage`` optionally attaches the modelled in-SSD filter (a
    :class:`~repro.storage.filter.StorageFilterPlan` or
    :class:`~repro.storage.frontend.StorageFrontEnd`, DESIGN.md §3.10).
    ``run_partitioned`` models no PCIe transfers itself, so the filter
    changes nothing about execution here — it only annotates every wave
    with a ``storage.wave`` ledger event (survivor bytes, pruned rows,
    scan time) so single-run ledgers carry the same storage telemetry
    sharded runs get from :func:`repro.accel.sharding.run_sharded`
    (which does its own recording and deliberately does *not* forward
    ``storage`` down to its per-device ``run_partitioned`` calls).
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    if wave_timeout is not None and wave_timeout <= 0:
        raise ValueError("wave_timeout must be positive seconds")
    injector = fault_injector
    policy = retry_policy if retry_policy is not None else RetryPolicy()
    cache = spm_cache if spm_cache is not None else SpmImageCache()
    device_labels = {} if device is None else {"device": device}
    started = time.perf_counter()
    if prepacked_waves is not None:
        empty_pids, waves = [], [list(wave) for wave in prepacked_waves]
    else:
        empty_pids, waves = pack_waves(partitions, n_pipelines)
    results: Dict[PartitionId, object] = {
        pid: driver.empty_result(pid) for pid in empty_pids
    }
    _log.info(
        "%s: %d wave(s) of up to %d pipeline(s) over %d worker(s) "
        "(%d empty partition(s) skipped)",
        driver.stage, len(waves), n_pipelines, workers, len(empty_pids),
        extra={"stage": driver.stage},
    )

    run_registry = MetricsRegistry()

    def account(worker, wave_index, wave_results, stats, load_cycles, elapsed):
        results.update(wave_results)
        record_event(
            "scheduler.wave",
            stage=driver.stage, wave=wave_index, worker=worker,
            replicas=len(waves[wave_index]), cycles=stats.cycles,
            load_cycles=load_cycles, elapsed_seconds=elapsed,
            **device_labels,
        )
        if storage is not None:
            items = waves[wave_index]
            record_event(
                "storage.wave",
                stage=driver.stage, wave=wave_index,
                raw_nbytes=storage.wave_raw_nbytes(items),
                nbytes=storage.wave_nbytes(items),
                pruned_rows=storage.wave_pruned_rows(items),
                scan_seconds=storage.wave_scan_seconds(items),
                **device_labels,
            )
        run_registry.gauge(
            "scheduler.wave.cycles", wave=wave_index
        ).set(stats.cycles)
        run_registry.gauge(
            "scheduler.wave.seconds", wave=wave_index
        ).set(elapsed)
        run_registry.gauge(
            "scheduler.wave.load_cycles", wave=wave_index
        ).set(load_cycles)
        run_registry.counter("scheduler.spm_load_cycles").inc(load_cycles)
        run_registry.counter("sim.wall_seconds").inc(stats.wall_seconds)
        run_registry.counter("sim.ticks_executed").inc(stats.ticks_executed)
        run_registry.counter("sim.ticks_possible").inc(stats.ticks_possible)
        run_registry.counter(
            "sim.fast_forward_cycles"
        ).inc(stats.fast_forward_cycles)
        run_registry.counter("sim.flits").inc(
            sum(stats.flits_by_module.values())
        )
        run_registry.counter("scheduler.worker.waves", worker=worker).inc()
        run_registry.counter(
            "scheduler.worker.cycles", worker=worker
        ).inc(stats.cycles)
        run_registry.counter(
            "scheduler.worker.wall_seconds", worker=worker
        ).inc(stats.wall_seconds)
        run_registry.counter(
            "scheduler.worker.elapsed_seconds", worker=worker
        ).inc(elapsed)

    def account_cache(hits, misses, cycles_saved):
        run_registry.counter("scheduler.spm_cache.hits").inc(hits)
        run_registry.counter("scheduler.spm_cache.misses").inc(misses)
        run_registry.counter(
            "scheduler.spm_cache.cycles_saved"
        ).inc(cycles_saved)

    # -- resilience accounting (guarded so a re-poll after a pool rebuild
    #    never double-counts the same (wave, attempt) decision) ------------------

    accounted_faults: Set[Tuple[str, int, int]] = set()
    accounted_retries: Set[Tuple[int, int]] = set()

    def account_fault(kind, wave_index, attempt):
        key = (kind, wave_index, attempt)
        if key in accounted_faults:
            return
        accounted_faults.add(key)
        run_registry.counter("scheduler.faults", kind=kind).inc()

    def account_retry(wave_index, attempt, kind):
        key = (wave_index, attempt)
        if key in accounted_retries:
            return 0.0
        accounted_retries.add(key)
        backoff = policy.backoff_seconds(wave_index, attempt)
        run_registry.counter("scheduler.retries").inc()
        run_registry.counter("scheduler.backoff_seconds").inc(backoff)
        record_event(
            "fault.retry",
            stage=driver.stage, wave=wave_index, attempt=attempt,
            kind=kind, backoff_seconds=backoff,
        )
        _log.info(
            "wave %d attempt %d failed (%s); retrying after %.3fs",
            wave_index, attempt, kind, backoff,
            extra={"stage": driver.stage, "wave": wave_index},
        )
        return backoff

    def account_serial_fallback(wave_index, attempt, reason):
        run_registry.counter("scheduler.serial_fallback_waves").inc()
        record_event(
            "fault.serial_fallback",
            stage=driver.stage, wave=wave_index, attempt=attempt,
            reason=reason,
        )
        _log.warning(
            "wave %d degrades to serial in-process execution (%s)",
            wave_index, reason,
            extra={"stage": driver.stage, "wave": wave_index},
        )

    def poll_wave_fault(wave_index, attempt, worker):
        """The parent-side injection decision for one wave attempt."""
        if injector is None:
            return None
        return injector.poll(
            WAVE_FAULT_SITE, wave_index, attempt,
            stage=driver.stage, worker=worker,
        )

    def run_wave_serial(wave_index, start_attempt=0, worker="w0"):
        """One wave with the serial retry ladder: poll → enact → backoff
        → retry, until the attempt runs clean or the budget is gone."""
        attempt = start_attempt
        while True:
            fault = poll_wave_fault(wave_index, attempt, worker)
            if fault is None:
                t0 = time.perf_counter()
                wave_results, stats, load_cycles = driver.run_wave(
                    waves[wave_index], cache
                )
                elapsed = time.perf_counter() - t0
                _log.debug(
                    "wave %d done: %d replicas, %d cycles, %.3fs",
                    wave_index, len(waves[wave_index]), stats.cycles, elapsed,
                    extra={"stage": driver.stage, "wave": wave_index},
                )
                account(
                    worker, wave_index, wave_results, stats, load_cycles,
                    elapsed,
                )
                return
            account_fault(fault.kind, wave_index, attempt)
            if attempt - start_attempt >= policy.max_retries:
                raise RetryBudgetExceeded(
                    f"wave {wave_index} failed {attempt - start_attempt + 1} "
                    f"attempt(s); retry budget ({policy.max_retries}) "
                    "exhausted"
                ) from fault.to_exception()
            backoff = account_retry(wave_index, attempt, fault.kind)
            if backoff > 0:
                time.sleep(backoff)
            attempt += 1

    if not waves or (not force_pool and (workers == 1 or len(waves) <= 1)):
        workers_used = 1
        hits0, misses0, saved0 = cache.hits, cache.misses, cache.cycles_saved
        for wave_index in range(len(waves)):
            run_wave_serial(wave_index)
        account_cache(
            cache.hits - hits0,
            cache.misses - misses0,
            cache.cycles_saved - saved0,
        )
    else:
        workers_used = min(workers, len(waves))
        worker_pids: Dict[int, str] = {}

        def harvest(payload):
            (
                wave_index, wave_results, stats, load_cycles, new_images,
                wave_hits, wave_misses, wave_saved, worker_pid, elapsed,
            ) = payload
            cache.merge(new_images)
            cache.hits += wave_hits
            cache.misses += wave_misses
            cache.cycles_saved += wave_saved
            account_cache(wave_hits, wave_misses, wave_saved)
            label = worker_pids.setdefault(worker_pid, f"w{len(worker_pids)}")
            account(
                label, wave_index, wave_results, stats, load_cycles, elapsed,
            )

        # ready holds (wave_index, attempt) pairs awaiting (re)submission;
        # serial_waves collects budget-exhausted or degraded waves for the
        # in-process fallback pass after the pool drains.
        ready = deque((index, 0) for index in range(len(waves)))
        pending: Dict[object, Tuple[int, int, Optional[float]]] = {}
        serial_waves: List[Tuple[int, int]] = []
        abandoned: List[object] = []
        pool_restarts = 0
        pool = ProcessPoolExecutor(max_workers=workers_used)

        def submit(wave_index, attempt):
            fault = poll_wave_fault(wave_index, attempt, worker="pool")
            fault_kind = None
            hang = 0.0
            if fault is not None:
                fault_kind = fault.kind
                account_fault(fault_kind, wave_index, attempt)
                if fault_kind == "wave_timeout" and wave_timeout is not None:
                    # hang long enough that the parent watchdog fires
                    # first, short enough that pool shutdown stays quick
                    hang = min(wave_timeout * 2, wave_timeout + 1.0)
            wave = waves[wave_index]
            future = pool.submit(
                _run_wave_task, driver, wave_index, wave,
                cache.images_for(driver.wave_keys(wave)),
                fault_kind, hang, attempt,
            )
            deadline = (
                time.monotonic() + wave_timeout
                if wave_timeout is not None else None
            )
            pending[future] = (wave_index, attempt, deadline)

        def requeue(wave_index, attempt, kind):
            """The ladder after a failed attempt: retry on the pool while
            the budget lasts, then hand the wave to the serial pass."""
            if attempt >= policy.max_retries:
                account_serial_fallback(
                    wave_index, attempt, reason="retry budget exhausted"
                )
                serial_waves.append((wave_index, attempt + 1))
            else:
                backoff = account_retry(wave_index, attempt, kind)
                if backoff > 0:
                    time.sleep(backoff)
                ready.append((wave_index, attempt + 1))

        try:
            while ready or pending:
                broken = False
                try:
                    while ready:
                        index, attempt = ready.popleft()
                        submit(index, attempt)
                except BrokenProcessPool:
                    ready.appendleft((index, attempt))
                    broken = True
                if not broken:
                    timeout = None
                    if wave_timeout is not None and pending:
                        nearest = min(
                            deadline for (_, _, deadline) in pending.values()
                        )
                        timeout = max(0.0, nearest - time.monotonic())
                    done, _ = futures_wait(
                        set(pending), timeout=timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        index, attempt, _deadline = pending[future]
                        try:
                            payload = future.result()
                        except InjectedFaultError as error:
                            del pending[future]
                            requeue(index, attempt, error.kind)
                        except BrokenProcessPool:
                            # leave it in pending: the broken-pool
                            # handler below attributes the crash
                            broken = True
                        else:
                            del pending[future]
                            harvest(payload)
                if broken:
                    pool_restarts += 1
                    run_registry.counter("scheduler.pool_restarts").inc()
                    record_event(
                        "fault.pool_restart",
                        stage=driver.stage, restarts=pool_restarts,
                    )
                    # attribute the break: a pending wave whose attempt
                    # has a worker_crash due killed the pool — advance
                    # it through the retry ladder; innocent bystanders
                    # resubmit at the same attempt (no retry charged).
                    for index, attempt, _deadline in pending.values():
                        due = (
                            injector.due(WAVE_FAULT_SITE, index, attempt)
                            if injector is not None else None
                        )
                        if due is not None and due.kind == "worker_crash":
                            requeue(index, attempt, due.kind)
                        else:
                            ready.append((index, attempt))
                    pending.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    if pool_restarts > POOL_RESTART_BUDGET:
                        _log.warning(
                            "%s: pool died %d times; degrading %d wave(s) "
                            "to serial execution",
                            driver.stage, pool_restarts, len(ready),
                            extra={"stage": driver.stage},
                        )
                        while ready:
                            index, attempt = ready.popleft()
                            account_serial_fallback(
                                index, attempt, reason="pool kept dying"
                            )
                            serial_waves.append((index, attempt))
                        break
                    pool = ProcessPoolExecutor(max_workers=workers_used)
                    continue
                if wave_timeout is not None:
                    now = time.monotonic()
                    for future in list(pending):
                        index, attempt, deadline = pending[future]
                        if deadline is not None and now >= deadline:
                            del pending[future]
                            abandoned.append(future)
                            run_registry.counter(
                                "scheduler.watchdog_timeouts"
                            ).inc()
                            record_event(
                                "fault.watchdog_timeout",
                                stage=driver.stage, wave=index,
                                attempt=attempt,
                                timeout_seconds=wave_timeout,
                            )
                            requeue(index, attempt, "wave_timeout")
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

        if serial_waves:
            hits0, misses0 = cache.hits, cache.misses
            saved0 = cache.cycles_saved
            for index, attempt in sorted(serial_waves):
                run_wave_serial(index, start_attempt=attempt, worker="serial")
            account_cache(
                cache.hits - hits0,
                cache.misses - misses0,
                cache.cycles_saved - saved0,
            )

    stats = ParallelRunStats.from_registry(
        run_registry,
        waves=len(waves),
        workers=workers_used,
        elapsed_seconds=time.perf_counter() - started,
    )
    stats.device = device
    stats.publish(registry_or_null(registry), stage=driver.stage)
    _lay_run_spans(driver, waves, device, run_registry, stats,
                   accounted_faults, policy)
    record_event(
        "scheduler.run",
        **device_labels,
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
    if stats.faults_injected or stats.retries or stats.watchdog_timeouts:
        _log.info(
            "%s survived %d injected fault(s) (%s): %d retried, "
            "%d watchdog timeout(s), %d serial-fallback wave(s), "
            "%d pool restart(s)",
            driver.stage, stats.faults_injected,
            ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(stats.faults_by_kind.items())
            ) or "none",
            stats.retries, stats.watchdog_timeouts,
            stats.serial_fallback_waves, stats.pool_restarts,
            extra={"stage": driver.stage},
        )
    _log.info(
        "%s done: %d cycles over %d wave(s), %.3fs host "
        "(parallelism %.2f, spm cache %d/%d hit)",
        driver.stage, stats.total_cycles, stats.waves,
        stats.elapsed_seconds, stats.host_parallelism,
        stats.spm_cache_hits, stats.spm_cache_hits + stats.spm_cache_misses,
        extra={"stage": driver.stage},
    )
    return results, stats


def run_metadata_parallel(
    partitions: Iterable[WaveItem],
    reference: PartitionedReference,
    n_pipelines: int,
    memory_config: Optional[MemoryConfig] = None,
    mode: Optional[str] = None,
    workers: int = 1,
    spm_cache: Optional[SpmImageCache] = None,
) -> Tuple[Dict[PartitionId, MetadataAccelResult], ParallelRunStats]:
    """Run metadata update over many partitions with N replicated
    pipelines sharing one memory system per wave.

    ``mode`` selects the engine schedule per wave (``"event"`` skips
    idle replicas and fast-forwards shared-memory latency; ``"dense"``
    is the differential-testing fallback); ``workers`` fans the waves
    out over that many host processes.  Returns per-partition results
    (same key set as the input, empty partitions included) plus the
    aggregated wave statistics.
    """
    driver = MetadataWaveDriver(
        reference=reference, memory_config=memory_config, mode=mode
    )
    return run_partitioned(
        driver,
        partitions,
        n_pipelines,
        workers=workers,
        spm_cache=spm_cache,
    )
