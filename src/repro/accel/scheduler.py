"""Host-side partition scheduler: multi-core wave fan-out for every
accelerator, with a reference-SPM image cache.

The paper replicates each accelerator pipeline 16x (8x for BQSR) so
independent genome partitions process concurrently behind the shared
memory fabric (Figure 8).  The simulator reproduces the replication —
N replicas in ONE engine with ONE memory system per *wave* — but waves
themselves are embarrassingly parallel: each wave is an independent
engine over disjoint partitions.  This module is the one place waves
are executed:

* **one executor for every topology** — :func:`run_waves` is the only
  driver of waves: it owns the process pool and the fault ladder and
  yields each wave's clean outcome, or the error of its spent retry
  budget, to its caller.  It has two callers.
  :func:`repro.accel.sharding.run_sharded`, the one front door of a
  direct run, hands it every wave of one stage; serial, multi-worker
  and multi-device runs are that one call at different sizes (DESIGN.md
  §3.2).  The job service hands it each dispatch round's picks.  A wave
  has one identity everywhere: its task index — in a direct run its
  position in the global packing — keys its ledger events, fault slot,
  retry backoff and trace spans;
* **one object per stage** — a :class:`WaveDriver` subclass is the whole
  hand-wired description of an accelerator and :meth:`WaveDriver.run_wave`
  the one engine-run sequence: each concrete driver lives beside its
  pipeline builder (``accel/markdup.py``, ``metadata.py``, ``bqsr.py``,
  ``example_query.py``, ``active_region.py``) and
  :data:`repro.accel.stages.STAGES` is the table of them;
* **multi-core fan-out** — when more than one wave can be in flight the
  waves are dispatched onto one
  :class:`~concurrent.futures.ProcessPoolExecutor`, built once and kept
  from run to run (:func:`wave_pool`).  Waves are packed
  largest-partition-first (an LPT schedule) and pulled from the
  executor's shared queue by whichever worker frees up first, so a
  straggler wave never serializes the tail;
* **SPM caching** — :class:`SpmImageCache` records which REF rows the
  modelled card has loaded, keyed by ``(partition, memory config, snp
  flag)``: repeated accelerator stages over the same partitions (and
  BQSR read-group slices of one segment) hit it, and their load cycles
  count as saved.  A solve never sees the cache: a wave's loads are
  filled from the rows and their statistics replayed by shape from the
  solving process's own phase memo, and they are tallied against a
  card's cache where the wave is placed;
* **fault tolerance** — with a
  :class:`~repro.faults.injector.FaultInjector` the executor survives
  injected and real failures alike: retry with backoff under one
  budget per wave, a watchdog deadline per future, pool rebuild, serial
  in-process fallback (:func:`run_waves`; DESIGN.md §3.5).

Results are bit-identical across ``workers`` and ``devices`` settings:
wave packing is deterministic, every distinct wave simulates in its own
engine, and a phase replay — like a wave replay — returns exactly the
cycle statistics a fresh simulation would produce.  Only the host-side
throughput metrics (wall seconds, per-worker breakdowns, cache hit
counts) vary.  The same holds under fault injection: a wave is a pure
function of its partitions, so a retried or serially re-run wave
reproduces exactly the results and simulated cycles of an undisturbed
run.
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
import time
import zlib
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..faults.injector import (
    FAULT_EXCEPTIONS,
    FaultInjector,
    InjectedFaultError,
    RetryBudgetExceeded,
)
from ..faults.plan import WAVE_FAULT_SITE
from ..faults.retry import FailedAttempt, RetryLadder, RetryPolicy
from ..hw.engine import Engine, RunStats
from ..hw.memory import MemoryConfig, MemorySystem
from ..hw.spm import Scratchpad
from ..obs.ledger import record_event
from ..obs.log import get_logger, set_worker_id
from ..tables.partition import PartitionId
from ..tables.table import Table
from .common import (
    SOLO,
    AcceleratorRun,
    load_reference_spm,
    spm_base,
)

#: One (pid, partition) work item as accepted by the scheduler.
WaveItem = Tuple[PartitionId, Table]

#: Pool breakages tolerated (each rebuilds the pool) before the run
#: degrades permanently to serial in-process execution.
POOL_RESTART_BUDGET = 1

_log = get_logger("scheduler")


# -- SPM image cache and wave memo -----------------------------------------------------


class SpmImageCache:
    """The modelled reference-SPM cache: which REF rows a card already
    holds, so a repeated load is a hit.

    ``load_reference_spm`` is deterministic in the REF partition row, the
    memory configuration, and the snp flag, so a load is keyed on
    ``(chrom, refpos, row length, content digest, with_snp, memory
    config)``.  The length and digest keep two references that share a
    ``(chrom, refpos)`` — different genomes, or one genome at another
    ``psize``/``overlap`` — apart in a shared cache.  The cache keeps
    keys, not images, and a solve never sees it: every load fills a
    fresh :class:`Scratchpad` from the row (replicas never share the
    physical SPM) and replays its statistics by shape from the process's
    phase memo, and where the solved wave is placed its loads are
    tallied here (:meth:`tally`) as hits (their cycles saved) or misses.
    """

    def __init__(self) -> None:
        self._keys: Set[tuple] = set()
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

    def tally(
        self,
        keys: Sequence[tuple],
        load_cycles: Sequence[int],
        held: Optional[FrozenSet[tuple]] = None,
    ) -> None:
        """Count one placed wave's loads — its ``keys`` with each load's
        cycles (:attr:`WaveOutcome.load_cycles`), in item order.  A key
        ``held`` holds (by default: every key held here) or an earlier
        item of the wave loaded is a hit, its cycles saved; any other is
        a miss.  The wave's keys are held here afterwards."""
        held = self._keys if held is None else held
        loaded: Set[tuple] = set()
        for key, cycles in zip(keys, load_cycles):
            if key in loaded or key in held:
                self.hits += 1
                self.cycles_saved += cycles
            else:
                self.misses += 1
            loaded.add(key)
        self._keys.update(loaded)

    def keys(self) -> FrozenSet[tuple]:
        """Every key held."""
        return frozenset(self._keys)

    def merge(self, keys: Iterable[tuple]) -> None:
        """Hold ``keys`` as well."""
        self._keys.update(keys)

    def absorb(self, other: "SpmImageCache") -> None:
        """Merge another pool into this one: the key sets union and the
        hit/miss/cycles-saved counters accumulate, so a cache merged from
        per-device pools keeps the full load history.  Counters are the
        caller's to absorb exactly once per pool."""
        self.merge(other._keys)
        self.hits += other.hits
        self.misses += other.misses
        self.cycles_saved += other.cycles_saved

    def __len__(self) -> int:
        return len(self._keys)


def partition_digest(part: Table) -> tuple:
    """A partition's row count and a BLAKE2b of its columns (a stand-in
    that is not a :class:`Table` keys as itself)."""
    if not isinstance(part, Table):
        return (part,)
    digest = hashlib.blake2b(digest_size=16)
    for spec in part.schema.columns:
        data = part.column(spec.name)
        if spec.is_array:  # row lengths, then the rows back to back
            digest.update(np.fromiter(map(len, data), np.int64, len(data)))
            data = np.concatenate(data) if len(data) else np.zeros(0)
        digest.update(f"{spec.name}:{data.dtype.str}".encode())
        digest.update(np.ascontiguousarray(data))
    return part.num_rows, digest.digest()


class MemoKey(tuple):
    """A wave's memo key, hashed once: a lookup and a record would each
    hash every ``PartitionId`` and ``MemoryConfig`` in it again."""

    def __new__(cls, fields: Iterable[object]) -> "MemoKey":
        key = super().__new__(cls, fields)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self._hash


class WaveMemo:
    """The waves an owner has solved, replayed as fresh copies of the
    recorded outcome with the replay's own host seconds (DESIGN.md §3.2
    "Wave memo").  Unbounded — one outcome per distinct wave, whose
    results its owner (a ``JobService``) keeps anyway — and never
    module-global.  It digests each partition object once, however
    often its waves are dispatched."""

    def __init__(self) -> None:
        self._solved: Dict[MemoKey, bytes] = {}  # memo key -> pickled outcome
        #: id(partition) -> (the partition, kept so the id stays its own;
        #: its :func:`partition_digest`)
        self._digests: Dict[int, Tuple[object, tuple]] = {}
        self.hits = self.misses = 0

    def key(
        self, driver: "WaveDriver", keys: Sequence[tuple],
        items: Sequence[WaveItem],
    ) -> MemoKey:
        """The memo key of a wave: the driver's type and fields, the
        engine mode, the SPM-cache ``keys`` it looks up and its items'
        digests."""
        fields = dict(vars(driver))
        if driver.uses_reference:  # the keys digest each REF row it serves
            del fields["reference"]
        return MemoKey((
            type(driver), tuple(sorted(fields.items())), Engine.default_mode,
            tuple(keys), tuple((pid, self._digest(part)) for pid, part in items),
        ))

    def _digest(self, part: Table) -> tuple:
        held = self._digests.get(id(part))
        if held is None:
            held = self._digests[id(part)] = (part, partition_digest(part))
        return held[1]

    def replay(self, task: "WaveTask") -> Optional["WaveOutcome"]:
        """The task's wave as recorded, or ``None``."""
        solved = self._solved.get(task.memo_key)
        if solved is None:
            self.misses += 1
            return None
        self.hits += 1
        started = time.perf_counter()
        outcome = pickle.loads(solved)
        outcome.worker_pid = os.getpid()
        outcome.elapsed_seconds = time.perf_counter() - started
        outcome.stats.wall_seconds = outcome.elapsed_seconds
        return outcome

    def record(self, task: "WaveTask", outcome: "WaveOutcome") -> None:
        """Keep a private copy of a simulated outcome (the first stands)."""
        self._solved.setdefault(task.memo_key, pickle.dumps(outcome, -1))

    def __len__(self) -> int:
        return len(self._solved)


# -- wave drivers --------------------------------------------------------------------


class WaveDriver:
    """One accelerator stage: builds, feeds, runs and harvests its
    pipeline replicas.

    A wave is N pipeline replicas in one engine sharing one memory
    system, each assigned a different partition — exactly the Figure 8
    replication; a serial run is a wave of one (:meth:`run_one`).
    :meth:`run_wave` is the one engine-run sequence; a concrete driver
    lives beside its pipeline builder and supplies three hooks:
    ``empty_result`` (the result shape of a partition with no reads),
    ``build_replica`` (wire one replica and feed its streams), and
    ``harvest`` (post-process one replica's outputs), plus the fields
    ``memory_config`` and ``mode`` (and ``reference`` when
    ``uses_reference``).  Drivers must be picklable: they are shipped to
    worker processes together with the wave's partitions.
    """

    stage = "wave"
    #: What a lone replica is called — its modules are ``<solo>.<module>``
    #: in a profile report; the replicas of a wider wave are ``p0``,
    #: ``p1``, ...
    solo = "p0"
    #: Whether replicas need a reference SPM loaded (and hence the cache).
    uses_reference = False
    #: Whether the reference SPM holds ``(base, is_snp)`` pairs.
    with_snp = False
    # -- its row of the stage table (:data:`repro.accel.stages.STAGES`)
    #: The workload attribute listing the partitions a run covers.
    partitions = "partitions"
    #: Its :mod:`repro.perf.timing` name, when the paper models it.
    timing: Optional[str] = None
    #: Driver fields of a kernel-only run — what calibration and
    #: profiling measure.
    kernel: Dict[str, object] = {}

    @classmethod
    def over(cls, workload, **fields) -> "WaveDriver":
        """The stage's driver over a
        :class:`~repro.eval.workloads.Workload`; ``fields`` are driver
        fields (``memory_config``, ``mode``)."""
        if cls.uses_reference:
            return cls(workload.reference, **fields)
        return cls(**fields)

    @classmethod
    def items(cls, workload) -> List[WaveItem]:
        """The ``(pid, partition)`` list the stage runs over."""
        return list(getattr(workload, cls.partitions))

    @classmethod
    def kernel_items(cls, workload) -> List[WaveItem]:
        """What its kernel-only runs cover, one replica each."""
        return cls.items(workload)

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

    def harvest(self, context, run: AcceleratorRun):
        """Turn one replica's writer contents into a per-partition result."""
        raise NotImplementedError

    def reference_row(self, pid: PartitionId) -> dict:
        """The REF partition row serving ``pid``."""
        return self.reference.lookup(pid)

    def shipped(self, wave: Sequence[WaveItem]) -> "WaveDriver":
        """The driver a pool task carries for ``wave``: a copy whose
        reference holds the wave's REF rows only, so a task pickles its
        wave's rows and not the whole genome."""
        if not self.uses_reference:
            return self
        driver = copy.copy(self)
        driver.reference = self.reference.only(pid for pid, _part in wave)
        return driver

    def wave_keys(self, wave: Sequence[WaveItem]) -> List[tuple]:
        """The SPM-cache keys of a wave's loads, in item order (what its
        placement tallies)."""
        if not self.uses_reference:
            return []
        return [
            SpmImageCache.key(
                self.reference_row(pid), self.memory_config, self.with_snp
            )
            for pid, _part in wave
        ]

    def run_wave(
        self, wave: Sequence[WaveItem], probe=None
    ) -> Tuple[Dict[PartitionId, object], RunStats, Tuple[int, ...]]:
        """Simulate one wave; returns per-partition results, the wave's
        engine statistics, and each item's SPM load cycles, in order (0
        for a driver without a reference; the replicas load
        concurrently, so the wave charges the slowest load).

        ``probe`` — e.g. a :class:`repro.obs.Profiler` — is attached to
        the engine before it runs, to report the run afterwards (not the
        SPM load and drain phases: the same fixed setup work for every
        stage)."""
        engine = Engine(MemorySystem(self.memory_config))
        contexts = []
        load_cycles = []
        for index, (pid, part) in enumerate(wave):
            spm: Optional[Scratchpad] = None
            base = 0
            load_stats: Optional[RunStats] = None
            if self.uses_reference:
                ref_row = self.reference_row(pid)
                spm, load_stats = load_reference_spm(
                    ref_row, self.memory_config, self.with_snp
                )
                base = spm_base(ref_row)
            load_cycles.append(load_stats.cycles if load_stats else 0)
            name = self.solo if len(wave) == 1 else f"p{index}"
            context = self.build_replica(engine, name, part, spm, base)
            contexts.append((pid, context, spm, load_stats))
        if probe is not None:
            probe.attach(engine)
        stats = engine.run(mode=self.mode)
        results = {
            pid: self.harvest(context, AcceleratorRun(
                stats, load_stats, spm.reads if spm is not None else 0
            ))
            for pid, context, spm, load_stats in contexts
        }
        if probe is None:  # a probe reads the engine after the wave
            engine.release()
        return results, stats, tuple(load_cycles)

    def run_one(self, part: Table):
        """One replica through :meth:`run_wave` — the whole of every
        serial runner (whose driver's reference, if it uses one, is a
        :func:`~repro.accel.common.solo_reference`)."""
        results, _stats, _load_cycles = self.run_wave([(SOLO, part)])
        return results[SOLO]


# -- aggregate statistics ------------------------------------------------------------


@dataclass
class WorkerStats:
    """One worker's share of a partitioned run."""

    waves: int = 0
    cycles: int = 0
    wall_seconds: float = 0.0
    elapsed_seconds: float = 0.0


class RunRates:
    """The figures derived from a run's tallies — shared by the
    per-card :class:`ParallelRunStats` and the cross-device
    :class:`~repro.accel.sharding.ShardedRunStats`."""

    @property
    def waves(self) -> int:
        return len(self.per_wave_cycles)

    @property
    def total_cycles(self) -> int:
        return sum(self.per_wave_cycles)

    @property
    def faults_injected(self) -> int:
        return sum(self.faults_by_kind.values())

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


@dataclass
class ParallelRunStats(RunRates):
    """Aggregate statistics of one card of a waved
    multi-pipeline run.

    :func:`~repro.accel.sharding.run_sharded` keeps one per card and
    tallies each wave placed there (:meth:`book`) with the faults and
    retries its ladder took (:meth:`book_ladder`); every ``int``/``float``
    field declared here is additive, and
    :class:`~repro.accel.sharding.ShardedRunStats` reports it as the sum
    over its cards.

    Besides the simulated-cycle accounting, the host-side fields
    aggregate the engine's metrics across waves so multi-workload sweeps
    can report how many module ticks the max-plus solution saved
    (``ticks_executed`` vs ``ticks_possible``), and
    the scheduler fields record how the waves were spread over host
    workers and what the SPM image cache saved.
    """

    #: Simulated cycles per wave, in placement (ascending global index) order.
    per_wave_cycles: List[int] = field(default_factory=list)
    spm_load_cycles: int = 0
    # host-side (simulator throughput) metrics, summed over waves
    wall_seconds: float = 0.0
    ticks_executed: int = 0
    ticks_possible: int = 0
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
    faults_by_kind: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    backoff_seconds: float = 0.0
    watchdog_timeouts: int = 0
    serial_fallback_waves: int = 0
    pool_restarts: int = 0
    #: Which card this is (``None`` on a wave's own ladder tallies).
    device: Optional[int] = None

    def book(self, worker: str, outcome: "WaveOutcome") -> None:
        """Tally one wave's clean execution on ``worker`` (its SPM-cache
        tallies are the card cache's, taken when the run is merged)."""
        stats = outcome.stats
        self.spm_load_cycles += outcome.wave_load_cycles
        self.wall_seconds += stats.wall_seconds
        self.ticks_executed += stats.ticks_executed
        self.ticks_possible += stats.ticks_possible
        self.total_flits += sum(stats.flits_by_module.values())
        tally = self.per_worker.setdefault(worker, WorkerStats())
        tally.waves += 1
        tally.cycles += stats.cycles
        tally.wall_seconds += stats.wall_seconds
        tally.elapsed_seconds += outcome.elapsed_seconds

    def book_ladder(self, wave: "ParallelRunStats") -> None:
        """Tally the faults, retries and fallbacks one wave's ladder took
        (its :attr:`WaveTask.stats`, as :func:`run_waves` kept them)."""
        for kind, count in wave.faults_by_kind.items():
            self.faults_by_kind[kind] = self.faults_by_kind.get(kind, 0) + count
        self.retries += wave.retries
        self.backoff_seconds += wave.backoff_seconds
        self.watchdog_timeouts += wave.watchdog_timeouts
        self.serial_fallback_waves += wave.serial_fallback_waves
        self.pool_restarts += wave.pool_restarts


# -- wave packing and execution ------------------------------------------------------


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


@dataclass
class WaveOutcome:
    """What solving one wave produced: the per-partition results, the
    wave's engine statistics and each item's SPM load cycles (the
    modelled half), and the host timing of the attempt (the host half).
    Picklable — it is what a pool worker ships back."""

    results: Dict[PartitionId, object]
    stats: RunStats
    #: Each item's SPM load cycles, in order — what the placement tallies
    #: (:meth:`SpmImageCache.tally`).
    load_cycles: Tuple[int, ...]
    worker_pid: int
    elapsed_seconds: float

    @property
    def wave_load_cycles(self) -> int:
        """The wave's SPM load cycles: its replicas load concurrently,
        so the slowest load."""
        return max(self.load_cycles, default=0)


def execute_wave(
    driver: WaveDriver, index: int, wave: Sequence[WaveItem]
) -> WaveOutcome:
    """Solve one wave — the primitive under every run loop (inline,
    pooled, served; module-level so it pickles).  A pure function of
    the driver, the items and the ambient engine mode: it takes nothing
    from its caller's cache, so where it ran and who asked move nothing
    it returns but host timing."""
    started = time.perf_counter()
    results, stats, load_cycles = driver.run_wave(wave)
    elapsed = time.perf_counter() - started
    _log.debug(
        "wave %d done: %d replicas, %d cycles, %.3fs",
        index, len(wave), stats.cycles, elapsed,
        extra={"stage": driver.stage, "wave": index},
    )
    return WaveOutcome(
        results=results, stats=stats, load_cycles=load_cycles,
        worker_pid=os.getpid(), elapsed_seconds=elapsed,
    )


def _enter_worker() -> None:
    """Every pool worker's first call: stamp its log records
    ``w<pid>``."""
    set_worker_id(f"w{os.getpid()}")


@dataclass
class WavePool:
    """A pool of wave workers: the executor and how many processes it
    holds."""

    executor: ProcessPoolExecutor
    size: int


#: The pool the last run released clean.  A pool is either kept here or
#: held by the one :func:`run_waves` that took it, never both.
_kept: Optional[WavePool] = None


def wave_pool(workers: int, most_waves: int) -> Optional[WavePool]:
    """The one place a process pool is built — and kept.  ``None`` —
    execute inline in the parent — when fewer than two waves can ever be
    in flight (``workers`` processes wanted, at most ``most_waves`` waves
    at a time): a pool of one only adds pickling.

    The kept pool is handed back when it fits: no smaller than the
    ``min(workers, most_waves)`` processes this run can use, no larger
    than the ``workers`` it allows.  One that does not fit is shut down
    and replaced.  Workers come up through :func:`_enter_worker` and
    take nothing from the parent: a kept worker may be older than
    anything the parent holds, so what an attempt needs travels with its
    task (:func:`_pool_task`), and what a worker records for itself —
    its phase memo — stays with it from run to run."""
    global _kept
    size = min(workers, most_waves)
    if size < 2:
        return None
    pool, _kept = _kept, None
    if pool is not None:
        if size <= pool.size <= workers:
            return pool
        release_pool(pool, keep=False)
    return WavePool(
        ProcessPoolExecutor(max_workers=size, initializer=_enter_worker),
        size,
    )


def release_pool(pool: WavePool, keep: bool) -> None:
    """Hand back a pool :func:`wave_pool` gave out: kept for the next
    run when ``keep`` (the caller vouches it is unbroken and idle) and
    no other pool is, else shut down with its workers reaped."""
    global _kept
    if keep and _kept is None:
        _kept = pool
    else:
        pool.executor.shutdown(wait=True, cancel_futures=True)


def drop_kept_pool() -> None:
    """Shut the kept pool down, if there is one: the next pooled run
    forks afresh (test isolation; a host that wants its idle workers
    gone)."""
    global _kept
    pool, _kept = _kept, None
    if pool is not None:
        release_pool(pool, keep=False)


def _pool_task(
    driver, index, wave, mode, fault_kind, hang_seconds, attempt,
):
    """Worker-side wave attempt: enact the parent's injection decision
    for this attempt (decided deterministically before submission), else
    :func:`execute_wave`.  An injected hang sleeps ``hang_seconds`` so
    the parent's watchdog genuinely fires, a ``worker_crash`` dies for
    real (``os._exit``, surfacing as ``BrokenProcessPool`` in the
    parent), and every other kind raises its
    :class:`~repro.faults.injector.InjectedFaultError` subclass, which
    travels back through the future like a real worker failure would.

    A worker takes nothing from the moment it was forked: the task is
    the wave, its driver with the wave's REF rows only
    (:meth:`WaveDriver.shipped`) and the parent's ambient engine
    ``mode`` as of this attempt — no SPM-cache state.
    """
    if fault_kind is not None:
        if fault_kind == "wave_timeout" and hang_seconds > 0:
            time.sleep(hang_seconds)
        if fault_kind == "worker_crash":
            os._exit(1)  # a genuine process death, not an exception
        raise FAULT_EXCEPTIONS[fault_kind](WAVE_FAULT_SITE, index, attempt)
    Engine.default_mode = mode
    return execute_wave(driver, index, wave)


@dataclass
class WaveTask:
    """One wave as :func:`run_waves` drives it."""

    #: The wave's identity: its ``scheduler.wave`` fault slot, its retry
    #: backoff key and the ``wave`` of its ``fault.*`` events.
    index: int
    driver: WaveDriver
    items: Sequence[WaveItem]
    #: Where the wave's faults, retries and fallbacks are tallied.
    stats: ParallelRunStats = field(default_factory=ParallelRunStats)
    #: The failed attempts its ladder retried, in attempt order; the
    #: caller records them with the wave's outcome.
    retried: List[FailedAttempt] = field(default_factory=list)
    #: Its owner's memo; ``None`` (a direct run, whose waves never
    #: repeat) replays and records nothing.
    memo: Optional[WaveMemo] = None
    #: Computed once: the SPM-cache keys the wave's placement tallies,
    #: and — when a memo is attached — its memo key (:meth:`WaveMemo.key`).
    keys: List[tuple] = field(init=False)
    memo_key: Optional[MemoKey] = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.keys = self.driver.wave_keys(self.items)
        if self.memo is not None:
            self.memo_key = self.memo.key(self.driver, self.keys, self.items)

    def replay(self) -> Optional["WaveOutcome"]:
        """The wave as its memo recorded it, or ``None``."""
        return self.memo.replay(self) if self.memo is not None else None

    def record(self, outcome: "WaveOutcome") -> None:
        """Keep a simulated outcome in the memo, if one is attached."""
        if self.memo is not None:
            self.memo.record(self, outcome)

    @property
    def backoff_seconds(self) -> float:
        """The backoff its ladder charged, summed over the retried
        attempts — the penalty ahead of the wave on its card."""
        return sum(failed.backoff_seconds for failed in self.retried)


def run_waves(
    tasks: Iterable[WaveTask],
    fan_out: int,
    injector: Optional[FaultInjector] = None,
    retry_policy: Optional[RetryPolicy] = None,
    wave_timeout: Optional[float] = None,
) -> Iterator[
    Tuple[WaveTask, str, Union[WaveOutcome, RetryBudgetExceeded]]
]:
    """The wave executor: drive every task down its retry ladder and
    yield ``(task, worker label, outcome)`` for each — in task order when
    the waves run inline, in completion order on the pool.  The outcome
    is the wave's clean execution (a replay, worker ``memo`` on the pool,
    when its task's :class:`WaveMemo` holds the wave) or, when its ladder ran
    out, the :class:`~repro.faults.injector.RetryBudgetExceeded` saying
    so: a wave out of budget fails alone, and every other task still runs.

    It feeds one process pool of ``fan_out`` processes
    (:func:`wave_pool`), or runs inline when that — or the task count —
    is 1.  It holds the pool exactly as long as the generator lives
    (exhausted, or abandoned with ``.close()``) and then releases it
    (:func:`release_pool`): the pool outlives the run, kept for the
    next one, only if it is unbroken and every future submitted to it
    was collected — a broken pool, one a watchdog gave up a future on
    and one closed over futures in flight are shut down.  Placing an
    outcome (its SPM-cache tallies, results, accounting, the task's
    ``retried`` attempts) is the caller's; a solve takes nothing from
    the caller, so an outcome is the same whether the caller places it
    between two yields or after the last.  Every decision that
    reaches the ledger (fault injection, retry, backoff, exhaustion) is
    taken in the parent, keyed by ``(index, attempt)``, so it is
    identical for every pool size.

    Resilience: ``injector`` injects the deterministic faults of
    its :class:`~repro.faults.plan.FaultPlan` at the ``scheduler.wave``
    site (slot = task index, decided in the parent before dispatch).
    Failed wave attempts — injected or real — are retried under
    ``retry_policy`` (default :class:`~repro.faults.retry.RetryPolicy`)
    with exponential backoff; ``wave_timeout`` arms a watchdog deadline
    (seconds) around every pool future.  A wave walks one ladder with
    one budget, counted from attempt 0 whatever rung it is on: retry →
    requeue → pool restart → serial in-process fallback, that last rung
    only for the waves of a pool that kept dying, which resume their
    budget there.  Non-injected exceptions from driver code propagate
    immediately — they are deterministic bugs, not infrastructure
    failures.
    """
    if wave_timeout is not None and wave_timeout <= 0:
        raise ValueError("wave_timeout must be positive seconds")
    policy = retry_policy if retry_policy is not None else RetryPolicy()
    tasks = list(tasks)

    # -- resilience accounting ------------------------------------------------------

    #: Injected faults booked so far; a re-poll after a pool rebuild
    #: must not double-count the same (kind, wave, attempt) decision.
    accounted_faults: Set[Tuple[str, int, int]] = set()

    def account_fault(kind, task, attempt):
        key = (kind, task.index, attempt)
        if key in accounted_faults:
            return
        accounted_faults.add(key)
        by_kind = task.stats.faults_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1

    def account_failure(task, failed: FailedAttempt):
        """Book one failed attempt the ladder accounted, on either rung."""
        if failed.exhausted:
            return
        task.stats.retries += 1
        task.stats.backoff_seconds += failed.backoff_seconds
        task.retried.append(failed)
        _log.info(
            "wave %d attempt %d failed (%s); retrying after %.3fs",
            task.index, failed.attempt, failed.kind, failed.backoff_seconds,
            extra={"stage": task.driver.stage, "wave": task.index},
        )

    def wave_ladder(task, start_attempt=0, worker="w0"):
        """The task's retry ladder (real sleeps); every injection
        decision is taken here, in the parent."""
        return RetryLadder(
            injector, policy, WAVE_FAULT_SITE, task.index, start_attempt,
            subject=f"wave {task.index}",
            context=dict(stage=task.driver.stage, worker=worker),
        )

    def run_wave_serial(task, start_attempt=0, worker="w0"):
        """One wave down the serial ladder, then the clean attempt."""
        try:
            for failed in wave_ladder(task, start_attempt, worker):
                account_fault(failed.kind, task, failed.attempt)
                account_failure(task, failed)
        except RetryBudgetExceeded as error:
            return task, worker, error
        outcome = task.replay()
        if outcome is None:
            outcome = execute_wave(task.driver, task.index, task.items)
            task.record(outcome)
        return task, worker, outcome

    pool = wave_pool(fan_out, len(tasks))
    if pool is None:
        for task in tasks:
            yield run_wave_serial(task)
        return

    worker_pids: Dict[int, str] = {}
    # ready holds (task, attempt) pairs awaiting (re)submission;
    # spent the waves whose ladder ran out, with its error; serial_waves
    # the waves of a pool that kept dying, for the in-process pass after
    # the pool drains.
    ready = deque((task, 0) for task in tasks)
    pending: Dict[object, Tuple[WaveTask, int, Optional[float]]] = {}
    spent: Deque[Tuple[WaveTask, RetryBudgetExceeded]] = deque()
    serial_waves: List[Tuple[WaveTask, int]] = []
    pool_restarts = 0
    #: A watchdog-expired future is never collected and its worker may
    #: still be running it: a run that gave one up keeps no pool.
    abandoned = False

    def submit(task, attempt):
        ladder = wave_ladder(task, worker="pool")
        if attempt == 0:  # ledger its injections in ladder order
            ladder.record_ahead()
        fault = ladder.poll(attempt)
        fault_kind = None
        hang = 0.0
        if fault is None:  # cleared: a wave the memo holds is replayed
            replayed = task.replay()
            if replayed is not None:
                return replayed
        else:
            fault_kind = fault.kind
            account_fault(fault_kind, task, attempt)
            if fault_kind == "wave_timeout" and wave_timeout is not None:
                # hang long enough that the parent watchdog fires
                # first, short enough that pool shutdown stays quick
                hang = min(wave_timeout * 2, wave_timeout + 1.0)
        future = pool.executor.submit(
            _pool_task, task.driver.shipped(task.items), task.index,
            task.items, Engine.default_mode, fault_kind, hang, attempt,
        )
        deadline = (
            time.monotonic() + wave_timeout
            if wave_timeout is not None else None
        )
        pending[future] = (task, attempt, deadline)

    def requeue(task, attempt, kind):
        """The ladder after a failed attempt: retry on the pool while
        the budget lasts, else the wave is spent."""
        ladder = wave_ladder(task, worker="pool")
        failed = ladder.fail(attempt, kind)
        account_failure(task, failed)
        if failed.exhausted:
            spent.append((task, ladder.exceeded(failed)))
        else:
            ready.append((task, attempt + 1))

    try:
        while ready or pending:
            while spent:
                task, error = spent.popleft()
                yield task, "pool", error
            broken = False
            try:
                while ready:
                    task, attempt = ready.popleft()
                    replayed = submit(task, attempt)
                    if replayed is not None:
                        yield task, "memo", replayed
            except BrokenProcessPool:
                ready.appendleft((task, attempt))
                broken = True
            if not broken and pending:
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
                    task, attempt, _deadline = pending[future]
                    try:
                        outcome = future.result()
                    except InjectedFaultError as error:
                        del pending[future]
                        requeue(task, attempt, error.kind)
                    except BrokenProcessPool:
                        # leave it in pending: the broken-pool
                        # handler below attributes the crash
                        broken = True
                    else:
                        del pending[future]
                        task.record(outcome)
                        yield task, worker_pids.setdefault(
                            outcome.worker_pid, f"w{len(worker_pids)}"
                        ), outcome
            if broken:
                pool_restarts += 1
                # the pool is shared by every task: its restarts are
                # booked on, and ledgered under the stage of, the first
                tasks[0].stats.pool_restarts += 1
                record_event(
                    "fault.pool_restart",
                    stage=tasks[0].driver.stage, restarts=pool_restarts,
                )
                # attribute the break: a pending wave whose attempt
                # has a worker_crash due killed the pool — advance
                # it through the retry ladder; innocent bystanders
                # resubmit at the same attempt (no retry charged).
                for task, attempt, _deadline in pending.values():
                    due = (
                        injector.due(WAVE_FAULT_SITE, task.index, attempt)
                        if injector is not None else None
                    )
                    if due is not None and due.kind == "worker_crash":
                        requeue(task, attempt, due.kind)
                    else:
                        ready.append((task, attempt))
                pending.clear()
                release_pool(pool, keep=False)
                pool = None
                if pool_restarts > POOL_RESTART_BUDGET:
                    _log.warning(
                        "%s: pool died %d times; degrading %d wave(s) "
                        "to serial execution",
                        tasks[0].driver.stage, pool_restarts, len(ready),
                        extra={"stage": tasks[0].driver.stage},
                    )
                    while ready:
                        task, attempt = ready.popleft()
                        task.stats.serial_fallback_waves += 1
                        record_event(
                            "fault.serial_fallback",
                            stage=task.driver.stage, wave=task.index,
                            attempt=attempt, reason="pool kept dying",
                        )
                        serial_waves.append((task, attempt))
                    break
                pool = wave_pool(fan_out, len(tasks))
                continue
            if wave_timeout is not None:
                now = time.monotonic()
                for future in list(pending):
                    task, attempt, deadline = pending[future]
                    if deadline is not None and now >= deadline:
                        del pending[future]
                        abandoned = True
                        task.stats.watchdog_timeouts += 1
                        record_event(
                            "fault.watchdog_timeout",
                            stage=task.driver.stage, wave=task.index,
                            attempt=attempt,
                            timeout_seconds=wave_timeout,
                        )
                        requeue(task, attempt, "wave_timeout")
    finally:
        if pool is not None:
            # kept only when every future submitted to it was collected
            release_pool(pool, keep=not (pending or abandoned))

    while spent:
        task, error = spent.popleft()
        yield task, "pool", error
    for task, attempt in sorted(
        serial_waves, key=lambda entry: entry[0].index
    ):
        yield run_wave_serial(task, start_attempt=attempt, worker="serial")
