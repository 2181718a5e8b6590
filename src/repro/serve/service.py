"""The multi-tenant job service: a deterministic event loop over a
virtual clock that time-multiplexes a :class:`~repro.runtime.device.
DevicePool` across tenants.

Determinism model
-----------------

The service clock counts *accelerator cycles*, never wall time.  Every
scheduling decision — admission, WFQ tenant pick, device assignment,
fault injection, retry backoff, completion order — is a pure function
of the submission trace, the topology, and the fault seed:

* arrivals are admitted in ``(at_cycles, submission order)`` order;
* a dispatch round fills free devices in index order from
  :meth:`JobQueue.next_wave` (deterministic WFQ with name tie-breaks);
* a wave's virtual duration is ``transfer + spm_load + simulated
  cycles + fault backoff``, all deterministic quantities;
* completions are processed in ``(end_cycles, device)`` order.

Host-side execution is *eager*: a dispatched wave is simulated (or,
solved here before, replayed from :attr:`JobService.memo`) at once and
only its virtual completion is deferred to ``clock + duration``.  Each
round's picks go, one :class:`~repro.accel.scheduler.WaveTask` apiece,
through the one wave executor (:func:`~repro.accel.scheduler.run_waves`
— inline, or on the pool of ``min(workers, picks)`` processes the
executor keeps from round to round).  A solve takes nothing from the
service; the outcomes are placed afterwards, in dispatch order: each
wave's SPM loads are tallied against the keys the cache held when the
round began (:meth:`~repro.accel.scheduler.SpmImageCache.tally`) and
its card charged (:meth:`~repro.runtime.device.DevicePool.charge_wave`)
— so results, cycles, tallies and the entire virtual timeline are
bit-identical for every ``workers`` value.

Faults are polled at one site, ``scheduler.wave`` (slot = the dispatch
``seq``): a served wave walks the executor's one retry ladder like any
other wave — retry → requeue → pool restart → serial fallback, for
injected faults and real worker deaths alike, under one budget.  Each
retry it charged is one ``serve.retry`` event at the dispatch clock,
and the backoff the ladder charged, ``round(backoff × clock_hz)``,
becomes penalty cycles ahead of the wave.  A wave that runs out of
budget fails its own job (an explicit ``serve.job.failed`` the client
can see) and nothing else: :meth:`run` carries on with every other
job.  The wave's simulation is never perturbed, so bit-identity of
results survives any fault plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from ..accel.scheduler import SpmImageCache, WaveMemo, WaveTask, run_waves
from ..accel.sharding import record_storage_wave
from ..faults.injector import FaultInjector, RetryBudgetExceeded
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..tables.partition import PartitionId
from ..obs.ledger import record_event
from ..obs.spans import TraceSpan, WaveTimeline, trace_spans
from ..runtime.device import DevicePool, WaveStorage
from .job import (
    COMPLETED,
    FAILED,
    QUEUED,
    REJECTED,
    RUNNING,
    Job,
    JobSpec,
    JobStatus,
)
from .queue import JobQueue, TenantAccount


@dataclass
class _Dispatch:
    """One wave picked in a dispatch round."""

    job: Job
    wave_index: int
    device: int
    seq: int


@dataclass
class _Inflight:
    """A dispatched wave awaiting its virtual completion."""

    dispatch: _Dispatch
    results: Dict[PartitionId, object]
    timeline: WaveTimeline
    #: The attempt that ran clean.
    attempt: int


@dataclass
class ServeSummary:
    """Deterministic end-of-run accounting (virtual time throughout)."""

    clock_cycles: int
    jobs_admitted: int
    jobs_rejected: int
    jobs_completed: int
    jobs_failed: int
    waves_dispatched: int
    retries: int
    faults: Dict[str, int]
    tenants: Dict[str, TenantAccount]
    device_busy_seconds: List[float]
    device_transfer_seconds: List[float]
    spm_hits: int
    spm_misses: int
    spm_cycles_saved: int
    host_elapsed_seconds: float

    def render(self) -> str:
        lines = [
            f"serve: clock {self.clock_cycles} cycles, "
            f"{self.jobs_admitted} admitted / {self.jobs_rejected} rejected, "
            f"{self.jobs_completed} completed / {self.jobs_failed} failed, "
            f"{self.waves_dispatched} waves, {self.retries} retries",
            f"serve: spm cache {self.spm_hits} hits / {self.spm_misses} "
            f"misses, {self.spm_cycles_saved} cycles saved; host "
            f"{self.host_elapsed_seconds:.2f}s",
        ]
        for index, busy in enumerate(self.device_busy_seconds):
            lines.append(
                f"  device {index}: busy {busy * 1e3:.3f} ms, transfer "
                f"{self.device_transfer_seconds[index] * 1e3:.3f} ms"
            )
        for tenant in sorted(self.tenants):
            t = self.tenants[tenant]
            lines.append(
                f"  tenant {tenant}: {t.completed}/{t.admitted} done "
                f"({t.rejected} rejected), {t.cycles} cycles, "
                f"p50 {t.p50_latency_cycles} / p99 {t.p99_latency_cycles} "
                "cycles latency"
            )
        return "\n".join(lines)


@dataclass
class ServiceCheckpoint:
    """Everything :meth:`JobService.drain` hands to
    :meth:`JobService.resume`: the virtual clock, the queue with every
    open job (in-flight waves already requeued), the not-yet-admitted
    arrivals, and the live device pool, fault injector and event
    mirror — so occupancy charged and events recorded (hence the trace
    folded from them) before the drain all carry over."""

    clock: int
    dispatch_seq: int
    next_job_id: int
    jobs: Dict[int, Job]
    queue: JobQueue
    arrivals: List[Tuple[int, int, JobSpec]]
    #: The next arrival's submission number: pending arrivals keep
    #: theirs, so post-resume arrivals must keep counting past them.
    arrival_seq: int
    workers: int
    retry_policy: RetryPolicy
    pool: DevicePool
    injector: Optional[FaultInjector]
    #: Every event recorded so far: :attr:`JobService.events` continues it.
    events: List[Tuple[str, Dict[str, object]]]
    retries: int = 0

    @property
    def open_jobs(self) -> int:
        return self.queue.open_jobs()

    @property
    def storage(self) -> Optional[WaveStorage]:
        return self.pool.storage


class JobService:
    """Long-lived multi-tenant scheduler over the Genesis runtime.

    Client path: :meth:`submit` (immediate) or :meth:`schedule`
    (arrival trace), :meth:`status` / :meth:`partial_results` /
    :meth:`results` to observe, :meth:`drain` + :meth:`resume` for a
    graceful restart.  :meth:`run` advances the virtual clock.

    Pass ``storage`` (a :class:`~repro.storage.filter.StorageFilterPlan`)
    to put the modelled in-SSD filter in front of every device's PCIe
    link: wave
    transfers are charged at their survivor footprint and each wave
    gets a ``storage.wave`` event, which traces as a scan span on its
    device's ``storage:N`` lane (DESIGN.md §3.10).  Kernel cycles, results,
    and the dispatch order are unchanged by construction — only the
    transfer segment of each wave's virtual duration shrinks.
    """

    def __init__(
        self,
        devices: int = 1,
        workers: int = 1,
        max_backlog: int = 64,
        quota: int = 8,
        weights: Optional[Dict[str, float]] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        storage: Optional[WaveStorage] = None,
    ) -> None:
        if devices < 1:
            raise ValueError("need at least one device")
        if workers < 1:
            raise ValueError("need at least one worker")
        self.devices = devices
        self.workers = workers
        self.clock = 0
        self.queue = JobQueue(
            max_backlog=max_backlog, quota=quota, weights=weights
        )
        self.cache = SpmImageCache()
        #: Every wave solved here: a repeat replays, still charged in full.
        self.memo = WaveMemo()
        self.pool = DevicePool(devices, storage=storage)
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        self._jobs: Dict[int, Job] = {}
        self._arrivals: List[Tuple[int, int, JobSpec]] = []
        self._arrival_seq = 0
        self._next_job_id = 0
        self._dispatch_seq = 0
        self._inflight: Dict[int, _Inflight] = {}
        self._retries = 0
        self._host_seconds = 0.0
        #: Tenant -> its account as the last summary took it.
        self._snapshots: Dict[str, TenantAccount] = {}
        #: In-memory mirror of every ledger event the service records,
        #: in order — what :meth:`spans` folds and the
        #: replay/property tests compare.
        self.events: List[Tuple[str, Dict[str, object]]] = []

    @property
    def storage(self) -> Optional[WaveStorage]:
        """The in-SSD filter in front of the cards, if any."""
        return self.pool.storage

    # -- client path ---------------------------------------------------------

    def schedule(self, spec: JobSpec, at_cycles: int) -> None:
        """Enqueue an arrival for admission when the virtual clock
        reaches ``at_cycles``."""
        if at_cycles < self.clock:
            at_cycles = self.clock
        self._arrivals.append((at_cycles, self._arrival_seq, spec))
        self._arrival_seq += 1
        self._arrivals.sort(key=lambda item: (item[0], item[1]))

    def submit(self, spec: JobSpec) -> JobStatus:
        """Admit (or reject) a job at the current virtual clock."""
        return JobStatus.of(self._admit(spec, self.clock))

    def status(self, job_id: int) -> JobStatus:
        return JobStatus.of(self._jobs[job_id])

    def partial_results(self, job_id: int) -> Dict[PartitionId, object]:
        """Snapshot of per-partition results completed so far — the
        streaming-results path: callable while the job is running."""
        return dict(self._jobs[job_id].results)

    def results(self, job_id: int) -> Dict[PartitionId, object]:
        job = self._jobs[job_id]
        if job.state != COMPLETED:
            raise RuntimeError(
                f"job {job_id} is {job.state}, not {COMPLETED}"
            )
        return job.results

    def stream(self, job_id: int) -> Iterator[JobStatus]:
        """Yield a status snapshot after every clock advance until the
        job leaves the open set."""
        job = self._jobs[job_id]
        while job.is_open and (self._inflight or self._arrivals
                               or self.queue.pending_waves()):
            self.run(max_dispatches=1)
            yield self.status(job_id)
        yield self.status(job_id)

    def jobs(self) -> List[JobStatus]:
        return [JobStatus.of(job) for _id, job in sorted(self._jobs.items())]

    # -- admission -----------------------------------------------------------

    def _admit(self, spec: JobSpec, at_cycles: int) -> Job:
        job = Job.admit(self._next_job_id, spec, at_cycles)
        self._next_job_id += 1
        self._jobs[job.job_id] = job
        reason = self.queue.try_admit(job)
        if reason is not None:
            job.state = REJECTED
            job.pending = []
            self._event(
                "serve.reject",
                tenant=job.tenant, job=job.job_id, stage=job.stage,
                reason=reason, clock=at_cycles,
            )
        else:
            self._event(
                "serve.admit",
                tenant=job.tenant, job=job.job_id, stage=job.stage,
                waves=len(job.waves), partitions=len(spec.partitions),
                clock=at_cycles,
            )
        return job

    def _admit_due(self) -> None:
        while self._arrivals and self._arrivals[0][0] <= self.clock:
            _at, _seq, spec = self._arrivals.pop(0)
            self._admit(spec, self.clock)

    # -- the event loop ------------------------------------------------------

    def run(self, max_dispatches: Optional[int] = None) -> ServeSummary:
        """Advance the virtual clock until idle, or until
        ``max_dispatches`` waves have been dispatched in this call
        (leaving later work, and any in-flight waves, for a later
        ``run`` or a :meth:`drain`)."""
        started = time.perf_counter()
        budget = max_dispatches
        while True:
            self._admit_due()
            if budget is not None and budget <= 0:
                break
            dispatched = self._dispatch_round(budget)
            if budget is not None:
                budget -= dispatched
            if dispatched:
                continue
            next_times = []
            if self._inflight:
                next_times.append(min(
                    rec.timeline.end for rec in self._inflight.values()
                ))
            if self._arrivals:
                next_times.append(self._arrivals[0][0])
            if not next_times:
                break
            self.clock = max(self.clock, min(next_times))
            self._complete_due()
        self._host_seconds += time.perf_counter() - started
        return self.summary()

    def run_until_idle(self) -> ServeSummary:
        return self.run(max_dispatches=None)

    def _dispatch_round(self, limit: Optional[int]) -> int:
        picks: List[_Dispatch] = []
        for device in range(self.devices):
            if device in self._inflight:
                continue
            if limit is not None and len(picks) >= limit:
                break
            choice = self.queue.next_wave()
            if choice is None:
                break
            picks.append(self._dispatch(*choice, device))
        if picks:
            self._execute(picks)
        return len(picks)

    def _dispatch(self, job: Job, wave_index: int, device: int) -> _Dispatch:
        seq = self._dispatch_seq
        self._dispatch_seq += 1
        if job.state == QUEUED:
            job.state = RUNNING
        if job.first_dispatch_cycles is None:
            job.first_dispatch_cycles = self.clock
        cost = sum(
            part.num_rows for _pid, part in job.waves[wave_index]
        )
        self.queue.charge_rows(job.tenant, cost)
        # every dispatch starts its wave's ladder at attempt 0; the
        # attempt that ran clean is on its serve.wave.done
        self._event(
            "serve.dispatch",
            seq=seq, tenant=job.tenant, job=job.job_id, stage=job.stage,
            wave=wave_index, device=device, clock=self.clock,
            attempt=0, cost_rows=cost,
        )
        return _Dispatch(job, wave_index, device, seq)

    def _fail_job(self, job: Job, wave_index: int) -> None:
        job.state = FAILED
        job.pending = []
        self.queue.close(job)
        self.queue.account(job.tenant).failed += 1
        self._event(
            "serve.job.failed",
            tenant=job.tenant, job=job.job_id, stage=job.stage,
            wave=wave_index, clock=self.clock,
        )

    # -- execution (eager host-side, deferred virtual completion) ------------

    def _execute(self, picks: List[_Dispatch]) -> None:
        # one task per pick, its dispatch seq the fault slot; outcomes
        # are placed after the executor is done, in dispatch order, each
        # wave's loads tallied against the keys held as the round began
        tasks = [
            WaveTask(
                pick.seq, pick.job.spec.driver,
                pick.job.waves[pick.wave_index], memo=self.memo,
            )
            for pick in picks
        ]
        held = self.cache.keys()
        outcomes = {
            task.index: outcome
            for task, _worker, outcome in run_waves(
                tasks, self.workers, self.injector, self.retry_policy
            )
        }
        for pick, task in zip(picks, tasks):
            job = pick.job
            for failed in task.retried:
                self._retries += 1
                self._event(
                    "serve.retry",
                    tenant=job.tenant, job=job.job_id, wave=pick.wave_index,
                    attempt=failed.attempt, kind=failed.kind,
                    backoff_seconds=failed.backoff_seconds, clock=self.clock,
                )
            wave, outcome = task.items, outcomes[pick.seq]
            if isinstance(outcome, RetryBudgetExceeded):
                if job.is_open:
                    self._fail_job(job, pick.wave_index)
                continue
            self.cache.tally(task.keys, outcome.load_cycles, held)
            if self.storage is not None:
                record_storage_wave(
                    self.storage, wave, emit=self._event,
                    tenant=job.tenant, job=job.job_id, stage=job.stage,
                    wave=pick.wave_index, device=pick.device,
                )
            self._inflight[pick.device] = _Inflight(
                pick, outcome.results, self.pool.charge_wave(
                    pick.device, wave, outcome.stats.cycles,
                    outcome.wave_load_cycles, task.backoff_seconds,
                    at=self.clock,
                ), attempt=len(task.retried),
            )

    # -- completion ----------------------------------------------------------

    def _complete_due(self) -> None:
        due = sorted(
            (rec.timeline.end, device)
            for device, rec in self._inflight.items()
            if rec.timeline.end <= self.clock
        )
        for end_cycles, device in due:
            self._finish(device, end_cycles)

    def _finish(self, device: int, end_cycles: int) -> None:
        rec = self._inflight.pop(device)
        job = rec.dispatch.job
        wave_index = rec.dispatch.wave_index
        job.results.update(rec.results)
        job.wave_cycles[wave_index] = rec.timeline.kernel
        job.wave_load_cycles[wave_index] = rec.timeline.load
        job.waves_done += 1
        charged = rec.timeline.kernel + rec.timeline.load
        self.queue.charge_cycles(job.tenant, charged)
        self._event(
            "serve.wave.done",
            tenant=job.tenant, job=job.job_id, wave=wave_index,
            device=device, **rec.timeline.to_record(),
            attempt=rec.attempt,
        )
        if job.waves_done == len(job.waves) and job.state == RUNNING:
            job.finalize(end_cycles)
            self.queue.close(job)
            account = self.queue.account(job.tenant)
            account.completed += 1
            account.latencies.append(job.latency_cycles)
            self._event(
                "serve.job.done",
                tenant=job.tenant, job=job.job_id, stage=job.stage,
                waves=len(job.waves),
                latency_cycles=job.latency_cycles,
                queue_cycles=job.queue_cycles,
                service_cycles=job.service_cycles,
                arrival_cycles=job.arrival_cycles,
                clock=end_cycles,
            )

    # -- drain / resume ------------------------------------------------------

    def drain(self) -> ServiceCheckpoint:
        """Stop gracefully: requeue every in-flight wave (its computed
        results are discarded — the wave re-runs after resume, bit-
        identically) and hand back a checkpoint a fresh service can
        :meth:`resume` from.  The ledger records the drain so the
        restart trail is auditable."""
        requeued = 0
        for device in sorted(self._inflight):
            rec = self._inflight.pop(device)
            job = rec.dispatch.job
            wave_index = rec.dispatch.wave_index
            job.requeue(wave_index)
            # the aborted wave frees its card at the drain clock
            self.pool.free_at[device] = self.clock
            self._event(
                "serve.wave.aborted",
                tenant=job.tenant, job=job.job_id, wave=wave_index,
                device=device, start_cycles=rec.timeline.start,
                clock=self.clock,
            )
            requeued += 1
        self._event(
            "serve.drain",
            clock=self.clock, requeued=requeued,
            open_jobs=self.queue.open_jobs(),
            pending_arrivals=len(self._arrivals),
        )
        return ServiceCheckpoint(
            clock=self.clock,
            dispatch_seq=self._dispatch_seq,
            next_job_id=self._next_job_id,
            jobs=self._jobs,
            queue=self.queue,
            arrivals=list(self._arrivals),
            arrival_seq=self._arrival_seq,
            workers=self.workers,
            retry_policy=self.retry_policy,
            pool=self.pool,
            injector=self.injector,
            events=list(self.events),
            retries=self._retries,
        )

    @classmethod
    def resume(cls, checkpoint: ServiceCheckpoint) -> "JobService":
        """Restart from a drain checkpoint: same clock, same queue state
        (with in-flight waves back on their jobs), the same cards and
        the same fault injector — the continued run merges
        bit-identically with an undisturbed one and keeps the occupancy
        already charged.  The SPM cache and the wave memo start cold and
        re-fill identically by construction."""
        service = cls(
            devices=len(checkpoint.pool),
            workers=checkpoint.workers,
            retry_policy=checkpoint.retry_policy,
        )
        service.pool = checkpoint.pool
        service.injector = checkpoint.injector
        service.clock = checkpoint.clock
        service._dispatch_seq = checkpoint.dispatch_seq
        service._next_job_id = checkpoint.next_job_id
        service._jobs = checkpoint.jobs
        service.queue = checkpoint.queue
        service._arrivals = list(checkpoint.arrivals)
        service._arrival_seq = checkpoint.arrival_seq
        service._retries = checkpoint.retries
        # continue the drained service's mirror, so whatever is read off
        # the events (the trace, the queue-wait book) sees the whole run
        service.events = checkpoint.events
        service._event(
            "serve.resume",
            clock=service.clock,
            open_jobs=service.queue.open_jobs(),
            pending_arrivals=len(service._arrivals),
        )
        return service

    # -- reporting -----------------------------------------------------------

    def spans(self) -> List[TraceSpan]:
        """The run so far as trace spans, folded from :attr:`events`."""
        return trace_spans(self.events, self.pool.config.clock_hz)

    def summary(self) -> ServeSummary:
        # snapshots: a summary must not move when the service runs on.
        # Nothing changes a snapshot, so an account unchanged since the
        # last summary hands on the snapshot that summary took.
        tenants = {}
        for name, account in sorted(self.queue.accounts.items()):
            snapshot = self._snapshots.get(name)
            if snapshot != account:
                snapshot = replace(account, latencies=list(account.latencies))
            tenants[name] = snapshot
        self._snapshots = tenants
        return ServeSummary(
            clock_cycles=self.clock,
            jobs_admitted=sum(t.admitted for t in tenants.values()),
            jobs_rejected=sum(t.rejected for t in tenants.values()),
            jobs_completed=sum(t.completed for t in tenants.values()),
            jobs_failed=sum(t.failed for t in tenants.values()),
            waves_dispatched=self._dispatch_seq,
            retries=self._retries,
            faults=(
                self.injector.counts_by_kind() if self.injector else {}
            ),
            tenants=dict(tenants),
            device_busy_seconds=self.pool.busy_seconds(),
            device_transfer_seconds=self.pool.transfer_seconds(),
            spm_hits=self.cache.hits,
            spm_misses=self.cache.misses,
            spm_cycles_saved=self.cache.cycles_saved,
            host_elapsed_seconds=self._host_seconds,
        )

    # -- events --------------------------------------------------------------

    def _event(self, event: str, **fields: object) -> None:
        self.events.append((event, fields))
        record_event(event, **fields)
