"""Job model for the multi-tenant service.

A *job* is one stage (markdup / metadata / bqsr) over one partition
set, submitted by one tenant.  At admission the service packs the
job's partitions into waves with the exact :func:`~repro.accel.
scheduler.pack_waves` a direct run uses, so a wave executed by the
service is byte-for-byte the wave ``run_sharded`` would have executed —
the root of the service's bit-identity guarantee.

Time here is *virtual*: integer accelerator cycles on the service
clock (see :mod:`repro.serve.service`).  Arrival, dispatch, and
completion stamps are all cycle counts, never wall time, which is what
makes every latency figure deterministic and replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..accel.scheduler import WaveDriver, WaveItem, pack_waves
from ..tables.partition import PartitionId

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
REJECTED = "rejected"

#: States that count against backlog and tenant quota.
OPEN_STATES = (QUEUED, RUNNING)


@dataclass
class JobSpec:
    """What a tenant submits: a stage driver over a partition set."""

    tenant: str
    driver: WaveDriver
    partitions: Sequence[WaveItem]
    n_pipelines: int

    @property
    def stage(self) -> str:
        return self.driver.stage


@dataclass
class Job:
    """An admitted job and all of its scheduling state."""

    job_id: int
    spec: JobSpec
    arrival_cycles: int
    waves: List[List[WaveItem]]
    empty_pids: List[PartitionId]
    state: str = QUEUED
    #: Wave indices not yet dispatched, ascending.  Drain pushes
    #: in-flight waves back here, so order is maintained on insert.
    pending: List[int] = field(default_factory=list)
    results: Dict[PartitionId, object] = field(default_factory=dict)
    wave_cycles: List[int] = field(default_factory=list)
    wave_load_cycles: List[int] = field(default_factory=list)
    waves_done: int = 0
    first_dispatch_cycles: Optional[int] = None
    completed_cycles: Optional[int] = None

    @classmethod
    def admit(cls, job_id: int, spec: JobSpec, at_cycles: int) -> "Job":
        empty, waves = pack_waves(spec.partitions, spec.n_pipelines)
        return cls(
            job_id=job_id,
            spec=spec,
            arrival_cycles=at_cycles,
            waves=waves,
            empty_pids=empty,
            pending=list(range(len(waves))),
            wave_cycles=[0] * len(waves),
            wave_load_cycles=[0] * len(waves),
        )

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def stage(self) -> str:
        return self.spec.stage

    @property
    def is_open(self) -> bool:
        return self.state in OPEN_STATES

    @property
    def latency_cycles(self) -> Optional[int]:
        if self.completed_cycles is None:
            return None
        return self.completed_cycles - self.arrival_cycles

    @property
    def queue_cycles(self) -> Optional[int]:
        """Cycles from arrival to first dispatch."""
        if self.first_dispatch_cycles is None:
            return None
        return self.first_dispatch_cycles - self.arrival_cycles

    @property
    def service_cycles(self) -> int:
        """Simulated cycles spent on this job's completed waves."""
        return sum(self.wave_cycles) + sum(self.wave_load_cycles)

    def requeue(self, wave_index: int) -> None:
        """Put an in-flight wave back on the pending list (drain)."""
        if wave_index in self.pending:
            return
        self.pending.append(wave_index)
        self.pending.sort()

    def finalize(self, at_cycles: int) -> None:
        """All waves done: add empty-partition results and canonicalise
        the result order to the submission order."""
        for pid in self.empty_pids:
            self.results[pid] = self.spec.driver.empty_result(pid)
        self.results = {
            pid: self.results[pid] for pid, _part in self.spec.partitions
        }
        self.state = COMPLETED
        self.completed_cycles = at_cycles


@dataclass
class JobStatus:
    """Snapshot of a job for the ``status`` client path."""

    job_id: int
    tenant: str
    stage: str
    state: str
    waves_total: int
    waves_done: int
    arrival_cycles: int
    latency_cycles: Optional[int]

    @classmethod
    def of(cls, job: Job) -> "JobStatus":
        return cls(
            job_id=job.job_id,
            tenant=job.tenant,
            stage=job.stage,
            state=job.state,
            waves_total=len(job.waves),
            waves_done=job.waves_done,
            arrival_cycles=job.arrival_cycles,
            latency_cycles=job.latency_cycles,
        )
