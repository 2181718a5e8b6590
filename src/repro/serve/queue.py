"""Admission control and weighted-fair queueing for the job service.

The queue answers two questions deterministically:

* **admission** — may this job enter?  Rejected when the service-wide
  backlog of open jobs is full (``max_backlog``) or the tenant already
  holds ``quota`` open jobs.  Admission never blocks: the service is a
  simulation, so the honest model of an overloaded queue is an explicit
  reject the client can see and retry, not hidden backpressure.

* **dispatch** — whose wave runs next?  Weighted fair queueing over
  tenants: each tenant accrues *charged rows* (the deterministic size
  of every wave dispatched on its behalf), and the next wave comes from
  the backlogged tenant with the smallest ``charged_rows / weight``,
  ties broken by tenant name.  Within a tenant, jobs are FIFO by
  ``(arrival, job_id)`` and waves run in packing order.  Charging the
  *a-priori* row cost — not the simulated cycles, which are only known
  after execution — keeps every scheduling decision a pure function of
  the submission trace.

Starvation-freedom follows from the charging rule: a backlogged
tenant's normalized service is frozen while it waits, every dispatch
elsewhere strictly increases some other tenant's, so after a bounded
number of foreign dispatches the waiting tenant holds the minimum and
must be picked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.registry import nearest_rank_percentile
from .job import Job

#: Admission-rejection reasons (ledger + metrics labels).
REJECT_BACKLOG = "backlog_full"
REJECT_QUOTA = "tenant_quota"


@dataclass
class TenantAccount:
    """The one per-tenant book: the dispatcher's fairness state plus the
    outcome counts and latencies every report reads (kept live here,
    snapshotted into ``ServeSummary``, rebuilt from the ledger by
    ``ServiceReport``).  Percentiles are nearest-rank on exact cycles."""

    tenant: str
    weight: float = 1.0
    #: Deterministic row-cost charged at dispatch (fairness currency).
    charged_rows: int = 0
    #: Simulated cycles charged at completion (accounting only — never
    #: consulted by the dispatcher, so fairness stays replayable).
    cycles: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    latencies: List[int] = field(default_factory=list)

    @property
    def normalized_service(self) -> float:
        return self.charged_rows / self.weight

    @property
    def p50_latency_cycles(self) -> Optional[int]:
        return nearest_rank_percentile(self.latencies, 50)

    @property
    def p99_latency_cycles(self) -> Optional[int]:
        return nearest_rank_percentile(self.latencies, 99)


class JobQueue:
    """Bounded multi-tenant job queue with WFQ dispatch order."""

    def __init__(
        self,
        max_backlog: int = 64,
        quota: int = 8,
        weights: Optional[Dict[str, float]] = None,
    ) -> None:
        if max_backlog < 1:
            raise ValueError("max_backlog must be >= 1")
        if quota < 1:
            raise ValueError("quota must be >= 1")
        self.max_backlog = max_backlog
        self.quota = quota
        self._weights = dict(weights or {})
        self.accounts: Dict[str, TenantAccount] = {}
        #: tenant -> open jobs in FIFO (arrival, job_id) order.
        self._jobs: Dict[str, List[Job]] = {}

    # -- admission -----------------------------------------------------------

    def account(self, tenant: str) -> TenantAccount:
        if tenant not in self.accounts:
            self.accounts[tenant] = TenantAccount(
                tenant, weight=self._weights.get(tenant, 1.0)
            )
            self._jobs[tenant] = []
        return self.accounts[tenant]

    def open_jobs(self, tenant: Optional[str] = None) -> int:
        if tenant is not None:
            return len(self._jobs.get(tenant, ()))
        return sum(len(jobs) for jobs in self._jobs.values())

    def try_admit(self, job: Job) -> Optional[str]:
        """Admit ``job`` or return a rejection reason."""
        account = self.account(job.tenant)
        if self.open_jobs() >= self.max_backlog:
            account.rejected += 1
            return REJECT_BACKLOG
        if self.open_jobs(job.tenant) >= self.quota:
            account.rejected += 1
            return REJECT_QUOTA
        account.admitted += 1
        self._jobs[job.tenant].append(job)
        return None

    # -- dispatch ------------------------------------------------------------

    def next_wave(self) -> Optional[Tuple[Job, int]]:
        """Pop the next (job, wave_index) under the WFQ policy, or
        ``None`` when no tenant has a pending wave."""
        backlogged = [
            tenant
            for tenant, jobs in self._jobs.items()
            if any(job.pending for job in jobs)
        ]
        if not backlogged:
            return None
        tenant = min(
            backlogged,
            key=lambda t: (self.accounts[t].normalized_service, t),
        )
        for job in self._jobs[tenant]:
            if job.pending:
                return job, job.pending.pop(0)
        raise AssertionError("backlogged tenant without pending waves")

    def charge_rows(self, tenant: str, rows: int) -> None:
        self.account(tenant).charged_rows += rows

    def charge_cycles(self, tenant: str, cycles: int) -> None:
        self.account(tenant).cycles += cycles

    def close(self, job: Job) -> None:
        """Remove a completed/failed job from the open set."""
        jobs = self._jobs.get(job.tenant, [])
        if job in jobs:
            jobs.remove(job)

    def pending_waves(self, tenant: Optional[str] = None) -> int:
        jobs = (
            self._jobs.get(tenant, ())
            if tenant is not None
            else [job for jobs in self._jobs.values() for job in jobs]
        )
        return sum(len(job.pending) for job in jobs)
