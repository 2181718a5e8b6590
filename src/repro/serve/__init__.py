"""Multi-tenant job serving over the Genesis runtime.

The paper frames the accelerator as a shared cloud resource; this
package is the serving side of that story — a deterministic,
virtual-time job service that time-multiplexes the modelled
:class:`~repro.runtime.device.DevicePool` across tenants while
sharing one SPM image cache, with weighted-fair queueing, bounded
admission, one retry ladder per wave whose failure fails only its
own job, and graceful drain/resume.  See DESIGN.md §3.8.
"""

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
from .queue import REJECT_BACKLOG, REJECT_QUOTA, JobQueue, TenantAccount
from .report import ServiceReport
from .service import (
    JobService,
    ServeSummary,
    ServiceCheckpoint,
)
from .trace import (
    SERVE_STAGES,
    ArrivalTrace,
    JobArrival,
    trace_jobs,
)

__all__ = [
    "COMPLETED",
    "FAILED",
    "QUEUED",
    "REJECTED",
    "RUNNING",
    "Job",
    "JobSpec",
    "JobStatus",
    "REJECT_BACKLOG",
    "REJECT_QUOTA",
    "JobQueue",
    "TenantAccount",
    "ServiceReport",
    "JobService",
    "ServeSummary",
    "ServiceCheckpoint",
    "SERVE_STAGES",
    "ArrivalTrace",
    "JobArrival",
    "trace_jobs",
]
