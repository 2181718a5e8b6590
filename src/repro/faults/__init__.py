"""Deterministic fault injection + the resilience vocabulary.

Genomic-scale systems treat failure as the common case: devices go
busy, slow, or away mid-run.  This package supplies the seeded fault
plans (:mod:`repro.faults.plan`), the injector that enacts them at
named sites (:mod:`repro.faults.injector`), and the retry policy
(:mod:`repro.faults.retry`) that the host scheduler
(:mod:`repro.accel.scheduler`) and the runtime API
(:mod:`repro.runtime`) recover with.  See DESIGN.md §3.5 for the fault
model and the recovery ladder.
"""

from .injector import (
    FAULT_EXCEPTIONS,
    FaultInjector,
    InjectedFault,
    InjectedFaultError,
    InjectedLaunchError,
    InjectedTransferError,
    InjectedWaveTimeout,
    InjectedWorkerCrash,
    RetryBudgetExceeded,
)
from .plan import (
    DEFAULT_SITES,
    FAULT_KINDS,
    KNOWN_SITES,
    FaultPlan,
    FaultSpec,
)
from .retry import NO_RETRY, FailedAttempt, RetryLadder, RetryPolicy

__all__ = [
    "DEFAULT_SITES",
    "FAULT_EXCEPTIONS",
    "FAULT_KINDS",
    "KNOWN_SITES",
    "FailedAttempt",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedFaultError",
    "InjectedLaunchError",
    "InjectedTransferError",
    "InjectedWaveTimeout",
    "InjectedWorkerCrash",
    "NO_RETRY",
    "RetryBudgetExceeded",
    "RetryLadder",
    "RetryPolicy",
]
