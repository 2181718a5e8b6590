"""Deterministic fault injection + the resilience vocabulary.

Genomic-scale systems treat failure as the common case: devices go
busy, slow, or away mid-run.  This package supplies the seeded fault
plans (:mod:`repro.faults.plan`), the injector that enacts them as
failed wave attempts (:mod:`repro.faults.injector`), and the retry
policy and ladder (:mod:`repro.faults.retry`) the wave executor
(:mod:`repro.accel.scheduler`) recovers with.  See DESIGN.md §3.5 for
the fault model and the recovery ladder.
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
from .plan import FAULT_KINDS, WAVE_FAULT_SITE, FaultPlan, FaultSpec
from .retry import NO_RETRY, FailedAttempt, RetryLadder, RetryPolicy

__all__ = [
    "FAULT_EXCEPTIONS",
    "FAULT_KINDS",
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
    "WAVE_FAULT_SITE",
]
