"""The fault injector: enacts a :class:`~repro.faults.plan.FaultPlan`.

One :class:`FaultInjector` is built per run and consulted by the wave
executor before every attempt of a wave, at the one site
(:data:`~repro.faults.plan.WAVE_FAULT_SITE`, slot = the wave's index)::

    fault = injector.poll(WAVE_FAULT_SITE, wave_index, attempt)
    if fault is not None:
        ...the attempt fails; retry...

``poll`` answers "does the plan fault this (site, slot, attempt)?" and,
when it does, records the injection — an :class:`InjectedFault` in
``injector.injected`` and a ``fault.injected`` ledger event against the
ambient run.

Decisions are pure functions of the plan: polling the same
``(site, slot, attempt)`` twice gives the same answer (only the first
poll records), so the parent process of a multi-worker scheduler can
decide faults before shipping work to the pool and the injected faults
stay identical across ``workers`` settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..errors import ReproError
from ..obs.ledger import record_event
from ..obs.log import get_logger
from .plan import FaultPlan, FaultSpec

_log = get_logger("faults")


class InjectedFaultError(RuntimeError):
    """Base of every injected failure; carries the injection coordinates
    so handlers can account it without parsing messages."""

    kind = "fault"

    def __init__(self, site: str, slot: int, attempt: int):
        super().__init__(
            f"injected {self.kind} at {site} slot {slot} attempt {attempt}"
        )
        self.site = site
        self.slot = slot
        self.attempt = attempt

    def __reduce__(self):
        # exceptions cross process boundaries (ProcessPoolExecutor
        # futures); the default reduce would replay the formatted
        # message into our three-argument __init__ and break the pool
        return (self.__class__, (self.site, self.slot, self.attempt))


class InjectedWorkerCrash(InjectedFaultError):
    """A worker process dying mid-wave."""

    kind = "worker_crash"


class InjectedWaveTimeout(InjectedFaultError):
    """A wave item hanging past its watchdog deadline."""

    kind = "wave_timeout"


class InjectedTransferError(InjectedFaultError):
    """A wave attempt whose PCIe DMA failed."""

    kind = "transfer_error"


class InjectedLaunchError(InjectedFaultError):
    """A wave attempt whose pipeline launch failed."""

    kind = "launch_error"


#: kind -> the exception class the injector raises / the worker enacts.
FAULT_EXCEPTIONS = {
    cls.kind: cls
    for cls in (
        InjectedWorkerCrash,
        InjectedWaveTimeout,
        InjectedTransferError,
        InjectedLaunchError,
    )
}


class RetryBudgetExceeded(ReproError, RuntimeError):
    """An operation kept failing past its retry budget: the run failed
    (exit code 1), its message the one ``error:`` line."""


@dataclass(frozen=True)
class InjectedFault:
    """The record of one injection (what ``injector.injected`` holds and
    the ``fault.injected`` ledger event carries)."""

    kind: str
    site: str
    slot: int
    attempt: int

    def to_exception(self) -> InjectedFaultError:
        """The exception enacting this fault."""
        return FAULT_EXCEPTIONS[self.kind](self.site, self.slot, self.attempt)


class FaultInjector:
    """Per-run mutable state over an immutable :class:`FaultPlan`;
    ledger events flow through the ambient run context automatically."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.injected: List[InjectedFault] = []
        #: (site, kind) -> (target slot set, attempts that fail).
        self._targets: List[Tuple[FaultSpec, Set[int]]] = [
            (spec, set(plan.targets(spec))) for spec in plan.specs
        ]
        self._recorded: Set[Tuple[str, str, int, int]] = set()

    def due(self, site: str, slot: int, attempt: int) -> Optional[FaultSpec]:
        """The first spec faulting ``(site, slot, attempt)``, if any —
        side-effect free (no recording)."""
        for spec, targets in self._targets:
            if spec.site == site and slot in targets and attempt < spec.attempts:
                return spec
        return None

    def poll(
        self, site: str, slot: int, attempt: int, **context: object
    ) -> Optional[InjectedFault]:
        """Decide-and-record: returns the injected fault for this
        ``(site, slot, attempt)`` or ``None``.  Extra ``context`` fields
        (worker label, wave index...) land in the ledger event."""
        spec = self.due(site, slot, attempt)
        if spec is None:
            return None
        fault = InjectedFault(spec.kind, site, slot, attempt)
        key = (spec.kind, site, slot, attempt)
        if key not in self._recorded:
            self._recorded.add(key)
            self.injected.append(fault)
            record_event(
                "fault.injected", site=site, kind=spec.kind,
                slot=slot, attempt=attempt, **context,
            )
            _log.debug(
                "injected %s at %s slot %d attempt %d",
                spec.kind, site, slot, attempt,
                extra={"site": site, "kind": spec.kind, "slot": slot},
            )
        return fault

    def fire(self, site: str, slot: int, attempt: int, **context: object) -> None:
        """Poll and raise the fault's exception when one is due."""
        fault = self.poll(site, slot, attempt, **context)
        if fault is not None:
            raise fault.to_exception()

    def counts_by_kind(self) -> Dict[str, int]:
        """Injections recorded so far, tallied by kind."""
        counts: Dict[str, int] = {}
        for fault in self.injected:
            counts[fault.kind] = counts.get(fault.kind, 0) + 1
        return counts
