"""Retry policy and the retry ladder.

The backoff for retrying ``(slot, attempt)`` is a pure function of the
policy — ``base * multiplier**attempt``, scaled by a jitter factor drawn
from a ``random.Random`` seeded by ``(policy seed, slot, attempt)`` and
capped at ``max_backoff`` — so two runs of the same faulted schedule
sleep the same amounts and a served wave's backoff, charged as penalty
cycles on the service's virtual clock, is reproducible.

:class:`RetryLadder` is the one place a failed attempt becomes "retry
after this backoff" or "budget gone" (DESIGN.md §3.5).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional

from .injector import FaultInjector, InjectedFault, RetryBudgetExceeded


@dataclass(frozen=True)
class RetryPolicy:
    """How failed operations are retried.

    ``max_retries`` is the *retry* budget: an operation may run
    ``max_retries + 1`` times before :class:`~repro.faults.injector.\
RetryBudgetExceeded` propagates.  Jitter decorrelates retries without
    breaking determinism (see the module docstring).
    """

    max_retries: int = 2
    backoff_base: float = 0.005
    backoff_multiplier: float = 2.0
    jitter: float = 0.25
    max_backoff: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.max_backoff < 0:
            raise ValueError("backoff seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_seconds(self, slot: int, attempt: int) -> float:
        """The deterministic backoff before retry ``attempt`` (0-based:
        the sleep after the first failure is ``attempt=0``)."""
        base = self.backoff_base * self.backoff_multiplier ** attempt
        if self.jitter:
            rng = random.Random(f"{self.seed}|{slot}|{attempt}")
            base *= 1.0 + rng.uniform(0.0, self.jitter)
        return min(base, self.max_backoff)

    def sleep(
        self,
        slot: int,
        attempt: int,
        clock: Callable[[float], None] = time.sleep,
    ) -> float:
        """Sleep the backoff (``clock`` injectable for tests); returns
        the seconds slept."""
        seconds = self.backoff_seconds(slot, attempt)
        if seconds > 0:
            clock(seconds)
        return seconds


#: The no-retry policy (fail fast, zero backoff).
NO_RETRY = RetryPolicy(max_retries=0, backoff_base=0.0, jitter=0.0)


#: What an exhausted ladder raises with.
EXHAUSTED_MESSAGE = (
    "{subject} failed {failures} attempt(s); retry budget ({budget}) exhausted"
)


@dataclass(frozen=True)
class FailedAttempt:
    """One failed attempt as the ladder accounted it."""

    kind: str
    attempt: int
    #: The policy's backoff for this attempt's retry, charged to the
    #: ladder's clock (0 when the attempt ``exhausted`` the budget: no
    #: retry follows).
    backoff_seconds: float
    exhausted: bool


@dataclass
class RetryLadder:
    """The retry ladder of one ``(site, slot)``.

    The budget counts from attempt 0: whatever rung walks the ladder, the
    operation runs at most ``max_retries + 1`` times.  ``start_attempt``
    only says where to resume — a rung that takes over a wave mid-ladder
    spends what is left of the same budget.

    Iterating polls the injector attempt by attempt and yields one
    :class:`FailedAttempt` per injected fault — budget tested, backoff
    already charged to ``clock`` (a real sleep; tests substitute a fake)
    — until an attempt polls clean; :attr:`attempt` is
    then that attempt.  The failure that spends the budget is yielded
    too, so callers can book it, and resuming after it raises
    :meth:`exceeded`, with :attr:`attempt` one past the failure.  A
    caller whose failures arrive asynchronously (the executor's pool
    rung) takes the steps by hand: :meth:`record_ahead` as the operation
    starts, :meth:`poll` before each attempt, :meth:`fail` after it,
    :meth:`exceeded` when that spent the budget.
    """

    injector: Optional[FaultInjector]
    policy: RetryPolicy
    site: str
    slot: int
    start_attempt: int = 0
    clock: Callable[[float], None] = time.sleep
    #: Names the operation in the exhaustion message.
    subject: Optional[str] = None
    #: Extra fields for the injector's ``fault.injected`` event.
    context: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.attempt = self.start_attempt

    def poll(self, attempt: int) -> Optional[InjectedFault]:
        """The injection decision for ``attempt``."""
        if self.injector is None:
            return None
        return self.injector.poll(
            self.site, self.slot, attempt, **self.context
        )

    def record_ahead(self) -> None:
        """Record every injection a walk from :attr:`attempt` polls, in
        attempt order: an injected attempt always fails, so the walk
        polls on until an attempt polls clean or spends the budget.  The
        asynchronous caller calls it when the operation first starts, so
        its injections reach the ledger in the order a synchronous walk
        writes them, whatever order its attempts complete in."""
        attempt = self.attempt
        while self.poll(attempt) is not None and attempt < self.policy.max_retries:
            attempt += 1

    def fail(self, attempt: int, kind: str) -> FailedAttempt:
        """Account one failed attempt: test the budget and, when a retry
        follows, charge its backoff to the clock."""
        if attempt >= self.policy.max_retries:
            return FailedAttempt(kind, attempt, 0.0, exhausted=True)
        backoff = self.policy.sleep(self.slot, attempt, clock=self.clock)
        return FailedAttempt(kind, attempt, backoff, exhausted=False)

    def exceeded(self, failed: FailedAttempt) -> RetryBudgetExceeded:
        """The error of the failure that spent the budget: it counts
        every failed attempt, and the injected fault, when the plan
        faulted that attempt, is its cause."""
        error = RetryBudgetExceeded(EXHAUSTED_MESSAGE.format(
            subject=self.subject or f"{self.site} slot {self.slot}",
            failures=failed.attempt + 1,
            budget=self.policy.max_retries,
        ))
        fault = self.poll(failed.attempt)  # recorded already: decides only
        if fault is not None:
            error.__cause__ = fault.to_exception()
        return error

    def __iter__(self) -> Iterator[FailedAttempt]:
        while (fault := self.poll(self.attempt)) is not None:
            failed = self.fail(self.attempt, fault.kind)
            self.attempt += 1
            yield failed
            if failed.exhausted:
                raise self.exceeded(failed)
