"""Seeded, deterministic fault plans.

A :class:`FaultPlan` declares *which* faults a run will suffer — worker
crashes, wave-item timeouts, PCIe transfer errors, device launch
failures — and *where*.  Every fault is a failed attempt of a wave, so
there is one injection **site**, :data:`WAVE_FAULT_SITE`
(``scheduler.wave``), polled by the wave executor on every run path.
Each wave arriving there has a **slot** index in deterministic order:
the packed wave's global index for a direct run, on every device
topology, and the dispatch ordinal of a served wave.  The four kinds
are labels of that one failure; a spec naming any other site is
refused when it is parsed.

The determinism contract: **same seed + same plan ⇒ same injected
faults**.  Each spec's target slots are derived once, from a
``random.Random`` seeded by ``(plan seed, site, kind)`` — never from
wall-clock time, process ids, or host scheduling — so a faulted run is
exactly reproducible, including under ``workers=N`` fan-out (injection
decisions are made in the parent process, keyed by slot and attempt, not
by completion order).

Spec grammar (the CLI's ``--inject-faults`` argument)::

    SPEC  := item ("," item)*
    item  := KIND [":" COUNT] ["@" SITE] ["+" ATTEMPTS] ["~" SPREAD]

* ``KIND`` — one of ``worker_crash``, ``wave_timeout``,
  ``transfer_error``, ``launch_error``;
* ``COUNT`` — how many slots the spec faults (default 1);
* ``SITE`` — the injection site; ``scheduler.wave`` (the default) is
  the only one;
* ``ATTEMPTS`` — how many consecutive attempts at a faulted slot fail
  before it succeeds (default 1: the first retry goes through);
* ``SPREAD`` — target slots are spaced by seeded gaps drawn from
  ``[0, SPREAD]`` (default 0: the first ``COUNT`` slots fault).

``worker_crash:2@scheduler.wave+2~3`` means: two waves, chosen by the
seed among the early slots, each crash twice before succeeding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

from ..errors import InputError

#: Every fault kind the injector knows how to enact.
FAULT_KINDS = (
    "worker_crash",
    "wave_timeout",
    "transfer_error",
    "launch_error",
)

#: The one injection site: a wave attempt (slot = the wave's index).
WAVE_FAULT_SITE = "scheduler.wave"


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault: ``count`` slots at ``site`` fail with
    ``kind``, each for ``attempts`` consecutive attempts."""

    kind: str
    site: str = WAVE_FAULT_SITE
    count: int = 1
    attempts: int = 1
    spread: int = 0
    #: Explicit target slots (overrides the seeded derivation).
    at: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} "
                f"(choose from {', '.join(FAULT_KINDS)})"
            )
        if self.site != WAVE_FAULT_SITE:
            raise ValueError(
                f"unknown fault site {self.site!r} (every fault is a "
                f"failed wave attempt at {WAVE_FAULT_SITE})"
            )
        if self.count < 1:
            raise ValueError("fault count must be >= 1")
        if self.attempts < 1:
            raise ValueError("fault attempts must be >= 1")
        if self.spread < 0:
            raise ValueError("fault spread must be >= 0")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one spec item (see the module grammar)."""
        item = text.strip()
        if not item:
            raise ValueError("empty fault spec item")
        spread = 0
        attempts = 1
        site = WAVE_FAULT_SITE
        count = 1
        if "~" in item:
            item, raw = item.rsplit("~", 1)
            spread = int(raw)
        if "+" in item:
            item, raw = item.rsplit("+", 1)
            attempts = int(raw)
        if "@" in item:
            item, site = item.split("@", 1)
        if ":" in item:
            item, raw = item.split(":", 1)
            count = int(raw)
        return cls(
            kind=item.strip(), site=site.strip(), count=count,
            attempts=attempts, spread=spread,
        )

    def render(self) -> str:
        """The spec back in grammar form (normalized)."""
        text = self.kind
        if self.count != 1:
            text += f":{self.count}"
        text += f"@{self.site}"
        if self.attempts != 1:
            text += f"+{self.attempts}"
        if self.spread:
            text += f"~{self.spread}"
        return text


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault specs; the unit the CLI, a direct run and
    the job service share.

    The plan itself is immutable and picklable; the injected-fault
    records live in the :class:`~repro.faults.injector.FaultInjector`
    built over it.
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    @classmethod
    def from_spec(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from the CLI spec string (see module grammar); a
        spec that does not parse is an :class:`~repro.errors.InputError`."""
        try:
            specs = tuple(
                FaultSpec.parse(item)
                for item in text.split(",")
                if item.strip()
            )
        except ValueError as error:
            raise InputError(str(error)) from None
        if not specs:
            raise InputError(f"fault spec {text!r} declares no faults")
        return cls(seed=seed, specs=specs)

    def targets(self, spec: FaultSpec) -> Tuple[int, ...]:
        """The slot indices ``spec`` faults — pure function of
        ``(self.seed, spec)``, which is the determinism contract."""
        if spec.at is not None:
            return tuple(sorted(set(spec.at)))
        rng = random.Random(f"{self.seed}|{spec.site}|{spec.kind}")
        slots = []
        slot = rng.randrange(spec.spread + 1) if spec.spread else 0
        for _ in range(spec.count):
            slots.append(slot)
            slot += 1 + (rng.randrange(spec.spread + 1) if spec.spread else 0)
        return tuple(slots)

    def render(self) -> str:
        """The whole plan in spec-grammar form."""
        return ",".join(spec.render() for spec in self.specs)

    def describe(self) -> Iterable[str]:
        """Human lines: one per spec with its resolved target slots."""
        for spec in self.specs:
            yield (
                f"{spec.render()} -> slots {list(self.targets(spec))}"
                f" (seed {self.seed})"
            )

