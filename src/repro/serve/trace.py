"""Seeded simulated-tenant arrival traces.

A trace is the service's notion of "the outside world": who submits
what, when (in virtual cycles).  Generating it from one seed is what
makes a whole serving run — admission, fairness, faults, latencies —
replayable bit-for-bit, and is the contract the property tests and the
soak benchmark lean on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..accel.stages import PAPER_STAGES, STAGES
from .job import JobSpec

#: Stages a trace can mix (the GATK4 preprocessing pipeline).
SERVE_STAGES = PAPER_STAGES


@dataclass(frozen=True)
class JobArrival:
    """One submission: a tenant asks for ``stage`` over ``n_partitions``
    partitions starting at ``partition_lo`` (wrapping)."""

    at_cycles: int
    tenant: str
    stage: str
    partition_lo: int
    n_partitions: int


@dataclass
class ArrivalTrace:
    """A seeded sequence of arrivals across simulated tenants."""

    seed: int
    arrivals: List[JobArrival]

    @classmethod
    def generate(
        cls,
        tenants: int = 8,
        jobs: int = 32,
        seed: int = 0,
        stages: Sequence[str] = SERVE_STAGES,
        mean_gap_cycles: int = 50_000,
        max_partitions: int = 4,
    ) -> "ArrivalTrace":
        """Draw ``jobs`` arrivals: inter-arrival gaps uniform in
        ``[0, 2 * mean_gap_cycles]``, tenant / stage / partition slice
        uniform.  Same seed, same trace — always."""
        if tenants < 1 or jobs < 0:
            raise ValueError("need >= 1 tenant and >= 0 jobs")
        for stage in stages:
            if stage not in SERVE_STAGES:
                raise ValueError(
                    f"unknown stage {stage!r}; choose from {SERVE_STAGES}"
                )
        rng = random.Random(seed)
        at = 0
        arrivals = []
        for _ in range(jobs):
            at += rng.randrange(2 * mean_gap_cycles + 1)
            arrivals.append(
                JobArrival(
                    at_cycles=at,
                    tenant=f"t{rng.randrange(tenants):03d}",
                    stage=stages[rng.randrange(len(stages))],
                    partition_lo=rng.randrange(1 << 16),
                    n_partitions=1 + rng.randrange(max_partitions),
                )
            )
        return cls(seed=seed, arrivals=arrivals)


def trace_jobs(
    trace: ArrivalTrace, workload, n_pipelines: int = 2
) -> List[Tuple[int, JobSpec]]:
    """Materialise a trace against a workload: each arrival becomes a
    ``(at_cycles, JobSpec)`` over a distinct-partition slice of the
    stage's partition list (wrapping, never repeating a partition
    within one job)."""
    by_stage = {
        stage: STAGES[stage].items(workload) for stage in SERVE_STAGES
    }
    out = []
    for arrival in trace.arrivals:
        parts = by_stage[arrival.stage]
        if not parts:
            continue
        count = min(arrival.n_partitions, len(parts))
        lo = arrival.partition_lo % len(parts)
        picked = [parts[(lo + k) % len(parts)] for k in range(count)]
        out.append(
            (
                arrival.at_cycles,
                JobSpec(
                    tenant=arrival.tenant,
                    driver=STAGES[arrival.stage].over(workload),
                    partitions=picked,
                    n_pipelines=n_pipelines,
                ),
            )
        )
    return out
