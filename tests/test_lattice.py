"""The invariant lattice: every way a stage can run ≡ the serial oracle.

One hypothesis test draws a point of the run-configuration space — a
frozen :class:`Config`, each field mirroring a setter outside ``tests/``
(DESIGN.md §5) — and runs it: direct through ``run_sharded``, or served
through ``JobService``.  Whatever the point, the answer and the modelled
clock must equal the *reference* of its stage, workload and pipelines:
the direct, one-card, one-worker, dense-mode, unfaulted, unfiltered run
(memoised), which must in turn equal the ``repro.gatk`` oracle (checked
as it is memoised).  Every wave must report the drawn engine mode: a
``maxplus`` wave that ticked ``dense`` fell back (its SPM load and drain
phases replay in the mode that first recorded them).  Injected faults
must be exactly those the plan aims at slots the run polls, each failed
attempt retried until the wave's one budget runs out — and a wave that
runs out fails alike at every topology: a direct run raises the lowest
such wave's error, a served run fails the jobs of those waves and no
other.

Adding an axis is one :class:`Config` field, one draw in :func:`configs`
and the line of :func:`run_direct` / :func:`serve` that passes it on.
"""

import os
import tempfile
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from typing import List, Optional, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hw_harness import (
    assert_matches_oracle,
    assert_same_cycles,
    assert_stage_identical,
    engine_modes,
)
from repro.accel.scheduler import WAVE_FAULT_SITE
from repro.accel.sharding import run_sharded
from repro.accel.stages import STAGES
from repro.eval.workloads import make_workload
from repro.faults import (
    FaultPlan,
    FaultSpec,
    RetryBudgetExceeded,
    RetryPolicy,
)
from repro.obs.ledger import RunLedger, RunManifest, run_context
from repro.serve import COMPLETED, FAILED, JobService, JobSpec
from repro.serve.trace import SERVE_STAGES
from repro.storage import plan_storage_filter
from test_differential_fuzz import FUZZ_CASES, fuzz_args

#: Workload name -> ``make_workload`` arguments: the sharding suite's
#: multi-wave workload and the differential fuzz cases.
WORKLOADS = {
    "sharding": dict(
        n_reads=120, read_length=60, chromosomes=(20, 21),
        genome_scale=4.5e-5, psize=1000, seed=105,
    ),
    **{f"seed{case[0]}": fuzz_args(case) for case in FUZZ_CASES},
}

#: Retries a faulted slot may take before its wave runs out of budget.
BUDGET = RetryPolicy().max_retries


@dataclass(frozen=True)
class Config:
    """One point of the run-configuration space."""

    #: A :data:`~repro.accel.stages.STAGES` key; served: ``SERVE_STAGES``.
    stage: str
    workload: str = "sharding"
    #: The driver's ``mode`` field.
    mode: str = "dense"
    #: ``run_sharded(n_pipelines=)`` / ``JobSpec.n_pipelines``.
    pipelines: int = 2
    #: ``devices=`` / ``workers=`` of ``run_sharded`` or ``JobService``.
    devices: int = 1
    workers: int = 1
    #: ``run_sharded(policy=, steal=)`` (direct runs only).
    policy: str = "hash"
    steal: bool = True
    #: ``fault_plan=FaultPlan(specs=faults)``.
    faults: Tuple[FaultSpec, ...] = ()
    #: ``storage=plan_storage_filter(...)`` over the run's partitions.
    storage: bool = False
    #: Through ``JobService`` rather than ``run_sharded``, optionally
    #: drained after ``drain_after`` dispatches and resumed; with
    #: ``repeat``, tenant ``c`` resubmits tenant ``a``'s spec.
    served: bool = False
    drain_after: Optional[int] = None
    repeat: bool = False


def fault(kind: str, site: str, *slots: int, attempts: int = 1) -> FaultSpec:
    return FaultSpec(kind, site, attempts=attempts, at=slots)


def faults(kind: str, site: str):
    """``kind`` at one or two of ``site``'s first four slots, each
    failing up to one attempt more than the retry budget allows."""
    return st.builds(
        lambda slots, attempts: fault(kind, site, *slots, attempts=attempts),
        st.sampled_from([
            slots for n in (1, 2) for slots in combinations(range(4), n)
        ]),
        st.integers(1, BUDGET + 1),
    )


@st.composite
def configs(draw):
    served = draw(st.booleans())
    specs = [draw(st.none() | faults("worker_crash", WAVE_FAULT_SITE))]
    if served:
        specs.append(draw(st.none() | st.sampled_from(
            ("transfer_error", "launch_error")
        ).flatmap(lambda kind: faults(kind, WAVE_FAULT_SITE))))
    return Config(
        stage=draw(st.sampled_from(SERVE_STAGES if served else tuple(STAGES))),
        workload=draw(st.sampled_from(tuple(WORKLOADS))),
        mode=draw(st.sampled_from(("dense", "maxplus"))),
        pipelines=draw(st.sampled_from((1, 2, 4))),
        devices=draw(st.sampled_from((1, 2, 3))),
        workers=draw(st.sampled_from((1, 2))),
        policy="hash" if served else draw(st.sampled_from(("hash", "range"))),
        steal=served or draw(st.booleans()),
        faults=tuple(spec for spec in specs if spec is not None),
        storage=draw(st.booleans()),
        served=served,
        drain_after=draw(st.none() | st.integers(1, 3)) if served else None,
        repeat=served and draw(st.booleans()),
    )


# -- memoised workloads, filters and references ------------------------------------


@lru_cache(maxsize=None)
def workload(name: str):
    return make_workload(**WORKLOADS[name])


@lru_cache(maxsize=None)
def storage_plan(name: str, stages: Tuple[str, ...]):
    wl = workload(name)
    items = [item for stage in stages for item in STAGES[stage].items(wl)]
    return plan_storage_filter(items, wl.reference, record=False)


@lru_cache(maxsize=None)
def reference(stage: str, name: str, pipelines: int):
    """``(results, stats, {wave: (cycles, load_cycles)})`` of the run
    every draw of ``(stage, name, pipelines)`` must equal, held to the
    software oracle as it is memoised."""
    wl = workload(name)
    row = STAGES[stage]
    with tempfile.TemporaryDirectory() as tmp:
        ledger = RunLedger(os.path.join(tmp, "ledger.jsonl"))
        with run_context(RunManifest(workload="lattice"), ledger):
            results, stats = run_sharded(
                row.over(wl, mode="dense"), row.items(wl), pipelines
            )
        waves = {
            record["wave"]: (record["cycles"], record["load_cycles"])
            for record in ledger.events("scheduler.wave")
        }
    assert assert_matches_oracle(stage, wl, results) > 0
    return results, stats, waves


def faults_hit(specs, polled: int) -> Tuple[dict, int, List[int]]:
    """What ``specs`` (all at ``scheduler.wave``) do to ``polled`` slots,
    each walking one ladder of :data:`BUDGET` retries from attempt 0:
    the faults injected by kind, the retries taken, and the slots whose
    wave runs out of budget.  An attempt fails with the first spec that
    faults it."""
    hit, retries, spent = Counter(), 0, []
    for slot in range(polled):
        for attempt in range(BUDGET + 1):
            kind = next((
                spec.kind for spec in specs
                if slot in spec.at and attempt < spec.attempts
            ), None)
            if kind is None:
                break
            hit[kind] += 1
            if attempt == BUDGET:
                spent.append(slot)
            else:
                retries += 1
    return dict(hit), retries, spent


def exhausted(slot: int) -> str:
    """What a run says when wave ``slot`` runs out of budget."""
    return (
        f"wave {slot} failed {BUDGET + 1} attempt(s); "
        f"retry budget ({BUDGET}) exhausted"
    )


# -- the two ways to run a point -----------------------------------------------------


def fault_plan(config: Config) -> Optional[FaultPlan]:
    return FaultPlan(specs=config.faults) if config.faults else None


def run_direct(config: Config):
    wl = workload(config.workload)
    row = STAGES[config.stage]
    return run_sharded(
        row.over(wl, mode=config.mode), row.items(wl), config.pipelines,
        devices=config.devices, workers=config.workers,
        fault_plan=fault_plan(config), policy=config.policy,
        steal=config.steal,
        storage=(
            storage_plan(config.workload, (config.stage,))
            if config.storage else None
        ),
    )


def served_stages(config: Config) -> Tuple[str, ...]:
    """Tenant ``a``'s job is the drawn stage, tenant ``b``'s the next
    one, so a round can mix stages; with ``repeat``, tenant ``c``'s is
    ``a``'s again, so a wave repeats and the service replays it."""
    stage = config.stage
    after = SERVE_STAGES[(SERVE_STAGES.index(stage) + 1) % len(SERVE_STAGES)]
    return (stage, after, stage) if config.repeat else (stage, after)


def serve(config: Config):
    wl = workload(config.workload)
    stages = served_stages(config)
    service = JobService(
        devices=config.devices, workers=config.workers,
        fault_plan=fault_plan(config),
        storage=storage_plan(config.workload, stages) if config.storage else None,
    )
    for tenant, stage in zip("abc", stages):
        row = STAGES[stage]
        service.submit(JobSpec(
            tenant, row.over(wl, mode=config.mode), row.items(wl),
            config.pipelines,
        ))
    if config.drain_after is not None:
        service.run(max_dispatches=config.drain_after)
        service = JobService.resume(service.drain())
    return service, service.run_until_idle()


# -- the lattice ---------------------------------------------------------------------


def check_direct(config: Config):
    """Run ``config`` direct and hold it to its reference; returns the
    run's stats (``None`` when a wave runs out of budget: the run must
    then raise, in the same words as on one card and one worker)."""
    want, want_stats, _waves = reference(
        config.stage, config.workload, config.pipelines
    )
    injected, retries, spent = faults_hit(config.faults, want_stats.waves)
    if spent:
        one_card = replace(config, devices=1, workers=1)
        for topology in dict.fromkeys((config, one_card)):
            with pytest.raises(RetryBudgetExceeded) as raised:
                run_direct(topology)
            assert str(raised.value) == exhausted(min(spent))
        return None
    results, stats = run_direct(config)
    assert_stage_identical(config.stage, results, want)
    assert engine_modes(results, phases=False) == {config.mode}
    assert_same_cycles(stats, want_stats)
    assert stats.faults_by_kind == injected
    assert stats.retries == retries
    return stats


def check_served(config: Config) -> None:
    service, summary = serve(config)
    references = [
        reference(stage, config.workload, config.pipelines)
        for stage in served_stages(config)
    ]
    injected, retries, spent = faults_hit(
        config.faults, summary.waves_dispatched
    )
    # the jobs whose wave ran out of budget fail; the rest complete
    poisoned = {
        fields["job"] for event, fields in service.events
        if event == "serve.dispatch" and fields["seq"] in spent
    }
    jobs = service.jobs()
    assert [job.state for job in jobs] == [
        FAILED if job.job_id in poisoned else COMPLETED for job in jobs
    ]
    for job, (want, _stats, _waves) in zip(jobs, references):
        if job.job_id not in poisoned:
            results = service.results(job.job_id)
            assert_stage_identical(job.stage, results, want)
            assert engine_modes(results, phases=False) == {config.mode}
    for event, fields in service.events:
        if event == "serve.wave.done":
            _want, _stats, waves = references[fields["job"]]
            assert (fields["cycles"], fields["load_cycles"]) == (
                waves[fields["wave"]]
            )
    assert summary.faults == injected
    assert summary.retries == retries
    inline = min(config.devices, config.workers) == 1
    if config.repeat and inline and config.drain_after is None and not spent:
        # every round runs inline, so a's wave 0 is solved before c's:
        # earlier in its round, or in an earlier one
        assert service.memo.hits > 0
    if config.workers > 1:
        alone, _summary = serve(replace(config, workers=1))
        assert service.events == alone.events


@settings(max_examples=25, deadline=None)
@given(configs())
# exhaustion x pool: a wave on a pool of two cards runs out of budget
# exactly as on one card inline
@example(Config(
    "metadata", devices=2, workers=1,
    faults=(fault("worker_crash", WAVE_FAULT_SITE, 0, attempts=BUDGET + 1),),
))
# steal x storage x crash: range placement steals on two cards, the
# filter is on, and two waves crash twice each on a pool of four
@example(Config(
    "bqsr", devices=2, workers=2, policy="range", storage=True,
    faults=(fault("worker_crash", WAVE_FAULT_SITE, 0, 1, attempts=2),),
))
# drain x pooled fault: drained after the first dispatch, the crash lands
# on a two-pick round of the resumed service
@example(Config(
    "metadata", devices=2, workers=2, served=True, drain_after=1,
    faults=(fault("worker_crash", WAVE_FAULT_SITE, 2),),
))
# dense x sharded: dense drivers on three cards' queues, pooled
@example(Config("metadata", mode="dense", devices=3, workers=2))
# maxplus x uneven cards x storage x crash: solved waves on three cards'
# queues behind the filter, a pooled wave crashing once
@example(Config(
    "bqsr", mode="maxplus", devices=3, workers=2, storage=True,
    faults=(fault("worker_crash", WAVE_FAULT_SITE, 1),),
))
# maxplus x the active-region stage: AnchorInsertions' waves are solved too
@example(Config("active_region", mode="maxplus", devices=2))
# repeat x pooled crash x drain: tenant c resubmits a's spec, a pooled
# round crashes, and the resumed service's cold memo solves afresh
@example(Config(
    "metadata", devices=2, workers=2, served=True, drain_after=2,
    repeat=True, faults=(fault("worker_crash", WAVE_FAULT_SITE, 3),),
))
def test_every_lattice_point_matches_the_serial_oracle(config):
    if config.served:
        check_served(config)
    else:
        check_direct(config)
