"""Tests for the multi-tenant job service.

The headline invariant of DESIGN.md §3.8 — a job submitted through
:class:`~repro.serve.JobService` produces results bit-identical to the
same stage run directly via ``run_sharded``, at every topology and
under any fault plan or drain — is ``tests/test_lattice.py``'s to draw;
its tenants x devices x workers grid and a faulted row are named here.
Also: a worker death under a pooled round, a fault budget that runs out
failing only its own job, admission control, weighted fair dispatch,
status and streaming, and the ledger / event surface.
"""

import json
import logging
import multiprocessing
import os
from dataclasses import dataclass

import pytest

from hw_harness import ANSWERS, assert_same_modelled, assert_stage_identical
from repro.accel import MetadataWaveDriver
from repro.accel import scheduler
from repro.accel.scheduler import (
    WAVE_FAULT_SITE,
    WaveMemo,
    WaveTask,
    pack_waves,
    run_waves,
)
from repro.accel.sharding import run_sharded
from repro.eval.workloads import make_workload
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.retry import RetryPolicy
from repro.hw.engine import Engine
from repro.hw.memory import MemoryConfig
from repro.obs.ledger import RunLedger, RunManifest, run_context
from repro.obs.log import configure_logging
from repro.serve import (
    COMPLETED,
    FAILED,
    QUEUED,
    REJECT_BACKLOG,
    REJECT_QUOTA,
    REJECTED,
    JobService,
    JobSpec,
    ServiceReport,
)
from repro.accel.stages import STAGES
from repro.serve.trace import SERVE_STAGES
from repro.tables.table import Table


@pytest.fixture(scope="module")
def workload():
    return make_workload(
        n_reads=90,
        read_length=50,
        chromosomes=(20, 21),
        genome_scale=4.5e-5,
        psize=900,
        seed=105,
    )


@pytest.fixture(scope="module")
def direct_results(workload):
    """Per-stage ground truth from the direct scheduler."""
    out = {}
    for stage in SERVE_STAGES:
        row = STAGES[stage]
        out[stage], _stats = run_sharded(
            row.over(workload), row.items(workload), 2
        )
    return out


def _schedule_mixed(service, workload, tenants, jobs):
    """One job per index, stages round-robin, tenants round-robin."""
    for index in range(jobs):
        stage = SERVE_STAGES[index % len(SERVE_STAGES)]
        service.schedule(
            JobSpec(
                tenant=f"t{index % tenants}",
                driver=STAGES[stage].over(workload),
                partitions=STAGES[stage].items(workload),
                n_pipelines=2,
            ),
            at_cycles=index * 1500,
        )


def _assert_jobs_match_direct(service, direct_results):
    for status in service.jobs():
        assert status.state == COMPLETED
        assert_stage_identical(
            status.stage,
            service.results(status.job_id),
            direct_results[status.stage],
        )


# -- served == direct: tenants x devices x workers, and under faults ----------------
#
# Named points of tests/test_lattice.py's served axis, with more tenants
# than it draws.

TOPOLOGIES = [
    (tenants, devices, workers)
    for tenants in (1, 8)
    for devices in (1, 2)
    for workers in (1, 4)
]


@pytest.mark.parametrize("tenants,devices,workers", TOPOLOGIES)
def test_service_bit_identical(
    workload, direct_results, tenants, devices, workers
):
    service = JobService(devices=devices, workers=workers)
    jobs = max(tenants, len(SERVE_STAGES))
    _schedule_mixed(service, workload, tenants, jobs)
    summary = service.run_until_idle()
    assert summary.jobs_admitted == jobs
    assert summary.jobs_completed == jobs
    assert summary.jobs_rejected == 0
    _assert_jobs_match_direct(service, direct_results)


def test_service_matches_run_sharded(workload):
    """The service's outputs agree with the direct multi-device path
    too (which is itself bit-identical to the serial schedule)."""
    driver = STAGES["metadata"].over(workload)
    partitions = STAGES["metadata"].items(workload)
    direct, _stats = run_sharded(driver, partitions, 2, devices=2, workers=2)
    service = JobService(devices=2, workers=2)
    status = service.submit(
        JobSpec(
            tenant="a", driver=driver, partitions=partitions, n_pipelines=2
        )
    )
    service.run_until_idle()
    assert_stage_identical("metadata", service.results(status.job_id), direct)


FAULT_PLAN = FaultPlan(
    seed=7,
    specs=(
        FaultSpec("transfer_error", site=WAVE_FAULT_SITE, count=2, at=(0, 2)),
        FaultSpec("launch_error", site=WAVE_FAULT_SITE, count=1, at=(4,)),
    ),
)


@pytest.mark.parametrize("workers", (1, 4))
def test_service_bit_identical_under_faults(workload, direct_results, workers):
    service = JobService(
        devices=2,
        workers=workers,
        fault_plan=FAULT_PLAN,
        retry_policy=RetryPolicy(max_retries=3),
    )
    _schedule_mixed(service, workload, tenants=2, jobs=6)
    summary = service.run_until_idle()
    assert summary.jobs_completed == 6
    assert summary.jobs_failed == 0
    assert summary.retries == 3
    assert summary.faults == {"launch_error": 1, "transfer_error": 2}
    _assert_jobs_match_direct(service, direct_results)


def test_virtual_timeline_invariant_across_workers(workload):
    """Host-side parallelism must not leak into the virtual clock:
    same trace, same devices — identical events at any ``workers``."""
    def run(workers):
        service = JobService(devices=2, workers=workers)
        _schedule_mixed(service, workload, tenants=4, jobs=6)
        summary = service.run_until_idle()
        return service.events, summary.clock_cycles

    events_1, clock_1 = run(1)
    events_4, clock_4 = run(4)
    assert events_1 == events_4
    assert clock_1 == clock_4


def test_fault_budget_fails_job_not_service(workload):
    """A wave that faults past its budget fails its own job; other
    tenants' jobs are untouched."""
    plan = FaultPlan(
        seed=7,
        specs=(
            FaultSpec(
                "launch_error", site=WAVE_FAULT_SITE, count=1,
                at=(0,), attempts=5,
            ),
        ),
    )
    service = JobService(
        devices=1,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_retries=1),
    )
    doomed = service.submit(
        JobSpec(
            tenant="a",
            driver=STAGES["markdup"].over(workload),
            partitions=STAGES["markdup"].items(workload),
            n_pipelines=2,
        )
    )
    healthy = service.submit(
        JobSpec(
            tenant="b",
            driver=STAGES["markdup"].over(workload),
            partitions=STAGES["markdup"].items(workload),
            n_pipelines=2,
        )
    )
    summary = service.run_until_idle()
    assert service.status(doomed.job_id).state == "failed"
    assert service.status(healthy.job_id).state == COMPLETED
    assert summary.jobs_failed == 1
    assert summary.jobs_completed == 1
    with pytest.raises(RuntimeError):
        service.results(doomed.job_id)


@dataclass
class _DyingMetadataDriver(MetadataWaveDriver):
    """Its first wave to reach a pool worker takes the worker down —
    a real process death, with no fault plan anywhere."""

    parent_pid: int = 0
    marker: str = ""

    def run_wave(self, wave):
        if os.getpid() != self.parent_pid:
            try:
                os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass  # some worker has died already: once is enough
            else:
                os._exit(1)
        return super().run_wave(wave)


@pytest.mark.parametrize("death", ("real", "injected"))
def test_pooled_round_survives_a_worker_death(
    workload, direct_results, tmp_path, death
):
    """A worker dying under a served round used to come out of
    ``run_until_idle`` as a bare ``BrokenProcessPool`` (and a planned
    ``worker_crash`` was never polled).  The round is on the executor's
    ladder now: one pool restart, and served ≡ direct still holds.  A
    real death costs host seconds only — the clean run's events, to the
    cycle; a planned crash is the retry it is inline, penalty cycles and
    all — the one-worker run's events, to the cycle."""
    driver = STAGES["metadata"].over(workload)
    partitions = STAGES["metadata"].items(workload)

    def serve(driver, fault_plan=None, workers=2):
        service = JobService(
            devices=2, workers=workers, fault_plan=fault_plan
        )
        jobs = [
            service.submit(JobSpec(
                tenant=tenant, driver=driver, partitions=partitions,
                n_pipelines=2,
            )).job_id
            for tenant in ("a", "b")
        ]
        return service, jobs, service.run_until_idle()

    plan = None
    if death == "injected":
        plan = FaultPlan(specs=(FaultSpec("worker_crash", at=(0,)),))
    twin, twin_jobs, twin_summary = serve(driver, plan, workers=1)
    ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
    with run_context(RunManifest(workload="serve-death", config={}), ledger):
        if death == "real":
            service, jobs, summary = serve(_DyingMetadataDriver(
                reference=driver.reference, parent_pid=os.getpid(),
                marker=str(tmp_path / "died"),
            ))
        else:
            service, jobs, summary = serve(driver, plan)
    assert len(ledger.events("fault.pool_restart")) == 1
    # a served retry is recorded once, as the service's own event
    assert not ledger.events("fault.retry")
    assert len(ledger.events("serve.retry")) == (death == "injected")
    assert summary.retries == twin_summary.retries == (death == "injected")
    assert summary.clock_cycles == twin_summary.clock_cycles
    assert service.events == twin.events
    for job, twin_job in zip(jobs, twin_jobs):
        assert_stage_identical(
            "metadata", service.results(job), direct_results["metadata"]
        )
        assert_stage_identical(
            "metadata", service.results(job), twin.results(twin_job)
        )


def test_poisoned_wave_fails_only_its_own_job(workload, direct_results):
    """One wave past its retry budget in an eight-tenant trace fails its
    own job and nothing else: ``run`` returns, every other job completes
    ≡ its direct run, and the events are the same at any ``workers``."""
    poisoned = 3  # the dispatch seq whose wave never runs clean
    plan = FaultPlan(specs=(FaultSpec(
        "transfer_error", site=WAVE_FAULT_SITE, at=(poisoned,), attempts=9,
    ),))
    policy = RetryPolicy(max_retries=1, backoff_base=0.001)
    runs = {}
    for workers in (1, 2):
        service = JobService(
            devices=2, workers=workers, fault_plan=plan, retry_policy=policy,
        )
        _schedule_mixed(service, workload, tenants=8, jobs=8)
        runs[workers] = service, service.run_until_idle()
    service, summary = runs[1]
    assert runs[2][0].events == service.events
    (doomed,) = [
        fields["job"] for event, fields in service.events
        if event == "serve.dispatch" and fields["seq"] == poisoned
    ]
    (failed,) = [
        fields for event, fields in service.events
        if event == "serve.job.failed"
    ]
    assert failed["job"] == doomed
    assert (summary.jobs_failed, summary.jobs_completed) == (1, 7)
    assert summary.faults == {"transfer_error": 2}
    assert summary.retries == 1
    for status in service.jobs():
        if status.job_id == doomed:
            assert status.state == FAILED
            continue
        assert status.state == COMPLETED
        assert_stage_identical(
            status.stage,
            service.results(status.job_id),
            direct_results[status.stage],
        )


# -- the wave memo: a solved wave is replayed, and charged in full -------------------


def _wave_stats(result):
    """The ``RunStats`` of the wave a partition result came from (``None``
    for a partition never simulated)."""
    stats = getattr(result, "stats", None)
    run = getattr(result, "run", None)
    return stats if stats is not None else getattr(run, "stats", None)


def _wave_charges(service, job_id):
    """Wave -> (kernel, load) cycles of the job's ``serve.wave.done``s."""
    return {
        fields["wave"]: (fields["cycles"], fields["load_cycles"])
        for event, fields in service.events
        if event == "serve.wave.done" and fields["job"] == job_id
    }


@pytest.mark.parametrize("stage", SERVE_STAGES)
def test_a_resubmitted_spec_is_replayed_and_charged_in_full(
    workload, direct_results, stage
):
    """Tenant ``b`` submits tenant ``a``'s spec once ``a``'s job is done.
    Every wave of ``b``'s job is a memo hit; its results equal ``a``'s and
    the direct run's but share no object with them, so mutating one moves
    neither the other nor the memo; and the modelled card charges each of
    its waves the kernel and load cycles a fresh service charges — its
    events and SPM-cache tallies are those of simulating it."""
    row = STAGES[stage]

    def spec(tenant):
        return JobSpec(
            tenant=tenant, driver=row.over(workload),
            partitions=row.items(workload), n_pipelines=2,
        )

    service = JobService(devices=2)
    first = service.submit(spec("a"))
    service.run_until_idle()
    assert (service.memo.hits, service.memo.misses) == (0, first.waves_total)
    second = service.submit(spec("b"))
    service.run_until_idle()
    assert service.memo.hits == second.waves_total == len(service.memo)
    want = service.results(first.job_id)
    got = service.results(second.job_id)
    assert_stage_identical(stage, got, want)
    assert_stage_identical(stage, got, direct_results[stage])
    for pid, result in got.items():
        assert result is not want[pid]
        if _wave_stats(result) is not None:
            assert _wave_stats(result) is not _wave_stats(want[pid])
            assert_same_modelled(_wave_stats(result), _wave_stats(want[pid]))

    fresh = JobService(devices=2)
    alone = fresh.submit(spec("b"))
    fresh.run_until_idle()
    assert _wave_charges(service, second.job_id) == (
        _wave_charges(fresh, alone.job_id)
    )
    # the same two jobs with b's waves simulated: the same events, and
    # the same SPM-cache tallies, counted against the rows a loaded
    simulated = JobService(devices=2)
    simulated.submit(spec("a"))
    simulated.run_until_idle()
    simulated.memo = WaveMemo()
    simulated.submit(spec("b"))
    tallies = [
        (summary.spm_hits, summary.spm_misses, summary.spm_cycles_saved)
        for summary in (simulated.run_until_idle(), service.summary())
    ]
    assert simulated.memo.hits == 0
    assert simulated.events == service.events
    assert tallies[0] == tallies[1]

    def mutate(results):
        for result in results.values():
            answer = getattr(result, ANSWERS[stage][0])
            if len(answer):
                answer[0] += 1

    mutate(got)
    assert_stage_identical(stage, want, direct_results[stage])
    mutate(want)
    third = service.submit(spec("c"))
    service.run_until_idle()
    assert service.memo.hits == 2 * second.waves_total
    assert_stage_identical(
        stage, service.results(third.job_id), direct_results[stage]
    )


def _flip_one_base(part):
    """``part`` with one base of its first read changed."""
    columns = {
        spec.name: part.column(spec.name) for spec in part.schema.columns
    }
    seq = list(columns["SEQ"])
    seq[0] = seq[0].copy()
    seq[0][0] = (int(seq[0][0]) + 1) % 4
    columns["SEQ"] = seq
    return Table(part.schema, columns, part.num_rows)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("stage,tallies", [
    ("metadata", (0, 14, 0)), ("bqsr", (30, 14, 30300)),
])
def test_a_rounds_loads_tally_against_the_keys_it_began_with(
    workload, stage, tallies, workers
):
    """Two tenants ask for one stage over the same partitions at cycle
    0, so each round's two picks, one per card, load the same REF rows.
    Each pick's loads are tallied in dispatch order against the keys
    the cache held when the round began: the second pick misses where
    the first did, and only a later round (or an earlier item of the
    same wave) hits.  The tallies are pinned at the values the service
    counted when each solve was seeded with the round-start keys."""
    row = STAGES[stage]
    service = JobService(devices=2, workers=workers)
    for tenant in ("a", "b"):
        service.submit(JobSpec(tenant, row.over(workload), row.items(workload), 2))
    summary = service.run_until_idle()
    assert summary.jobs_completed == 2
    assert (
        summary.spm_hits, summary.spm_misses, summary.spm_cycles_saved
    ) == tallies


def test_the_memo_key_covers_what_a_wave_depends_on(workload, monkeypatch):
    """The same wave through another driver object replays; one flipped
    base in one read, a ``dense`` against a ``maxplus`` wave and another
    ``MemoryConfig`` are each another wave — a miss."""
    row = STAGES["metadata"]
    wave = [item for item in row.items(workload) if item[1].num_rows][:2]
    memo = WaveMemo()

    def task(driver=None, items=wave):
        return WaveTask(0, driver or row.over(workload), items, memo=memo)

    next(run_waves([task()], 1))
    assert memo.replay(task()) is not None
    (pid, part), *rest = wave
    others = [
        task(items=[(pid, _flip_one_base(part)), *rest]),
        task(row.over(workload, mode="dense")),
        task(row.over(
            workload, memory_config=MemoryConfig(latency_cycles=41)
        )),
    ]
    monkeypatch.setattr(Engine, "default_mode", "dense")
    others.append(task())
    for other in others:
        assert memo.replay(other) is None
    assert (memo.hits, memo.misses, len(memo)) == (1, 1 + len(others), 1)


def test_a_service_digests_each_partition_once(workload, monkeypatch):
    """A tenant submits one job three times: each partition is digested
    once for the service, however often its wave is dispatched, and the
    resubmissions still replay every wave."""
    digested = []
    digest = scheduler.partition_digest

    def spy(part):
        digested.append(id(part))
        return digest(part)

    monkeypatch.setattr(scheduler, "partition_digest", spy)
    row = STAGES["metadata"]
    spec = JobSpec("a", row.over(workload), row.items(workload), 2)
    service = JobService(devices=2)
    for _ in range(3):
        service.submit(spec)
    service.run_until_idle()
    _empty, waves = pack_waves(spec.partitions, 2)
    packed = [id(part) for wave in waves for _pid, part in wave]
    assert sorted(digested) == sorted(packed)
    assert service.memo.hits == 2 * len(waves)
    assert service.summary().waves_dispatched == 3 * len(waves)


def test_replayed_waves_report_their_own_host_seconds(workload):
    """Each stage is served twice: every dispatched wave's results carry
    a ``RunStats`` of their own, and a replayed one's ``wall_seconds`` is
    the replay's, so their sum stays within the service's host time."""
    service = JobService(devices=2)
    _schedule_mixed(service, workload, tenants=4, jobs=6)
    summary = service.run_until_idle()
    assert service.memo.hits > 0
    stats = {
        id(wave): wave
        for status in service.jobs()
        for wave in map(_wave_stats, service.results(status.job_id).values())
        if wave is not None
    }
    assert len(stats) == summary.waves_dispatched
    assert sum(wave.wall_seconds for wave in stats.values()) <= (
        summary.host_elapsed_seconds
    )


# -- admission control --------------------------------------------------------------


def _one_partition_spec(workload, tenant):
    return JobSpec(
        tenant=tenant,
        driver=STAGES["markdup"].over(workload),
        partitions=STAGES["markdup"].items(workload)[:1],
        n_pipelines=2,
    )


def test_admission_quota_and_backlog(workload):
    service = JobService(devices=1, quota=2, max_backlog=3)
    assert service.submit(_one_partition_spec(workload, "a")).state == QUEUED
    assert service.submit(_one_partition_spec(workload, "a")).state == QUEUED
    over_quota = service.submit(_one_partition_spec(workload, "a"))
    assert over_quota.state == REJECTED
    assert service.submit(_one_partition_spec(workload, "b")).state == QUEUED
    over_backlog = service.submit(_one_partition_spec(workload, "b"))
    assert over_backlog.state == REJECTED
    reasons = [
        fields["reason"]
        for event, fields in service.events
        if event == "serve.reject"
    ]
    assert reasons == [REJECT_QUOTA, REJECT_BACKLOG]
    summary = service.run_until_idle()
    assert summary.jobs_completed == 3
    assert summary.jobs_rejected == 2
    assert summary.tenants["a"].rejected == 1
    assert summary.tenants["b"].rejected == 1
    # capacity freed: the same tenant is admitted again
    assert service.submit(_one_partition_spec(workload, "a")).state == QUEUED


def test_weighted_fair_dispatch(workload):
    """With weights {a: 1, b: 3} and equal-size jobs, the first eight
    dispatches split 2/6 — the WFQ pattern a,b,b,b,a,b,b,b."""
    service = JobService(
        devices=1, quota=16, max_backlog=32, weights={"a": 1.0, "b": 3.0}
    )
    for tenant in ("a", "b"):
        for _ in range(8):
            service.submit(_one_partition_spec(workload, tenant))
    service.run_until_idle()
    dispatched = [
        fields["tenant"]
        for event, fields in service.events
        if event == "serve.dispatch"
    ]
    assert dispatched[:8] == ["a", "b", "b", "b", "a", "b", "b", "b"]
    assert dispatched.count("a") == 8 and dispatched.count("b") == 8


# -- status / streaming -------------------------------------------------------------


def test_status_and_partial_results(workload, direct_results):
    partitions = STAGES["metadata"].items(workload)
    service = JobService(devices=1)
    status = service.submit(
        JobSpec(
            tenant="a",
            driver=STAGES["metadata"].over(workload),
            partitions=partitions,
            n_pipelines=2,
        )
    )
    assert status.state == QUEUED
    assert status.waves_total > 1
    assert service.partial_results(status.job_id) == {}
    service.run(max_dispatches=1)
    service.run(max_dispatches=1)
    mid = service.status(status.job_id)
    assert mid.state == "running"
    assert 0 < mid.waves_done < mid.waves_total
    partial = service.partial_results(status.job_id)
    assert partial
    for pid, result in partial.items():
        assert result.nm == direct_results["metadata"][pid].nm
    service.run_until_idle()
    done = service.status(status.job_id)
    assert done.state == COMPLETED
    assert done.waves_done == done.waves_total
    assert done.latency_cycles > 0


def test_stream_yields_progress(workload):
    service = JobService(devices=1)
    status = service.submit(
        JobSpec(
            tenant="a",
            driver=STAGES["markdup"].over(workload),
            partitions=STAGES["markdup"].items(workload),
            n_pipelines=2,
        )
    )
    snapshots = list(service.stream(status.job_id))
    assert snapshots[-1].state == COMPLETED
    done_counts = [snap.waves_done for snap in snapshots]
    assert done_counts == sorted(done_counts)


# -- observability ------------------------------------------------------------------


def test_ledger_events_and_report(workload, tmp_path):
    ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
    manifest = RunManifest(workload="serve-test", config={}, seed=0)
    with run_context(manifest, ledger):
        service = JobService(devices=2, quota=1, max_backlog=8)
        _schedule_mixed(service, workload, tenants=3, jobs=3)
        service.schedule(_one_partition_spec(workload, "t0"), at_cycles=0)
        service.run_until_idle()
    assert ledger.events("serve.admit", run_id=manifest.run_id)
    assert ledger.events("serve.dispatch", run_id=manifest.run_id)
    assert ledger.events("serve.wave.done", run_id=manifest.run_id)
    done = ledger.events("serve.job.done", run_id=manifest.run_id)
    assert len(done) == 3
    assert all(record["latency_cycles"] > 0 for record in done)
    report = ServiceReport.from_ledger(ledger, run_id=manifest.run_id)
    assert report.admitted == 3
    assert report.rejected == 1
    assert report.completed == 3
    assert report.dropped_admitted == 0
    for tenant_report in report.tenants.values():
        if tenant_report.completed:
            assert tenant_report.p50_latency_cycles > 0
            assert (
                tenant_report.p99_latency_cycles
                >= tenant_report.p50_latency_cycles
            )


def test_a_summary_does_not_move_when_the_service_runs_on(workload):
    """A summary is a snapshot: running on, and taking more summaries,
    changes none of its tenant books, while a later summary sees the
    jobs that completed since."""
    import copy

    service = JobService(devices=1, quota=4, max_backlog=8)
    for tenant in ("a", "b", "a"):
        service.submit(_one_partition_spec(workload, tenant))
    early = service.summary()
    service.run(max_dispatches=1)
    middle = service.summary()
    kept = copy.deepcopy((vars(early), vars(middle)))
    assert service.summary() == middle  # nothing ran in between
    final = service.run_until_idle()
    service.summary()
    assert (vars(early), vars(middle)) == kept
    assert [t.completed for t in early.tenants.values()] == [0, 0]
    assert sum(t.completed for t in final.tenants.values()) == 3
    assert final.tenants["a"].latencies and not early.tenants["a"].latencies


def test_summary_and_events_carry_the_serve_counts(workload):
    service = JobService(devices=1, quota=1, max_backlog=8)
    service.submit(_one_partition_spec(workload, "a"))
    service.submit(_one_partition_spec(workload, "a"))
    summary = service.run_until_idle()
    account = summary.tenants["a"]
    assert (account.admitted, account.rejected, account.completed) == (1, 1, 1)
    assert (summary.jobs_admitted, summary.jobs_rejected) == (1, 1)
    assert summary.jobs_completed == 1
    assert summary.waves_dispatched == 1
    assert account.cycles > 0
    by_event = {}
    for event, fields in service.events:
        by_event.setdefault(event, []).append(fields)
    assert [f["tenant"] for f in by_event["serve.admit"]] == ["a"]
    (reject,) = by_event["serve.reject"]
    assert (reject["tenant"], reject["reason"]) == ("a", REJECT_QUOTA)
    assert len(by_event["serve.dispatch"]) == 1
    assert len(by_event["serve.job.done"]) == 1
    (wave,) = by_event["serve.wave.done"]
    assert wave["cycles"] + wave["load_cycles"] == account.cycles


def test_pooled_served_waves_log_their_worker_id(workload, tmp_path):
    """A round of two waves runs on the executor's pool; the workers'
    ``wave N done`` records must say which worker wrote them, as the
    batch scheduler's do."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers inherit the log handler only when forked")
    driver = STAGES["metadata"].over(workload)
    partitions = STAGES["metadata"].items(workload)
    package_log = logging.getLogger("repro")
    log_path = tmp_path / "serve.jsonl"
    try:
        with open(log_path, "a") as stream:
            configure_logging(json_lines=True, verbosity=1, stream=stream)
            service = JobService(devices=2, workers=2)
            for tenant in ("a", "b"):
                service.submit(JobSpec(
                    tenant=tenant, driver=driver, partitions=partitions,
                    n_pipelines=2,
                ))
            service.run_until_idle()
    finally:
        for handler in list(package_log.handlers):
            package_log.removeHandler(handler)
        package_log.setLevel(logging.NOTSET)
        package_log.propagate = True
    waves = [
        record for record in map(json.loads, log_path.read_text().splitlines())
        if record["logger"] == "repro.scheduler" and "wave" in record
    ]
    workers = {record.get("worker_id") for record in waves}
    assert len(waves) >= 2
    assert workers - {None}, "no served wave was stamped by a pool worker"
    assert f"w{os.getpid()}" not in workers
