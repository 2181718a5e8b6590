"""Graceful drain/resume regression tests.

Draining mid-wave must requeue every in-flight wave, and the restarted
service must pick the work back up from the checkpoint, with the
drain/resume trail in the ledger and the cards' occupancy carried over.
The merged results must stay bit-identical to an undisturbed run —
faults included; ``tests/test_lattice.py`` draws the same against the
direct run.  Latencies may
legitimately differ (a drain delays the requeued waves); output bits
may not.
"""

import pytest

from hw_harness import assert_stage_identical
from repro.eval.workloads import make_workload
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.retry import RetryPolicy
from repro.obs.ledger import RunLedger, RunManifest, run_context
from repro.accel.scheduler import WAVE_FAULT_SITE
from repro.serve import COMPLETED, JobService, JobSpec
from repro.accel.stages import STAGES
from repro.serve.trace import SERVE_STAGES


@pytest.fixture(scope="module")
def workload():
    return make_workload(
        n_reads=80,
        read_length=50,
        chromosomes=(20, 21),
        genome_scale=4.5e-5,
        psize=900,
        seed=105,
    )


def _build(workload, fault_plan=None):
    service = JobService(
        devices=2,
        workers=1,
        fault_plan=fault_plan,
        retry_policy=RetryPolicy(max_retries=3),
    )
    for index in range(4):
        stage = SERVE_STAGES[index % len(SERVE_STAGES)]
        service.schedule(
            JobSpec(
                tenant=f"t{index % 2}",
                driver=STAGES[stage].over(workload),
                partitions=STAGES[stage].items(workload),
                n_pipelines=2,
            ),
            at_cycles=index * 1000,
        )
    return service


def _assert_resumed_identical(resumed, undisturbed):
    """Every job of ``resumed`` has ``undisturbed``'s answer."""
    want = {status.job_id: status for status in undisturbed.jobs()}
    assert [status.job_id for status in resumed.jobs()] == list(want)
    for status in resumed.jobs():
        assert_stage_identical(
            status.stage,
            resumed.results(status.job_id),
            undisturbed.results(status.job_id),
        )


@pytest.mark.parametrize("drain_after", (1, 3, 5))
def test_drain_resume_bit_identical(workload, drain_after):
    undisturbed = _build(workload)
    undisturbed.run_until_idle()

    service = _build(workload)
    service.run(max_dispatches=drain_after)
    checkpoint = service.drain()
    assert not service._inflight  # everything requeued
    resumed = JobService.resume(checkpoint)
    summary = resumed.run_until_idle()
    assert summary.jobs_completed == 4
    _assert_resumed_identical(resumed, undisturbed)


def test_drain_resume_under_faults(workload):
    plan = FaultPlan(
        seed=11,
        specs=(
            FaultSpec(
                "transfer_error", site=WAVE_FAULT_SITE, count=2, at=(0, 3)
            ),
        ),
    )
    undisturbed = _build(workload, fault_plan=plan)
    undisturbed.run_until_idle()

    service = _build(workload, fault_plan=plan)
    service.run(max_dispatches=4)
    resumed = JobService.resume(service.drain())
    summary = resumed.run_until_idle()
    assert summary.jobs_completed == 4
    assert summary.faults == {"transfer_error": 2}
    _assert_resumed_identical(resumed, undisturbed)
    # consumed fault slots are not replayed after resume: the total
    # injection count matches the undisturbed run exactly
    assert summary.faults == undisturbed.summary().faults


def test_drain_requeues_inflight_waves(workload):
    service = _build(workload)
    service.run(max_dispatches=3)
    inflight = {
        (rec.dispatch.job.job_id, rec.dispatch.wave_index)
        for rec in service._inflight.values()
    }
    assert inflight  # the budgeted run left work mid-wave
    pre_drain_done = {
        job_id: service.status(job_id).waves_done
        for job_id, _wave in inflight
    }
    checkpoint = service.drain()
    assert not service._inflight
    for job_id, wave_index in inflight:
        job = checkpoint.jobs[job_id]
        assert wave_index in job.pending  # requeued, not completed
        assert job.waves_done == pre_drain_done[job_id]
    resumed = JobService.resume(checkpoint)
    resumed.run_until_idle()
    for job_id, _wave in inflight:
        assert resumed.status(job_id).state == COMPLETED


def test_drain_trail_in_ledger(workload, tmp_path):
    ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
    manifest = RunManifest(workload="serve-drain", config={}, seed=0)
    with run_context(manifest, ledger):
        service = _build(workload)
        service.run(max_dispatches=2)
        checkpoint = service.drain()
        resumed = JobService.resume(checkpoint)
        resumed.run_until_idle()
    drains = ledger.events("serve.drain", run_id=manifest.run_id)
    resumes = ledger.events("serve.resume", run_id=manifest.run_id)
    assert len(drains) == 1 and len(resumes) == 1
    assert drains[0]["requeued"] >= 1
    assert resumes[0]["clock"] == drains[0]["clock"]
    done = ledger.events("serve.job.done", run_id=manifest.run_id)
    assert len(done) == 4


def test_resumed_service_mirrors_the_whole_run(workload, tmp_path):
    """Regression: ``resume`` used to start the new service's ``events``
    mirror empty, so anything read off it after a drain — the trace, a
    queue-wait book — saw only the post-resume half of the run.  The
    mirror rides the checkpoint: it equals the run's ledger, in order."""
    import json

    ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
    manifest = RunManifest(workload="serve-drain", config={}, seed=0)
    with run_context(manifest, ledger):
        service = _build(workload)
        service.run(max_dispatches=3)
        pre_drain = len(service.events)
        resumed = JobService.resume(service.drain())
        resumed.run_until_idle()
    envelope = {"schema", "schema_version", "ts", "run_id", "event"}
    ledgered = [
        [record["event"], {
            key: value for key, value in record.items()
            if key not in envelope
        }]
        for record in ledger.events("serve.", run_id=manifest.run_id)
    ]
    assert pre_drain > 0 and len(ledgered) > pre_drain
    assert json.loads(json.dumps(resumed.events)) == ledgered
    # the drained service's own mirror stopped at the drain
    assert [event for event, _ in service.events][-1] == "serve.drain"
    # and the trace folded from the mirror spans the restart
    boundary = resumed.events[len(service.events)][1]["clock"]
    waves = [s for s in resumed.spans() if s.cat == "wave"]
    assert any(s.end <= boundary for s in waves)
    assert any(s.start >= boundary for s in waves)


def test_drain_idle_service_is_clean(workload):
    service = _build(workload)
    service.run_until_idle()
    checkpoint = service.drain()
    assert checkpoint.open_jobs == 0
    resumed = JobService.resume(checkpoint)
    summary = resumed.run_until_idle()
    assert summary.jobs_completed == 4


def test_resume_keeps_submission_order_among_arrivals(workload):
    """Regression: ``resume`` used to restart the arrival counter at
    ``len(pending arrivals)`` while the pending arrivals kept their
    original submission numbers, so a job scheduled *after* the resume
    could be admitted *before* an older arrival at the same cycle —
    breaking the documented ``(at_cycles, submission order)`` rule."""
    def spec(tenant):
        return JobSpec(
            tenant=tenant,
            driver=STAGES["markdup"].over(workload),
            partitions=STAGES["markdup"].items(workload)[:2],
            n_pipelines=2,
        )

    late = 10 ** 7
    service = JobService(devices=1, quota=8)
    for tenant, at_cycles in (
        ("old0", 0), ("old1", 0), ("old2", 0),
        ("old3", late), ("old4", 2 * late),
    ):
        service.schedule(spec(tenant), at_cycles=at_cycles)
    service.run(max_dispatches=1)  # admits the three due arrivals
    assert [job.tenant for job in service.jobs()] == ["old0", "old1", "old2"]
    resumed = JobService.resume(service.drain())
    resumed.schedule(spec("new"), at_cycles=2 * late)  # same cycle as old4
    assert [s.tenant for _at, _seq, s in resumed._arrivals] == [
        "old3", "old4", "new",
    ]
    summary = resumed.run_until_idle()
    assert summary.jobs_completed == 6
    # job ids are handed out at admission: admission order is id order
    assert [job.tenant for job in resumed.jobs()] == [
        "old0", "old1", "old2", "old3", "old4", "new",
    ]


@pytest.mark.parametrize("drain_after", (1, 3))
def test_drain_keeps_device_occupancy(workload, drain_after):
    """Occupancy charged before a drain is not lost: the cards carry
    over the restart, so the drained run's busy/transfer seconds are the
    sum over *all* its dispatches — more dispatches than the undisturbed
    run (the in-flight waves re-run), hence at least as much time."""
    undisturbed = _build(workload)
    u_summary = undisturbed.run_until_idle()

    service = _build(workload)
    service.run(max_dispatches=drain_after)
    resumed = JobService.resume(service.drain())
    summary = resumed.run_until_idle()
    assert summary.waves_dispatched > u_summary.waves_dispatched

    clock_hz = resumed.pool.config.clock_hz
    dispatched = [
        fields for event, fields in resumed.events
        if event == "serve.dispatch"
    ]
    assert len(dispatched) == summary.waves_dispatched
    for device, card in enumerate(resumed.pool):
        waves = [
            (f["job"], f["wave"]) for f in dispatched if f["device"] == device
        ]
        # one DMA per dispatch, and exactly the dispatched waves' kernels
        assert len(card.transfers) == len(waves)
        assert summary.device_transfer_seconds[device] == pytest.approx(
            sum(t.seconds for t in card.transfers)
        )
        kernel_cycles = sum(
            resumed._jobs[job].wave_cycles[wave] for job, wave in waves
        )
        assert summary.device_busy_seconds[device] == pytest.approx(
            kernel_cycles / clock_hz
        )
        assert summary.device_busy_seconds[device] >= (
            u_summary.device_busy_seconds[device]
        )
        assert summary.device_transfer_seconds[device] >= (
            u_summary.device_transfer_seconds[device]
        )

