"""Tests for ``repro analyze --critical-path``: the per-job latency
decomposition rebuilt from the serve ledger.

The load-bearing invariant: the decomposed segments of every job sum
EXACTLY to the job's ledger-recorded latency — the walk is a partition
of [arrival, completion], not a sampling, so nothing is lost or double
counted even through retries, fault penalties, and a drain/resume
restart.
"""

import pathlib

import pytest

from repro.eval.workloads import make_workload
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.retry import RetryPolicy
from repro.obs.analyze import (
    CRITICAL_PATH_CATEGORIES,
    critical_path_from_ledger,
)
from repro.obs.ledger import RunLedger, RunManifest, run_context
from repro.accel.scheduler import WAVE_FAULT_SITE
from repro.serve import JobService
from repro.serve.trace import ArrivalTrace, trace_jobs

DATA = pathlib.Path(__file__).parent / "data"

#: A served ledger written while the service walked a ladder of its own
#: at the ``serve.wave`` site (two ``serve.wave`` faults, each with its
#: ``serve.retry``), with the ``analyze --critical-path`` output it gave.
OLD_LEDGER = DATA / "serve_wave_fault_ledger.jsonl"


@pytest.fixture(scope="module")
def workload():
    return make_workload(
        n_reads=60, read_length=60, chromosomes=(20,),
        genome_scale=4.5e-5, psize=1000, seed=3,
    )


def _serve_into_ledger(
    tmp_path, workload, drain_at=None, fault_plan=None, jobs=8
):
    ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
    trace = ArrivalTrace.generate(
        tenants=3, jobs=jobs, seed=1, stages=("markdup", "metadata"),
        mean_gap_cycles=30_000,
    )
    with run_context(
        RunManifest(workload="serve", config={}, seed=1), ledger
    ):
        service = JobService(
            devices=2, workers=1, fault_plan=fault_plan,
            retry_policy=RetryPolicy(max_retries=3),
        )
        for at_cycles, spec in trace_jobs(trace, workload, n_pipelines=2):
            service.schedule(spec, at_cycles=at_cycles)
        if drain_at is not None:
            service.run(max_dispatches=drain_at)
            checkpoint = service.drain()
            service = JobService.resume(checkpoint)
        summary = service.run_until_idle()
    assert summary.jobs_failed == 0
    return RunLedger(str(tmp_path / "ledger.jsonl")), summary


def _assert_exact(report):
    assert report.jobs
    for job in report.jobs:
        assert set(job.segments) <= set(CRITICAL_PATH_CATEGORIES)
        assert all(cycles >= 0 for cycles in job.segments.values())
        assert sum(job.segments.values()) == job.latency_cycles


class TestExactDecomposition:
    def test_plain_run_sums_exactly(self, tmp_path, workload):
        ledger, summary = _serve_into_ledger(tmp_path, workload)
        report = critical_path_from_ledger(ledger)
        assert len(report.jobs) == summary.jobs_completed
        _assert_exact(report)
        total = report.totals()
        assert total["kernel"] > 0
        assert total["transfer"] > 0

    def test_drain_resume_run_sums_exactly(self, tmp_path, workload):
        ledger, _ = _serve_into_ledger(tmp_path, workload, drain_at=3)
        report = critical_path_from_ledger(ledger)
        _assert_exact(report)
        # the aborted pre-drain wave time is charged to "drain"
        assert report.totals().get("drain", 0) > 0

    def test_faulted_run_sums_exactly(self, tmp_path, workload):
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(
                "transfer_error", site=WAVE_FAULT_SITE, count=2, at=(0, 3)
            ),
        ))
        ledger, summary = _serve_into_ledger(
            tmp_path, workload, fault_plan=plan
        )
        assert summary.retries > 0
        report = critical_path_from_ledger(ledger)
        _assert_exact(report)
        assert report.totals().get("fault_penalty", 0) > 0
        # an older ledger's fault penalties still decompose as they did
        old = critical_path_from_ledger(RunLedger(str(OLD_LEDGER)))
        _assert_exact(old)
        assert old.totals()["fault_penalty"] > 0
        assert old.render() + "\n" == OLD_LEDGER.with_suffix(
            ".critical_path.txt"
        ).read_text()

    def test_faulted_drain_resume_run_sums_exactly(self, tmp_path, workload):
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(
                "transfer_error", site=WAVE_FAULT_SITE, count=2, at=(0, 3)
            ),
        ))
        ledger, _ = _serve_into_ledger(
            tmp_path, workload, drain_at=4, fault_plan=plan
        )
        _assert_exact(critical_path_from_ledger(ledger))


class TestReportShape:
    def test_job_filter(self, tmp_path, workload):
        ledger, _ = _serve_into_ledger(tmp_path, workload)
        report = critical_path_from_ledger(ledger, job_id=0)
        assert [job.job for job in report.jobs] == [0]
        with pytest.raises(ValueError, match="job 999"):
            critical_path_from_ledger(ledger, job_id=999)

    def test_empty_ledger_raises(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "empty.jsonl"))
        with pytest.raises(ValueError, match="serve.job.done"):
            critical_path_from_ledger(ledger)

    def test_render_names_every_job(self, tmp_path, workload):
        ledger, summary = _serve_into_ledger(tmp_path, workload)
        report = critical_path_from_ledger(ledger)
        text = report.render()
        assert "critical-path analysis" in text
        for job in report.jobs:
            assert f"job {job.job}" in text
            assert job.tenant in text

    def test_dominant_segment(self, tmp_path, workload):
        ledger, _ = _serve_into_ledger(tmp_path, workload)
        report = critical_path_from_ledger(ledger)
        for job in report.jobs:
            dominant = job.dominant
            assert job.segments[dominant] == max(job.segments.values())

    def test_old_ledger_without_wave_starts_still_sums(
        self, tmp_path, workload
    ):
        """Pre-v2 ledgers lack start/transfer/penalty cycles on
        serve.wave.done; the analyzer falls back to kernel+load
        attribution and charges the rest to queue_wait — exactly."""
        import json

        ledger, _ = _serve_into_ledger(tmp_path, workload)
        path = tmp_path / "ledger.jsonl"
        stripped = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record.get("event") == "serve.wave.done":
                for key in (
                    "start_cycles", "transfer_cycles", "penalty_cycles"
                ):
                    record.pop(key, None)
            stripped.append(json.dumps(record))
        old = tmp_path / "old.jsonl"
        old.write_text("\n".join(stripped) + "\n")
        report = critical_path_from_ledger(RunLedger(str(old)))
        _assert_exact(report)
        assert report.totals().get("queue_wait", 0) > 0
