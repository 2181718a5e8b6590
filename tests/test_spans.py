"""Tests for the fleet trace (repro.obs.spans): the fold that turns a
run's ledger events into spans — on hand-written events, on served runs
and on ledgered direct runs — and the chrome://tracing export."""

import json
import pathlib

import pytest

from repro.obs.ledger import RunLedger
from repro.obs.spans import (
    WAVE_SEGMENTS,
    TraceSpan,
    WaveTimeline,
    fleet_chrome_trace,
    tenant_colors,
    trace_spans,
    write_fleet_trace,
)


DATA = pathlib.Path(__file__).parent / "data"


def _span(name="s", lane="service", start=0, end=10, tenant=None, **kw):
    defaults = dict(
        trace_id="t-1", span_id=1, parent_id=None, name=name, cat="wave",
        start=start, end=end, lane=lane, tenant=tenant,
    )
    defaults.update(kw)
    return TraceSpan(**defaults)


#: A two-wave served job with one retry, as the service ledgers it.
JOB_EVENTS = [
    ("serve.admit", dict(tenant="t0", job=0, stage="markdup", waves=2,
                         partitions=3, clock=5)),
    ("serve.retry", dict(tenant="t0", job=0, wave=0, attempt=0,
                         kind="transfer_error", backoff_seconds=0.001,
                         clock=5)),
    ("serve.dispatch", dict(seq=0, tenant="t0", job=0, stage="markdup",
                            wave=0, device=0, clock=5, attempt=1,
                            cost_rows=9)),
    ("serve.wave.done", dict(tenant="t0", job=0, wave=0, device=0,
                             attempt=1, **WaveTimeline(
                                 5, penalty=250, transfer=40, load=0,
                                 kernel=100).to_record())),
    ("serve.dispatch", dict(seq=1, tenant="t0", job=0, stage="markdup",
                            wave=1, device=0, clock=395, attempt=0,
                            cost_rows=4)),
    ("serve.wave.done", dict(tenant="t0", job=0, wave=1, device=0,
                             attempt=0, **WaveTimeline(
                                 395, transfer=30, kernel=60).to_record())),
    ("serve.job.done", dict(tenant="t0", job=0, stage="markdup", waves=2,
                            latency_cycles=480, queue_cycles=0,
                            service_cycles=480, arrival_cycles=5,
                            clock=485)),
]


class TestTraceFold:
    def test_sequential_ids_and_parenting(self):
        spans = trace_spans(JOB_EVENTS)
        assert sorted(s.span_id for s in spans) == list(
            range(1, len(spans) + 1)
        )
        by_id = {s.span_id: s for s in spans}
        waves = [s for s in spans if s.cat == "wave"]
        assert [by_id[w.parent_id].cat for w in waves] == ["job", "job"]
        for span in spans:
            if span.cat in WAVE_SEGMENTS:
                assert by_id[span.parent_id].cat == "wave"

    def test_root_id_is_reserved_at_admission(self):
        spans = trace_spans(JOB_EVENTS)
        # the root is laid last (at completion) under the first id
        assert (spans[-1].cat, spans[-1].span_id) == ("job", 1)
        assert (spans[-1].start, spans[-1].end) == (5, 485)
        assert spans[0].parent_id == 1 and spans[0].span_id == 2

    def test_markers_are_zero_length(self):
        events = JOB_EVENTS + [
            ("serve.drain", dict(clock=500, requeued=0, open_jobs=0,
                                 pending_arrivals=0)),
            ("serve.resume", dict(clock=500, open_jobs=0,
                                  pending_arrivals=0)),
        ]
        spans = trace_spans(events)
        markers = [s for s in spans if s.cat in ("fault", "drain")]
        assert [s.name for s in markers] == [
            "fault:transfer_error", "drain", "resume"
        ]
        assert all(s.duration == 0 for s in markers)

    def test_identical_events_identical_traces(self):
        assert trace_spans(JOB_EVENTS) == trace_spans(list(JOB_EVENTS))

    def test_a_prefix_of_the_ledger_traces_to_a_prefix(self):
        full = trace_spans(JOB_EVENTS)
        for cut in range(len(JOB_EVENTS)):
            part = trace_spans(JOB_EVENTS[:cut])
            assert part == full[:len(part)]

    def test_untraced_events_lay_nothing(self):
        noise = [
            ("run.start", {}), ("serve.reject", dict(job=9, clock=0)),
            ("shard.device", dict(device=0)), ("cli.exit", dict(code=0)),
        ]
        assert trace_spans(noise) == []
        mixed = [pair for event in JOB_EVENTS for pair in (event, noise[1])]
        assert trace_spans(mixed) == trace_spans(JOB_EVENTS)

    def test_missing_fact_is_a_value_error(self):
        with pytest.raises(ValueError, match="serve.wave.done.*serve.admit of job 0"):
            trace_spans(JOB_EVENTS[2:4])  # a wave of a job never admitted
        event, fields = JOB_EVENTS[2]
        trimmed = {k: v for k, v in fields.items() if k != "cost_rows"}
        with pytest.raises(ValueError, match="serve.dispatch.*cost_rows"):
            trace_spans([JOB_EVENTS[0], (event, trimmed)])

    def test_retry_without_a_clock_lays_no_marker(self):
        """Ledgers written before ``serve.retry`` carried ``clock`` still
        fold; the marker they cannot place is left out."""
        event, fields = JOB_EVENTS[1]
        old = {k: v for k, v in fields.items() if k != "clock"}
        spans = trace_spans([JOB_EVENTS[0], (event, old), *JOB_EVENTS[2:]])
        assert [s.cat for s in spans if s.cat == "fault"] == []
        assert len(spans) == len(trace_spans(JOB_EVENTS)) - 1


class TestFleetChromeTrace:
    def test_lane_ordering_service_device_pcie_sql(self):
        spans = [
            _span(lane="sql"),
            _span(lane="pcie:0"),
            _span(lane="device:1"),
            _span(lane="device:0"),
            _span(lane="service"),
        ]
        doc = fleet_chrome_trace(spans)
        assert doc["otherData"]["lanes"] == [
            "service", "device:0", "device:1", "pcie:0", "sql"
        ]

    def test_process_metadata_per_lane(self):
        doc = fleet_chrome_trace([_span(lane="device:0")])
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["name"]: e for e in meta}
        assert names["process_name"]["args"]["name"] == "device:0"
        assert names["process_sort_index"]["args"]["sort_index"] == 0

    def test_tenant_tracks_and_colors(self):
        spans = [
            _span(tenant="t000"),
            _span(tenant="t001"),
            _span(tenant=None),
        ]
        doc = fleet_chrome_trace(spans)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        colored = {e["args"].get("tenant"): e.get("cname") for e in xs}
        assert colored[None] is None
        assert colored["t000"] != colored["t001"]
        # stable palette: same tenants -> same colors
        assert tenant_colors(spans) == tenant_colors(list(reversed(spans)))
        # the untenanted track renders as "events"
        threads = [
            e["args"]["name"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert "events" in threads and "tenant t000" in threads

    def test_zero_length_span_exports_zero_dur(self):
        doc = fleet_chrome_trace([_span(start=5, end=5)])
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs[0]["ts"] == 5 and xs[0]["dur"] == 0

    def test_trace_context_in_args(self):
        doc = fleet_chrome_trace([
            _span(span_id=7, parent_id=3, attrs={"wave": 2})
        ])
        args = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]["args"]
        assert args["span_id"] == 7
        assert args["parent_id"] == 3
        assert args["wave"] == 2

    def test_write_round_trips(self, tmp_path):
        path = tmp_path / "fleet.json"
        write_fleet_trace([_span()], str(path), name="demo")
        doc = json.loads(path.read_text())
        assert doc["otherData"]["name"] == "demo"
        assert doc["otherData"]["spans"] == 1


# -- the fold over real runs: served, and ledgered direct runs ------------------------


@pytest.fixture(scope="module")
def workload():
    from repro.eval.workloads import make_workload

    return make_workload(
        n_reads=60, read_length=60, chromosomes=(20,),
        genome_scale=4.5e-5, psize=1000, seed=3,
    )


def _service(workload, jobs=6, **kwargs):
    from repro.serve import ArrivalTrace, JobService, trace_jobs

    trace = ArrivalTrace.generate(
        tenants=3, jobs=jobs, seed=1, stages=("markdup", "metadata"),
        mean_gap_cycles=30_000,
    )
    service = JobService(devices=2, workers=1, **kwargs)
    for at_cycles, spec in trace_jobs(trace, workload, n_pipelines=2):
        service.schedule(spec, at_cycles=at_cycles)
    return service


def _served(workload, drain_at=None, **kwargs):
    """A served run's trace spans and summary."""
    from repro.serve import JobService

    service = _service(workload, **kwargs)
    if drain_at is not None:
        service.run(max_dispatches=drain_at)
        service = JobService.resume(service.drain())
    summary = service.run_until_idle()
    return service.spans(), summary


class TestServiceSpans:
    def test_job_roots_cover_arrival_to_completion(self, workload):
        from repro.serve import COMPLETED

        spans, summary = _served(workload)
        jobs = [s for s in spans if s.cat == "job"]
        assert len(jobs) == summary.jobs_completed
        for job in jobs:
            assert job.attrs["state"] == COMPLETED
            children = [s for s in spans if s.parent_id == job.span_id]
            assert children, f"job span {job.name} has no children"
            assert all(s.trace_id == job.trace_id for s in children)
            assert all(
                job.start <= s.start and s.end <= job.end for s in children
            )

    def test_wave_children_tile_exactly(self, workload):
        spans, _ = _served(workload)
        waves = [s for s in spans if s.cat == "wave"]
        assert waves
        for wave in waves:
            parts = sorted(
                (
                    s for s in spans
                    if s.parent_id == wave.span_id and s.lane == wave.lane
                ),
                key=lambda s: s.start,
            )
            assert parts[0].start == wave.start
            assert parts[-1].end == wave.end
            for left, right in zip(parts, parts[1:]):
                assert left.end == right.start

    def test_spans_cross_drain_resume_boundary(self, workload):
        spans, summary = _served(workload, drain_at=3)
        assert summary.jobs_failed == 0
        drains = [s for s in spans if s.name == "drain"]
        resumes = [s for s in spans if s.name == "resume"]
        assert len(drains) == 1 and len(resumes) == 1
        boundary = drains[0].start
        assert resumes[0].start == boundary
        aborted = [s for s in spans if s.cat == "aborted"]
        for span in aborted:
            # cut at the drain clock, never past it
            assert span.end == boundary
            assert span.attrs["drained"] is True
        # at least one job's root straddles the boundary, and the fold
        # over the carried event mirror kept every span id unique
        jobs = [s for s in spans if s.cat == "job"]
        assert any(s.start < boundary < s.end for s in jobs)
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids))

    def test_fault_markers_are_zero_length_children(self, workload):
        from repro.accel.scheduler import WAVE_FAULT_SITE
        from repro.faults import RetryPolicy
        from repro.faults.plan import FaultPlan, FaultSpec

        plan = FaultPlan(seed=5, specs=(
            FaultSpec(
                "transfer_error", site=WAVE_FAULT_SITE, count=2, at=(0, 3)
            ),
        ))
        spans, summary = _served(
            workload, jobs=8,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=3),
        )
        assert summary.jobs_failed == 0
        assert summary.retries > 0
        # and a ledger written when served faults sat at ``serve.wave``:
        # its serve.retry records lay the same markers
        old = [
            (record["event"], record) for record in RunLedger(
                str(DATA / "serve_wave_fault_ledger.jsonl")
            ).read()
        ]
        old_retries = sum(event == "serve.retry" for event, _fields in old)
        for trace, retries in (
            (spans, summary.retries), (trace_spans(old), old_retries),
        ):
            faults = [s for s in trace if s.cat == "fault"]
            assert len(faults) == retries > 0
            roots = {s.span_id for s in trace if s.cat == "job"}
            for fault in faults:
                assert fault.duration == 0
                assert fault.parent_id in roots

    def test_failed_job_root_names_the_failed_wave(self, workload):
        from repro.accel.scheduler import WAVE_FAULT_SITE
        from repro.faults import RetryPolicy
        from repro.faults.plan import FaultPlan, FaultSpec
        from repro.serve import FAILED

        plan = FaultPlan(seed=5, specs=(
            FaultSpec(
                "transfer_error", site=WAVE_FAULT_SITE, at=(1,), attempts=3
            ),
        ))
        spans, summary = _served(
            workload, fault_plan=plan, retry_policy=RetryPolicy(max_retries=1)
        )
        assert summary.jobs_failed == 1
        (failed,) = [
            s for s in spans if s.cat == "job" and s.attrs["state"] == FAILED
        ]
        assert "failed_wave" in failed.attrs
        assert "latency_cycles" not in failed.attrs

    def test_mid_run_fold_is_a_prefix_of_the_final_trace(self, workload):
        """Nothing is recorded while the service runs, so a trace can be
        taken at any point: it is the final trace, cut short."""
        service = _service(workload)
        service.run(max_dispatches=4)
        early = service.spans()
        assert early
        summary = service.run_until_idle()
        assert summary.jobs_completed > 0
        final = service.spans()
        assert len(final) > len(early)
        assert final[:len(early)] == early
        assert len({s.lane for s in final if s.cat == "wave"}) >= 2

    def test_fleet_trace_merges_all_lanes(self, workload):
        from repro.serve import JobService

        service = _service(workload)
        service.run(max_dispatches=3)
        service = JobService.resume(service.drain())
        service.run_until_idle()
        doc = fleet_chrome_trace(service.spans(), name="served")
        lanes = doc["otherData"]["lanes"]
        assert lanes[0] == "service"
        assert "device:0" in lanes and "device:1" in lanes
        assert doc["otherData"]["tenants"]
        assert doc["otherData"]["name"] == "served"


def _ledgered(tmp_path, run, name="run"):
    """Run ``run()`` under a ledger and fold its events into spans —
    how a direct run is traced."""
    from repro.obs.ledger import RunLedger, RunManifest, run_context

    ledger = RunLedger(str(tmp_path / f"{name}.jsonl"))
    with run_context(RunManifest(workload="spans", config={}), ledger):
        out = run()
    return trace_spans((r["event"], r) for r in ledger.read()), out


class TestRunSpans:
    def test_partitioned_run_lays_cumulative_spans(self, workload, tmp_path):
        from repro.accel import MetadataWaveDriver
        from repro.accel.sharding import run_sharded

        spans, _ = _ledgered(tmp_path, lambda: run_sharded(
            MetadataWaveDriver(reference=workload.reference),
            workload.partitions, 2,
        ))
        waves = [s for s in spans if s.cat == "wave"]
        assert waves
        # a lone card is card 0; its waves are the trace's roots
        assert {(s.lane, s.parent_id) for s in waves} == {("device:0", None)}
        # waves tile the card's lane without gaps, from cycle 0
        ordered = sorted(waves, key=lambda s: s.start)
        assert ordered[0].start == 0
        for left, right in zip(ordered, ordered[1:]):
            assert left.end == right.start

    def test_worker_count_does_not_change_spans(self, workload, tmp_path):
        from repro.accel import MetadataWaveDriver
        from repro.accel.sharding import run_sharded

        def spans_with(workers):
            spans, _ = _ledgered(tmp_path, lambda: run_sharded(
                MetadataWaveDriver(reference=workload.reference),
                workload.partitions, 2, workers=workers,
            ), name=f"w{workers}")
            return [span.to_dict() for span in spans]

        assert spans_with(1) == spans_with(2)

    def test_stages_of_one_run_each_start_their_lanes_at_zero(
        self, workload, tmp_path
    ):
        from repro.accel import MarkdupWaveDriver, MetadataWaveDriver
        from repro.accel.sharding import run_sharded

        def two_stages():
            for driver in (
                MarkdupWaveDriver(),
                MetadataWaveDriver(reference=workload.reference),
            ):
                run_sharded(driver, workload.partitions, 2, devices=2)

        spans, _ = _ledgered(tmp_path, two_stages)
        for stage in ("markdup", "metadata"):
            for device in (0, 1):
                mine = [
                    s for s in spans if s.trace_id == f"run-{stage}-d{device}"
                ]
                assert mine and min(s.start for s in mine) == 0


class TestServedAndDirectFaults:
    """A wave's fault markers come from the records of its retries: a
    direct wave's from its ``fault.retry`` records, a served wave's from
    its ``serve.retry`` records.  ``fault.injected`` lays nothing, so a
    served record is never held for, nor laid on, a direct wave of the
    same stage and index."""

    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        from repro.cli import main

        path = tmp_path_factory.mktemp("served") / "served.jsonl"
        assert main([
            "--ledger", str(path), "serve", "--tenants", "2", "--jobs", "4",
            "--reads", "40", "--devices", "2",
            "--inject-faults", "transfer_error",
        ]) == 0
        return [(r["event"], r) for r in RunLedger(str(path)).read()]

    def test_folding_a_served_ledger_holds_no_fault(self, served, capsys):
        from repro.constants import CLOCK_HZ
        from repro.obs.spans import TRACED_EVENTS, _Fold

        assert any(name == "fault.injected" for name, _ in served)
        fold = _Fold(CLOCK_HZ)
        for name, fields in served:
            if name in TRACED_EVENTS:
                TRACED_EVENTS[name](fold, fields)
        assert fold.retries == {}
        # the run's one marker is its serve.retry, on the job's root
        (retry,) = [f for name, f in served if name == "serve.retry"]
        (marker,) = [s for s in fold.spans if s.cat == "fault"]
        roots = {s.span_id for s in fold.spans if s.cat == "job"}
        assert (marker.lane, marker.trace_id) == (
            "service", f"job-{retry['job']}"
        )
        assert marker.parent_id in roots
        assert marker.start == marker.end == retry["clock"]
        assert {
            name: marker.attrs[name]
            for name in ("job", "wave", "attempt", "kind", "backoff_seconds")
        } == {
            name: retry[name]
            for name in ("job", "wave", "attempt", "kind", "backoff_seconds")
        }

    def test_a_direct_trace_needs_no_fault_injected(self, workload, tmp_path):
        """A pooled, faulted direct run with a pool restart traces the
        same with every ``fault.injected`` record deleted: its markers
        are laid from its ``fault.retry`` records alone."""
        from repro.accel import MetadataWaveDriver
        from repro.accel.sharding import run_sharded
        from repro.faults.plan import FaultPlan, FaultSpec

        plan = FaultPlan(specs=(
            FaultSpec("worker_crash", at=(0,)),
            FaultSpec("transfer_error", at=(1,), attempts=2),
        ))
        spans, _out = _ledgered(tmp_path, lambda: run_sharded(
            MetadataWaveDriver(reference=workload.reference),
            workload.partitions, 1, workers=2, fault_plan=plan,
        ))
        records = [
            (r["event"], r)
            for r in RunLedger(str(tmp_path / "run.jsonl")).read()
        ]
        names = [name for name, _fields in records]
        assert names.count("fault.pool_restart") == 1
        assert names.count("fault.injected") == names.count("fault.retry") == 3
        markers = [
            (s.name, s.attrs["wave"], s.attrs["attempt"])
            for s in spans if s.cat == "fault"
        ]
        assert markers == [
            ("fault:worker_crash", 0, 0),
            ("fault:transfer_error", 1, 0), ("fault:transfer_error", 1, 1),
        ]
        trimmed = trace_spans(
            (name, fields) for name, fields in records
            if name != "fault.injected"
        )
        assert json.dumps(fleet_chrome_trace(trimmed)) == json.dumps(
            fleet_chrome_trace(spans)
        )

    def test_a_direct_ledger_after_a_served_one_lays_only_its_own_faults(
        self, served, workload, tmp_path
    ):
        from repro.accel.sharding import run_sharded
        from repro.accel.stages import STAGES
        from repro.faults.plan import FaultPlan, FaultSpec

        (fault,) = [f for name, f in served if name == "fault.injected"]
        stage, slot = fault["stage"], fault["slot"]
        # the direct run faults another wave of the same stage, so the
        # served record names a direct wave that has no fault of its own
        plan = FaultPlan(specs=(FaultSpec("transfer_error", at=(slot + 1,)),))
        _spans, _out = _ledgered(tmp_path, lambda: run_sharded(
            STAGES[stage].over(workload), STAGES[stage].items(workload), 1,
            fault_plan=plan,
        ))
        direct = [
            (r["event"], r)
            for r in RunLedger(str(tmp_path / "run.jsonl")).read()
        ]
        spans = trace_spans(served + direct)
        markers = [
            (s.name, s.attrs["wave"], s.attrs["attempt"]) for s in spans
            if s.cat == "fault" and s.trace_id.startswith("run-")
        ]
        assert markers == [
            (f"fault:{f['kind']}", f["slot"], f["attempt"])
            for name, f in direct if name == "fault.injected"
        ] == [("fault:transfer_error", slot + 1, 0)]
