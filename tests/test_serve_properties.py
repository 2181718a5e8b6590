"""Property tests for the fair-share dispatcher.

Random seeded job-arrival traces drive a stub wave driver (pure
arithmetic, no simulation) through the full service loop, checking the
three scheduler invariants the differential suite cannot sweep:

* **determinism** — the same trace replays to identical event streams,
  dispatch order, and per-tenant cycle accounting;
* **admission safety** — a tenant never holds more than ``quota`` open
  jobs, the service never more than ``max_backlog``, and every reject
  names a genuinely-full limit;
* **weighted fairness / non-starvation** — every dispatch goes to the
  backlogged tenant with minimal normalized service (so no nonempty
  tenant queue can be bypassed indefinitely), and every admitted job
  completes;
* **device-lane accounting** — over devices x fault plan x drain point x
  storage filter, the trace folded from the events tiles every wave,
  never double-books a card, accounts every kernel cycle the ledger
  names, and decomposes every job's latency exactly.
"""

from collections import Counter
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.scheduler import WAVE_FAULT_SITE, WaveDriver
from repro.constants import DESCRIPTOR_BYTES, MODEL_ROW_BYTES
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.retry import RetryPolicy
from repro.hw.engine import RunStats
from repro.obs.analyze import critical_paths
from repro.serve import JobService, JobSpec


@dataclass(frozen=True)
class StubPartition:
    """The only thing the scheduler reads off a partition is its size."""

    num_rows: int


class StubDriver(WaveDriver):
    """Deterministic arithmetic stand-in for a simulation driver."""

    stage = "stub"
    uses_reference = False

    def empty_result(self, pid):
        return 0

    def run_wave(self, wave):
        results = {pid: 7 * part.num_rows + 13 for pid, part in wave}
        cycles = max(31 * part.num_rows + 11 for _pid, part in wave)
        return results, RunStats(cycles=cycles), (0,) * len(wave)


#: One arrival: (gap_cycles, tenant index, rows, partitions).
ARRIVALS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=3),
    ),
    min_size=1,
    max_size=12,
)

QUOTA = 3
BACKLOG = 8
WEIGHTS = {"t0": 2.0, "t1": 1.0}


def _schedule(service, trace, driver=StubDriver):
    at = 0
    for index, (gap, tenant, rows, n_parts) in enumerate(trace):
        at += gap
        partitions = [
            ((index, k), StubPartition(rows * (k + 1)))
            for k in range(n_parts)
        ]
        service.schedule(
            JobSpec(
                tenant=f"t{tenant}",
                driver=driver(),
                partitions=partitions,
                n_pipelines=2,
            ),
            at_cycles=at,
        )


def _run_trace(trace):
    service = JobService(
        devices=2, workers=1, quota=QUOTA, max_backlog=BACKLOG,
        weights=WEIGHTS,
    )
    _schedule(service, trace)
    service.run_until_idle()
    return service


@settings(max_examples=30, deadline=None)
@given(trace=ARRIVALS)
def test_dispatch_replay_is_deterministic(trace):
    first = _run_trace(trace)
    second = _run_trace(trace)
    assert first.events == second.events
    assert first.clock == second.clock
    first_accounts = {
        name: (account.charged_rows, account.cycles, account.completed)
        for name, account in first.queue.accounts.items()
    }
    second_accounts = {
        name: (account.charged_rows, account.cycles, account.completed)
        for name, account in second.queue.accounts.items()
    }
    assert first_accounts == second_accounts


@settings(max_examples=30, deadline=None)
@given(trace=ARRIVALS)
def test_quota_backlog_and_completion_invariants(trace):
    service = _run_trace(trace)
    open_jobs = {}
    job_tenant = {}
    for event, fields in service.events:
        if event == "serve.admit":
            tenant = fields["tenant"]
            job_tenant[fields["job"]] = tenant
            open_jobs[tenant] = open_jobs.get(tenant, 0) + 1
            assert open_jobs[tenant] <= QUOTA
            assert sum(open_jobs.values()) <= BACKLOG
        elif event == "serve.reject":
            tenant = fields["tenant"]
            if fields["reason"] == "tenant_quota":
                assert open_jobs.get(tenant, 0) == QUOTA
            else:
                assert fields["reason"] == "backlog_full"
                assert sum(open_jobs.values()) == BACKLOG
        elif event in ("serve.job.done", "serve.job.failed"):
            open_jobs[fields["tenant"]] -= 1
    admitted = sum(
        1 for event, _fields in service.events if event == "serve.admit"
    )
    done = sum(
        1 for event, _fields in service.events if event == "serve.job.done"
    )
    assert admitted == done  # no faults: every admitted job completes
    assert sum(open_jobs.values()) == 0


@settings(max_examples=30, deadline=None)
@given(trace=ARRIVALS)
def test_every_dispatch_is_weighted_fair(trace):
    """Replay the event stream against an independent WFQ model: each
    dispatch must pick the backlogged tenant with the smallest
    ``charged_rows / weight`` (ties by name) — which is exactly the
    bounded-bypass guarantee that makes starvation impossible."""
    service = _run_trace(trace)
    pending = {}  # job -> waves not yet dispatched
    job_tenant = {}
    charged = {}
    for event, fields in service.events:
        if event == "serve.admit":
            pending[fields["job"]] = fields["waves"]
            job_tenant[fields["job"]] = fields["tenant"]
            charged.setdefault(fields["tenant"], 0)
        elif event == "serve.dispatch":
            backlogged = {
                job_tenant[job] for job, waves in pending.items() if waves
            }
            tenant = fields["tenant"]
            assert tenant in backlogged
            expected = min(
                backlogged,
                key=lambda name: (
                    charged[name] / WEIGHTS.get(name, 1.0), name
                ),
            )
            assert tenant == expected
            pending[fields["job"]] -= 1
            charged[tenant] += fields["cost_rows"]
    assert all(waves == 0 for waves in pending.values())


# -- the device-lane identity over the trace fold -------------------------------------


class LoadingStubDriver(StubDriver):
    """The stub with an SPM load ahead of the kernel, so waves carry
    every segment a real one can."""

    def run_wave(self, wave):
        results, stats, _load = super().run_wave(wave)
        return results, stats, (17 * len(wave) + 3,) * len(wave)


class StubStorage:
    """An in-SSD filter that prunes every third row (the
    ``runtime.device.WaveStorage`` protocol, in arithmetic)."""

    filtered_fraction = 1 / 3
    compression_ratio = 1.0
    internal_bandwidth = 1e9

    @staticmethod
    def _rows(items):
        return sum(part.num_rows for _pid, part in items)

    def wave_raw_nbytes(self, items):
        return self._rows(items) * MODEL_ROW_BYTES

    def wave_pruned_rows(self, items):
        return self._rows(items) // 3

    def wave_nbytes(self, items):
        pruned = self.wave_pruned_rows(items)
        return self.wave_raw_nbytes(items) - pruned * (
            MODEL_ROW_BYTES - DESCRIPTOR_BYTES
        )

    def wave_scan_seconds(self, items):
        return self._rows(items) * 2e-9


#: A fault plan on the served waves' one ladder: which dispatch slots
#: fault, and for how many attempts (past ``max_retries=2`` the job
#: fails — the identity holds for failed jobs too).
FAULTS = st.one_of(
    st.none(),
    st.builds(
        lambda slots, attempts: FaultPlan(seed=1, specs=(FaultSpec(
            "transfer_error", site=WAVE_FAULT_SITE,
            at=tuple(sorted(slots)), attempts=attempts,
        ),)),
        st.sets(st.integers(0, 12), min_size=1, max_size=4),
        st.integers(1, 4),
    ),
)


def _occupancy(lane_spans):
    """A device lane's top-level spans: completed and aborted waves."""
    return sorted(
        (s for s in lane_spans if s.cat in ("wave", "aborted")),
        key=lambda s: (s.start, s.end),
    )


@settings(max_examples=40, deadline=None)
@given(
    trace=ARRIVALS,
    devices=st.integers(1, 3),
    fault_plan=FAULTS,
    drain_at=st.one_of(st.none(), st.integers(1, 10)),
    filtered=st.booleans(),
)
def test_device_lane_accounting_identity(
    trace, devices, fault_plan, drain_at, filtered
):
    service = JobService(
        devices=devices, workers=1, quota=QUOTA, max_backlog=BACKLOG,
        fault_plan=fault_plan, retry_policy=RetryPolicy(max_retries=2),
        storage=StubStorage() if filtered else None,
    )
    _schedule(service, trace, driver=LoadingStubDriver)
    if drain_at is not None:
        service.run(max_dispatches=drain_at)
        service = JobService.resume(service.drain())
    summary = service.run_until_idle()
    spans = service.spans()
    done = [f for event, f in service.events if event == "serve.wave.done"]

    # ids are the fold's own: sequential, each used once; no interval
    # runs backwards
    assert sorted(s.span_id for s in spans) == list(range(1, len(spans) + 1))
    assert all(s.end >= s.start for s in spans)

    # every wave's children tile it exactly, in canonical segment order
    children = {}
    for span in spans:
        children.setdefault((span.parent_id, span.lane), []).append(span)
    waves = [s for s in spans if s.cat == "wave"]
    assert len(waves) == len(done)
    for wave in waves:
        cursor = wave.start
        for part in children[wave.span_id, wave.lane]:
            assert part.start == cursor and part.end >= part.start
            cursor = part.end
        assert cursor == wave.end
    if filtered:
        scans = [s for s in spans if s.cat == "filter"]
        assert Counter(s.parent_id for s in scans) == Counter(
            w.span_id for w in waves
        )
    if fault_plan is not None:
        assert sum(s.cat == "fault" for s in spans) == summary.retries

    for device in range(devices):
        lane = [s for s in spans if s.lane == f"device:{device}"]
        # a card is never double-booked ...
        idle = cursor = 0
        for span in _occupancy(lane):
            assert span.start >= cursor
            idle += span.start - cursor
            cursor = span.end
        assert cursor <= summary.clock_cycles
        idle += summary.clock_cycles - cursor
        # ... and the lane's gaps plus the occupancy the ledger names
        # (waves run to completion, waves cut by a drain) is the clock
        busy = sum(
            f["end_cycles"] - f["start_cycles"]
            for f in done if f["device"] == device
        ) + sum(
            f["clock"] - f["start_cycles"] for event, f in service.events
            if event == "serve.wave.aborted" and f["device"] == device
        )
        assert busy + idle == summary.clock_cycles
        # every kernel cycle the ledger names is on the lane, once
        assert sum(s.end - s.start for s in lane if s.cat == "kernel") == sum(
            f["cycles"] for f in done if f["device"] == device
        )

    # the critical path, from the same spans, sums to each job's latency
    paths = critical_paths(spans)
    assert len(paths) == summary.jobs_completed
    latencies = {
        f["job"]: f["latency_cycles"]
        for event, f in service.events if event == "serve.job.done"
    }
    for path in paths:
        assert sum(path.segments.values()) == path.latency_cycles
        assert path.latency_cycles == latencies[path.job]


# -- queue depth is a fold over the event mirror ---------------------------------------


def _open_jobs(events):
    """Jobs admitted and not yet closed, read off the mirror."""
    tally = Counter(event for event, _fields in events)
    return (
        tally["serve.admit"] - tally["serve.job.done"]
        - tally["serve.job.failed"]
    )


@settings(max_examples=30, deadline=None)
@given(
    trace=ARRIVALS,
    devices=st.integers(1, 3),
    fault_plan=FAULTS,
    drain_points=st.lists(st.integers(1, 6), max_size=3),
)
def test_open_jobs_is_admits_minus_closes_at_every_drain_point(
    trace, devices, fault_plan, drain_points
):
    """No separate depth gauge is kept: the queue's open-job count is
    admits − (done + failed) in event order, wherever the run is cut."""
    service = JobService(
        devices=devices, workers=1, quota=QUOTA, max_backlog=BACKLOG,
        fault_plan=fault_plan, retry_policy=RetryPolicy(max_retries=2),
    )
    _schedule(service, trace)
    for dispatches in drain_points:
        service.run(max_dispatches=dispatches)
        checkpoint = service.drain()
        assert checkpoint.open_jobs == _open_jobs(service.events)
        event, fields = service.events[-1]
        assert event == "serve.drain"
        assert fields["open_jobs"] == checkpoint.open_jobs
        service = JobService.resume(checkpoint)
        assert service.queue.open_jobs() == _open_jobs(service.events)
    summary = service.run_until_idle()
    assert service.queue.open_jobs() == _open_jobs(service.events) == 0
    assert summary.jobs_admitted == (
        summary.jobs_completed + summary.jobs_failed
    )
