"""Unit tests for the fault-injection layer (repro.faults), and for the
one thing every injected fault is: a failed wave attempt.

The determinism contract under test everywhere: same seed + same plan
=> same injected faults, same retry backoffs, same virtual-timeline
charges.  See DESIGN.md §3.5.
"""

import pickle
from dataclasses import replace

import pytest
from hw_harness import assert_stage_identical

from repro.constants import CLOCK_HZ
from repro.errors import InputError
from repro.faults import (
    FAULT_EXCEPTIONS,
    FAULT_KINDS,
    NO_RETRY,
    WAVE_FAULT_SITE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    InjectedTransferError,
    InjectedWorkerCrash,
    RetryBudgetExceeded,
    RetryPolicy,
)
from repro.obs.ledger import RunLedger, RunManifest, run_context
from repro.obs.registry import MetricsRegistry

# -- the spec grammar ----------------------------------------------------------------


def test_parse_full_grammar():
    spec = FaultSpec.parse("worker_crash:2@scheduler.wave+3~4")
    assert spec.kind == "worker_crash"
    assert spec.count == 2
    assert spec.site == "scheduler.wave"
    assert spec.attempts == 3
    assert spec.spread == 4


def test_parse_defaults_site_per_kind():
    """Every kind is a failed wave attempt: all four resolve to the one
    site, the scheduler's."""
    from repro.accel.scheduler import WAVE_FAULT_SITE as scheduler_site

    assert scheduler_site is WAVE_FAULT_SITE == "scheduler.wave"
    for kind in FAULT_KINDS:
        spec = FaultSpec.parse(kind)
        assert spec.site == WAVE_FAULT_SITE
        assert FaultPlan.from_spec(kind).specs[0].site == WAVE_FAULT_SITE
        assert spec.count == 1 and spec.attempts == 1 and spec.spread == 0


@pytest.mark.parametrize("item", [
    "transfer_error@runtime.transfer", "launch_error:2@runtime.launch",
    "transfer_error@serve.wave", "worker_crash@a", "worker_crash@",
])
def test_plan_refuses_any_other_site(item):
    with pytest.raises(InputError, match="unknown fault site"):
        FaultPlan.from_spec(f"worker_crash,{item}")


def test_render_round_trips():
    for text in (
        "worker_crash@scheduler.wave",
        "transfer_error:3@scheduler.wave+2",
        "wave_timeout@scheduler.wave~5",
    ):
        assert FaultSpec.parse(text).render() == text


@pytest.mark.parametrize("bad", ["", "frobnicate", "worker_crash:0",
                                 "worker_crash+0", "worker_crash~-1"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        FaultSpec.parse(bad)


def test_plan_from_spec_multi_item():
    plan = FaultPlan.from_spec("worker_crash, transfer_error:2", seed=9)
    assert [s.kind for s in plan.specs] == ["worker_crash", "transfer_error"]
    assert plan.seed == 9
    assert [s.count for s in plan.specs] == [1, 2]
    with pytest.raises(ValueError):
        FaultPlan.from_spec("  ,  ")


# -- target determinism --------------------------------------------------------------


def test_targets_same_seed_same_slots():
    spec = FaultSpec.parse("worker_crash:4~6")
    assert FaultPlan(seed=3).targets(spec) == FaultPlan(seed=3).targets(spec)


def test_targets_without_spread_are_first_slots():
    spec = FaultSpec.parse("transfer_error:3")
    assert FaultPlan(seed=42).targets(spec) == (0, 1, 2)


def test_targets_with_spread_are_strictly_increasing():
    spec = FaultSpec.parse("worker_crash:5~4")
    slots = FaultPlan(seed=7).targets(spec)
    assert len(slots) == 5
    assert all(b > a for a, b in zip(slots, slots[1:]))
    assert all(b - a <= 5 for a, b in zip(slots, slots[1:]))


def test_explicit_at_overrides_seed():
    spec = FaultSpec("worker_crash", at=(5, 2, 5))
    assert FaultPlan(seed=1).targets(spec) == (2, 5)


def test_describe_names_every_spec():
    plan = FaultPlan.from_spec("worker_crash,launch_error", seed=2)
    lines = list(plan.describe())
    assert len(lines) == 2
    assert "worker_crash" in lines[0] and "launch_error" in lines[1]
    assert plan.render() == (
        "worker_crash@scheduler.wave,launch_error@scheduler.wave"
    )


# -- the injector --------------------------------------------------------------------


def test_poll_hits_only_planned_coordinates():
    plan = FaultPlan.from_spec("transfer_error:2+2", seed=0)
    injector = FaultInjector(plan)
    site = WAVE_FAULT_SITE
    assert injector.poll(site, 0, 0).kind == "transfer_error"
    assert injector.poll(site, 0, 1) is not None  # attempts=2
    assert injector.poll(site, 0, 2) is None
    assert injector.poll(site, 1, 0) is not None
    assert injector.poll(site, 2, 0) is None


def test_poll_records_once_per_coordinate():
    injector = FaultInjector(FaultPlan.from_spec("worker_crash"))
    for _ in range(3):
        assert injector.poll("scheduler.wave", 0, 0) is not None
    assert len(injector.injected) == 1
    assert injector.counts_by_kind() == {"worker_crash": 1}


def test_fire_raises_typed_exception():
    injector = FaultInjector(FaultPlan.from_spec("worker_crash"))
    with pytest.raises(InjectedWorkerCrash) as excinfo:
        injector.fire("scheduler.wave", 0, 0)
    assert excinfo.value.slot == 0
    injector.fire("scheduler.wave", 9, 0)  # clean coordinate: no raise


def test_injected_errors_survive_pickling():
    """The exceptions cross ProcessPoolExecutor futures; a default
    reduce would replay the message into __init__ and break the pool."""
    for cls in FAULT_EXCEPTIONS.values():
        error = pickle.loads(pickle.dumps(cls(WAVE_FAULT_SITE, 3, 1)))
        assert isinstance(error, cls) and isinstance(error, InjectedFaultError)
        assert (error.site, error.slot, error.attempt) == (
            WAVE_FAULT_SITE, 3, 1
        )


# -- the retry policy ----------------------------------------------------------------


def test_backoff_is_deterministic_and_grows():
    policy = RetryPolicy(backoff_base=0.01, backoff_multiplier=2.0,
                         jitter=0.25, max_backoff=10.0, seed=5)
    first = [policy.backoff_seconds(0, attempt) for attempt in range(4)]
    again = [policy.backoff_seconds(0, attempt) for attempt in range(4)]
    assert first == again
    assert all(b > a for a, b in zip(first, first[1:]))
    # jitter stays within its band
    for attempt, backoff in enumerate(first):
        base = 0.01 * 2.0 ** attempt
        assert base <= backoff <= base * 1.25


def test_backoff_caps_at_max():
    policy = RetryPolicy(backoff_base=1.0, backoff_multiplier=10.0,
                         jitter=0.0, max_backoff=2.5)
    assert policy.backoff_seconds(0, 3) == 2.5


def test_sleep_uses_injected_clock():
    policy = RetryPolicy(backoff_base=0.25, jitter=0.0)
    slept = []
    assert policy.sleep(0, 0, clock=slept.append) == 0.25
    assert slept == [0.25]
    assert NO_RETRY.sleep(0, 0, clock=slept.append) == 0.0
    assert slept == [0.25]


@pytest.mark.parametrize("kwargs", [
    dict(max_retries=-1), dict(backoff_base=-0.1),
    dict(backoff_multiplier=0.5), dict(jitter=1.5), dict(max_backoff=-1.0),
])
def test_policy_validation(kwargs):
    with pytest.raises(ValueError):
        RetryPolicy(**kwargs)


# -- a DMA or launch fault is a failed wave attempt ----------------------------------
#
# The runtime API has no fault model of its own: a failed transfer or
# launch fails the attempt of the wave that issued it, and the executor's
# one ladder retries it.

POLICY = RetryPolicy(max_retries=2, backoff_base=0.001, jitter=0.25, seed=1)


def _metadata(workload):
    from repro.accel.stages import STAGES

    stage = STAGES["metadata"]
    return stage.over(workload), stage.items(workload)


def _plan(spec):
    return FaultPlan.from_spec(spec, seed=4) if spec else None


def _direct(workload, spec=None, max_retries=2):
    """The metadata stage run directly on one card under ``spec``."""
    from repro.accel import run_sharded

    driver, items = _metadata(workload)
    return run_sharded(
        driver, items, 2, fault_plan=_plan(spec),
        retry_policy=replace(POLICY, max_retries=max_retries),
    )


def _served(workload, spec=None):
    """One metadata job served on one card: its results, the summary,
    the penalty cycles its waves carried, and the service's events."""
    from repro.serve import JobService, JobSpec

    driver, items = _metadata(workload)
    service = JobService(fault_plan=_plan(spec), retry_policy=POLICY)
    status = service.submit(
        JobSpec(tenant="a", driver=driver, partitions=items, n_pipelines=2)
    )
    summary = service.run_until_idle()
    penalty = sum(
        fields["penalty_cycles"] for event, fields in service.events
        if event == "serve.wave.done"
    )
    return service.results(status.job_id), summary, penalty, service.events


def test_transfer_retry_charges_timeline_and_preserves_results(workload):
    """Served, a failed DMA's retries cost their backoff as penalty
    cycles on the virtual clock and nothing else; direct, the modelled
    link and kernel time are the clean run's (faulted ≡ clean)."""
    clean, clean_summary, no_penalty, _ = _served(workload)
    faulted, summary, penalty, events = _served(workload, "transfer_error+2")
    assert_stage_identical("metadata", faulted, clean)
    retries = [fields for event, fields in events if event == "serve.retry"]
    assert [r["kind"] for r in retries] == ["transfer_error"] * 2
    assert no_penalty == 0
    assert penalty == round(sum(r["backoff_seconds"] for r in retries) * CLOCK_HZ)
    assert penalty > 0
    assert summary.clock_cycles == clean_summary.clock_cycles + penalty

    clean, clean_stats = _direct(workload)
    faulted, stats = _direct(workload, "transfer_error+2")
    assert_stage_identical("metadata", faulted, clean)
    assert stats.faults_by_kind == {"transfer_error": 2}
    assert stats.device_transfer_seconds == clean_stats.device_transfer_seconds
    assert stats.device_busy_seconds == clean_stats.device_busy_seconds


def test_faulted_timeline_is_deterministic(workload):
    def run():
        # one wave: attempt 0 fails its DMA, attempt 1 its launch
        _results, summary, penalty, events = _served(
            workload, "transfer_error,launch_error+2"
        )
        return summary.clock_cycles, summary.faults, penalty, events

    first = run()
    assert first == run()
    assert first[1] == {"transfer_error": 1, "launch_error": 1}
    assert first[2] > 0


def test_launch_retry_counts_and_recovers(workload, tmp_path):
    ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
    with run_context(RunManifest(workload="wave-faults"), ledger):
        out, _stats = _direct(workload, "launch_error")
    assert_stage_identical("metadata", out, _direct(workload)[0])
    (retry,) = ledger.events("fault.retry")
    assert (retry["kind"], retry["wave"], retry["attempt"]) == (
        "launch_error", 0, 0
    )
    assert [
        (fault["site"], fault["kind"])
        for fault in ledger.events("fault.injected")
    ] == [(WAVE_FAULT_SITE, "launch_error")]


def test_transfer_budget_exhaustion_raises(workload):
    with pytest.raises(RetryBudgetExceeded) as excinfo:
        _direct(workload, "transfer_error+9", max_retries=1)
    assert isinstance(excinfo.value.__cause__, InjectedTransferError)


def test_registry_total_sums_across_labels():
    registry = MetricsRegistry()
    registry.counter("x", a=1).inc(2)
    registry.counter("x", a=2).inc(3)
    assert registry.total("x") == 5
    assert registry.total("missing", default=-1) == -1
