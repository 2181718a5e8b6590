"""Unit tests for the fault-injection layer (repro.faults) and the
runtime's transfer/launch retries.

The determinism contract under test everywhere: same seed + same plan
=> same injected faults, same retry backoffs, same virtual-timeline
charges.  See DESIGN.md §3.5.
"""

import pickle

import pytest

from repro.faults import (
    DEFAULT_SITES,
    FAULT_EXCEPTIONS,
    FAULT_KINDS,
    NO_RETRY,
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
from repro.runtime import GenesisRuntime

# -- the spec grammar ----------------------------------------------------------------


def test_parse_full_grammar():
    spec = FaultSpec.parse("worker_crash:2@scheduler.wave+3~4")
    assert spec.kind == "worker_crash"
    assert spec.count == 2
    assert spec.site == "scheduler.wave"
    assert spec.attempts == 3
    assert spec.spread == 4


def test_parse_defaults_site_per_kind():
    for kind in FAULT_KINDS:
        spec = FaultSpec.parse(kind)
        assert spec.site == DEFAULT_SITES[kind]
        assert spec.count == 1 and spec.attempts == 1 and spec.spread == 0


def test_render_round_trips():
    for text in (
        "worker_crash@scheduler.wave",
        "transfer_error:3@runtime.transfer+2",
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
    assert set(plan.sites()) == {"scheduler.wave", "runtime.transfer"}
    assert plan.for_site("runtime.transfer")[0].count == 2
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
    assert plan.render() == "worker_crash@scheduler.wave,launch_error@runtime.launch"


# -- the injector --------------------------------------------------------------------


def test_next_slot_counts_per_site():
    injector = FaultInjector(FaultPlan())
    assert [injector.next_slot("a"), injector.next_slot("a")] == [0, 1]
    assert injector.next_slot("b") == 0


def test_poll_hits_only_planned_coordinates():
    plan = FaultPlan.from_spec("transfer_error:2+2", seed=0)
    injector = FaultInjector(plan)
    site = "runtime.transfer"
    assert injector.poll(site, 0, 0).kind == "transfer_error"
    assert injector.poll(site, 0, 1) is not None  # attempts=2
    assert injector.poll(site, 0, 2) is None
    assert injector.poll(site, 1, 0) is not None
    assert injector.poll(site, 2, 0) is None
    assert injector.poll("scheduler.wave", 0, 0) is None


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
        error = pickle.loads(pickle.dumps(cls("some.site", 3, 1)))
        assert isinstance(error, cls) and isinstance(error, InjectedFaultError)
        assert (error.site, error.slot, error.attempt) == ("some.site", 3, 1)


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


# -- runtime transfer/launch retries -------------------------------------------------


def _kernel(inputs):
    return {"out": sum(inputs["col"])}, 1000


def _run_pipeline(injector=None, max_retries=2):
    runtime = GenesisRuntime(
        fault_injector=injector,
        retry_policy=RetryPolicy(
            max_retries=max_retries, backoff_base=0.001, jitter=0.25, seed=1
        ),
    )
    runtime.register_pipeline(0, _kernel)
    runtime.configure_mem([1, 2, 3], 8, 3, "col", 0)
    runtime.configure_mem(None, 8, 1, "out", 0, is_output=True)
    runtime.run_genesis(0)
    return runtime.genesis_flush(0), runtime


def _ledgered_pipeline(tmp_path, injector):
    """``_run_pipeline`` under a ledger: its return plus the
    ``fault.retry`` events the device wrote."""
    ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
    with run_context(RunManifest(workload="runtime-faults"), ledger):
        out, runtime = _run_pipeline(injector)
    return out, runtime, ledger.events("fault.retry")


def test_transfer_retry_charges_timeline_and_preserves_results(tmp_path):
    clean_out, clean = _run_pipeline()
    injector = FaultInjector(FaultPlan.from_spec("transfer_error+2", seed=4))
    faulted_out, faulted, retries = _ledgered_pipeline(tmp_path, injector)
    assert faulted_out == clean_out
    # two failed DMA attempts occupied the link, plus backoff host time
    failed = [t for t in faulted.device.transfers if not t.ok]
    assert len(failed) == 2
    assert faulted.device.timeline.transfer_seconds > (
        clean.device.timeline.transfer_seconds
    )
    assert faulted.elapsed_seconds > clean.elapsed_seconds
    assert [r["site"] for r in retries] == ["runtime.transfer"] * 2
    assert [f.site for f in injector.injected] == ["runtime.transfer"] * 2
    assert sum(t.seconds for t in failed) > 0


def test_faulted_timeline_is_deterministic():
    def run():
        injector = FaultInjector(
            FaultPlan.from_spec("transfer_error+1,launch_error", seed=4)
        )
        return _run_pipeline(injector)[1].elapsed_seconds

    assert run() == run()


def test_launch_retry_counts_and_recovers(tmp_path):
    injector = FaultInjector(FaultPlan.from_spec("launch_error", seed=0))
    out, _runtime, retries = _ledgered_pipeline(tmp_path, injector)
    assert out == _run_pipeline()[0]
    assert [r["site"] for r in retries] == ["runtime.launch"]
    assert [f.kind for f in injector.injected] == ["launch_error"]


def test_transfer_budget_exhaustion_raises():
    injector = FaultInjector(FaultPlan.from_spec("transfer_error+9", seed=0))
    with pytest.raises(RetryBudgetExceeded) as excinfo:
        _run_pipeline(injector, max_retries=1)
    assert isinstance(excinfo.value.__cause__, InjectedTransferError)


def test_registry_total_sums_across_labels():
    registry = MetricsRegistry()
    registry.counter("x", a=1).inc(2)
    registry.counter("x", a=2).inc(3)
    assert registry.total("x") == 5
    assert registry.total("missing", default=-1) == -1
