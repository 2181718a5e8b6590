"""Differential resilience suite: a run under a seeded fault plan must be
bit-identical to the fault-free run.

Each accelerator stage (metadata, markdup, bqsr) runs clean and faulted
— the plan injects a worker crash (a real process death), a wave
timeout (a real hang the watchdog reaps), and a transfer error — and
the per-partition outputs plus the deterministic half of
the run's stats must agree exactly, at ``workers=1`` and under
pool fan-out.  Host-side metrics (watchdog timeouts, pool restarts) are
allowed to differ; the fault/retry counters are not.

Also here: the scheduler failure paths ISSUE 5 calls out as untested —
empty-input scheduling, worker exception propagation, and
``SpmImageCache.merge`` conflict semantics.
"""

from collections import Counter

import pytest

from hw_harness import assert_same_cycles, assert_stage_identical
from repro.accel import BqsrWaveDriver, MarkdupWaveDriver, MetadataWaveDriver
from repro.accel.scheduler import SpmImageCache, WaveDriver
from repro.accel.sharding import run_sharded
from repro.eval.workloads import make_workload
from repro.faults import (
    FaultPlan,
    FaultSpec,
    RetryBudgetExceeded,
    RetryPolicy,
)
from repro.obs.ledger import RunLedger, RunManifest, run_context

#: One of each fault kind the scheduler site can suffer, pinned to
#: distinct waves so all three fire regardless of the stage's packing.
PLAN = FaultPlan(seed=11, specs=(
    FaultSpec("worker_crash", site="scheduler.wave", at=(0,)),
    FaultSpec("wave_timeout", site="scheduler.wave", at=(1,)),
    FaultSpec("transfer_error", site="scheduler.wave", at=(2,)),
))

#: Tiny backoffs keep the suite fast; the watchdog deadline is long
#: enough that a non-hung wave never trips it on a loaded CI host.
POLICY = RetryPolicy(max_retries=2, backoff_base=0.002, jitter=0.25, seed=11)
WAVE_TIMEOUT = 2.0


@pytest.fixture(scope="module")
def workload():
    return make_workload(
        n_reads=120,
        read_length=60,
        chromosomes=(20, 21),
        genome_scale=4.5e-5,
        psize=1000,
        seed=105,
    )


def _drivers(workload):
    return {
        "metadata": (MetadataWaveDriver(reference=workload.reference), 1),
        "markdup": (MarkdupWaveDriver(), 1),
        "bqsr": (
            BqsrWaveDriver(reference=workload.reference, read_length=60), 1
        ),
    }


@pytest.mark.parametrize("stage", ["metadata", "markdup", "bqsr"])
def test_faulted_run_is_bit_identical(stage, workload, tmp_path):
    driver, pipelines = _drivers(workload)[stage]
    clean_res, clean_stats = run_sharded(
        driver, workload.partitions, pipelines, workers=1
    )
    assert clean_stats.waves >= 3, "plan needs three waves to land on"

    faulted = {}
    for workers in (1, 4):
        ledger = RunLedger(str(tmp_path / f"{stage}-{workers}.jsonl"))
        with run_context(RunManifest(workload="resilience-test"), ledger):
            res, stats = run_sharded(
                driver, workload.partitions, pipelines, workers=workers,
                fault_plan=PLAN, retry_policy=POLICY,
                wave_timeout=WAVE_TIMEOUT,
            )
        assert_stage_identical(stage, res, clean_res)
        assert_same_cycles(stats, clean_stats)
        assert stats.faults_injected == 3
        assert stats.faults_by_kind == {
            "worker_crash": 1, "wave_timeout": 1, "transfer_error": 1
        }
        assert stats.retries == 3
        assert [
            (e["kind"], e["slot"]) for e in ledger.events("fault.injected")
        ] == [("worker_crash", 0), ("wave_timeout", 1), ("transfer_error", 2)]
        faulted[workers] = stats
    # the fault/retry counters are parent-side decisions: identical
    # across workers settings (host-side watchdog/pool counters aren't)
    assert faulted[1].faults_by_kind == faulted[4].faults_by_kind
    assert faulted[1].retries == faulted[4].retries
    # same backoffs, summed in wave-completion order => approx only
    assert faulted[1].backoff_seconds == pytest.approx(
        faulted[4].backoff_seconds
    )
    # pool fan-out really exercised the heavy machinery
    assert faulted[4].pool_restarts >= 1


def test_same_seed_same_plan_reproduces_injection_sites():
    plan = FaultPlan.from_spec("worker_crash:2~3,transfer_error:2~5", seed=77)
    replay = FaultPlan.from_spec("worker_crash:2~3,transfer_error:2~5", seed=77)
    for spec, spec2 in zip(plan.specs, replay.specs):
        assert plan.targets(spec) == replay.targets(spec2)
    other = FaultPlan.from_spec("worker_crash:2~3,transfer_error:2~5", seed=78)
    assert any(
        plan.targets(a) != other.targets(b)
        for a, b in zip(plan.specs, other.specs)
    )


def test_fault_events_reach_the_ledger(workload, tmp_path):
    driver, pipelines = _drivers(workload)["metadata"]
    ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
    manifest = RunManifest(workload="resilience-test", workers=4)
    with run_context(manifest, ledger):
        run_sharded(
            driver, workload.partitions, pipelines, workers=4,
            fault_plan=PLAN, retry_policy=POLICY, wave_timeout=WAVE_TIMEOUT,
        )
    injected = ledger.events("fault.injected", run_id=manifest.run_id)
    assert {(e["kind"], e["slot"]) for e in injected} == {
        ("worker_crash", 0), ("wave_timeout", 1), ("transfer_error", 2)
    }
    assert all(e["site"] == "scheduler.wave" for e in injected)
    retries = ledger.events("fault.retry", run_id=manifest.run_id)
    assert len(retries) == 3
    assert all(e["backoff_seconds"] >= 0 for e in retries)
    # the prefix query sees every resilience event at once
    assert len(ledger.events("fault.")) >= len(injected) + len(retries)
    # and the queue's summary carries the counters
    (summary,) = ledger.events("shard.device", run_id=manifest.run_id)
    assert summary["faults_injected"] == 3
    assert summary["retries"] == 3


def test_stats_carry_the_fault_counters(workload, tmp_path):
    driver, pipelines = _drivers(workload)["markdup"]
    ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
    with run_context(RunManifest(workload="resilience-test"), ledger):
        _, stats = run_sharded(
            driver, workload.partitions, pipelines, workers=1,
            fault_plan=PLAN, retry_policy=POLICY,
        )
    injected = ledger.events("fault.injected")
    assert stats.faults_injected == len(injected) == 3
    assert stats.faults_by_kind == dict(
        Counter(e["kind"] for e in injected)
    ) == {"worker_crash": 1, "wave_timeout": 1, "transfer_error": 1}
    assert stats.retries == 3
    assert stats.backoff_seconds > 0


def test_degradation_ladder_ends_in_serial_fallback(workload):
    """A wave that crashes the pool past the restart budget must still
    finish — serially, in-process, on what is left of its one retry
    budget — with identical results."""
    driver, pipelines = _drivers(workload)["metadata"]
    clean_res, _ = run_sharded(
        driver, workload.partitions, pipelines, workers=1
    )
    plan = FaultPlan(seed=1, specs=(
        FaultSpec("worker_crash", site="scheduler.wave", at=(0,), attempts=2),
    ))
    res, stats = run_sharded(
        driver, workload.partitions, pipelines, workers=4,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_retries=2, backoff_base=0.001, seed=1),
    )
    assert_stage_identical("metadata", res, clean_res)
    assert stats.pool_restarts >= 2
    assert stats.serial_fallback_waves >= 1


def test_retry_budget_exhaustion_raises(workload):
    driver, pipelines = _drivers(workload)["metadata"]
    plan = FaultPlan(seed=1, specs=(
        FaultSpec("worker_crash", site="scheduler.wave", at=(0,), attempts=99),
    ))
    for workers in (1, 4):
        # one budget on every rung: two attempts, then the same words
        with pytest.raises(
            RetryBudgetExceeded, match=r"wave 0 failed 2 attempt\(s\)"
        ):
            run_sharded(
                driver, workload.partitions, pipelines, workers=workers,
                fault_plan=plan,
                retry_policy=RetryPolicy(
                    max_retries=1, backoff_base=0.001, seed=1
                ),
            )


def test_watchdog_reaps_a_real_hang(workload):
    """An injected hang sleeps past the deadline in a worker; the parent
    abandons the future and the retry lands on a clean attempt."""
    driver, pipelines = _drivers(workload)["metadata"]
    clean_res, _ = run_sharded(
        driver, workload.partitions, pipelines, workers=1
    )
    plan = FaultPlan(seed=1, specs=(
        FaultSpec("wave_timeout", site="scheduler.wave", at=(0,)),
    ))
    res, stats = run_sharded(
        driver, workload.partitions, pipelines, workers=4,
        fault_plan=plan, retry_policy=POLICY,
        wave_timeout=0.4,
    )
    assert_stage_identical("metadata", res, clean_res)
    assert stats.faults_by_kind == {"wave_timeout": 1}
    # On a loaded host a clean retry attempt can blow the short deadline
    # too, so the host-side counters are lower-bounded, not exact.
    assert stats.retries >= 1
    assert stats.watchdog_timeouts >= 1


def test_wave_timeout_without_watchdog_is_an_ordinary_failure(workload):
    """No ``wave_timeout=`` armed: the injected timeout surfaces as an
    immediate worker failure and retries like any other fault."""
    driver, pipelines = _drivers(workload)["metadata"]
    clean_res, _ = run_sharded(
        driver, workload.partitions, pipelines, workers=1
    )
    plan = FaultPlan(seed=1, specs=(
        FaultSpec("wave_timeout", site="scheduler.wave", at=(0,)),
    ))
    res, stats = run_sharded(
        driver, workload.partitions, pipelines, workers=4,
        fault_plan=plan, retry_policy=POLICY,
    )
    assert_stage_identical("metadata", res, clean_res)
    assert stats.watchdog_timeouts == 0
    assert stats.retries == 1


def test_wave_timeout_validation():
    driver = MarkdupWaveDriver()
    with pytest.raises(ValueError):
        run_sharded(driver, [], 1, wave_timeout=0.0)


# -- untested scheduler failure paths (ISSUE 5 satellites) ---------------------------


class _ExplodingDriver(WaveDriver):
    """A driver whose simulation is a deterministic bug, not a fault."""

    stage = "exploding"
    uses_reference = False

    def empty_result(self, pid):
        return None

    def run_wave(self, wave):
        raise ValueError("deterministic driver bug")


def test_all_empty_partitions_never_build_a_pool(workload):
    """Every partition empty => zero waves, empty-shaped results, and no
    worker pool (nothing to simulate)."""
    driver, pipelines = _drivers(workload)["metadata"]
    empties = [
        (pid, part.take([])) for pid, part in list(workload.partitions)[:3]
    ]
    results, stats = run_sharded(driver, empties, pipelines, workers=4)
    assert stats.waves == 0
    assert stats.workers == 1
    assert set(results) == {pid for pid, _ in empties}
    for result in results.values():
        assert result.nm == [] and result.md == [] and result.uq == []


def test_no_partitions_at_all(workload):
    driver, pipelines = _drivers(workload)["metadata"]
    results, stats = run_sharded(driver, [], pipelines, workers=4)
    assert results == {} and stats.waves == 0


@pytest.mark.parametrize("workers", [1, 3])
def test_worker_exception_propagates(workload, workers):
    """Non-injected driver exceptions are bugs: they must propagate out
    of ``run_sharded`` unchanged, not be retried as faults."""
    partitions = list(workload.partitions)[:3]
    with pytest.raises(ValueError, match="deterministic driver bug"):
        run_sharded(_ExplodingDriver(), partitions, 1, workers=workers)


def test_spm_cache_merge_keeps_existing_entries():
    cache = SpmImageCache()
    cache.merge([("k",)])
    cache.merge([("k",), ("other",)])
    assert cache.keys() == {("k",), ("other",)} and len(cache) == 2
