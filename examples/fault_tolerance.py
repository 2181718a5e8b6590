#!/usr/bin/env python
"""Fault tolerance: crash a worker, hang a wave, fail a DMA — and still
produce bit-identical results.

The host scheduler survives real infrastructure failure (a pool worker
killed with ``os._exit``, a wave hung past the watchdog deadline) via a
retry -> requeue -> serial-fallback ladder.  A failed PCIe transfer is
a failed attempt of the wave that issued it, retried on the same
ladder; on a served run its backoff costs penalty cycles on the
service's virtual clock.  Fault injection is deterministic — a seeded
``FaultPlan`` decides every faulted wave — so the faulted run is
asserted equal to the clean one, read for read.  See DESIGN.md §3.5.

Run:  python examples/fault_tolerance.py
"""

from repro.accel import MetadataWaveDriver, run_sharded
from repro.eval import make_workload
from repro.faults import FaultPlan, RetryPolicy
from repro.serve import JobService, JobSpec


def main() -> None:
    # Small partitions -> several waves, so both scheduler faults land.
    workload = make_workload(n_reads=120, read_length=60,
                             chromosomes=(20, 21), genome_scale=4.5e-5,
                             psize=1000, seed=7)
    driver = MetadataWaveDriver(reference=workload.reference)
    policy = RetryPolicy(max_retries=2, backoff_base=0.002, seed=7)

    # 1. The clean run: the ground truth the faulted run must reproduce.
    clean, clean_stats = run_sharded(
        driver, workload.partitions, n_pipelines=4, workers=2,
    )
    print(f"clean run: {clean_stats.waves} waves, "
          f"{clean_stats.total_cycles} simulated cycles")

    # 2. The same run under fire: wave 0 crashes its worker (a genuine
    #    process death -> pool restart), wave 1 hangs until the watchdog
    #    reaps it.  Same seed + same plan => same injection sites.
    plan = FaultPlan.from_spec("worker_crash,wave_timeout~1", seed=7)
    for line in plan.describe():
        print(f"injecting: {line}")
    faulted, stats = run_sharded(
        driver, workload.partitions, n_pipelines=4, workers=2,
        fault_plan=plan, retry_policy=policy, wave_timeout=0.5,
    )

    assert set(faulted) == set(clean)
    for pid, res in clean.items():
        assert faulted[pid].nm == res.nm
        assert faulted[pid].md == res.md
        assert faulted[pid].uq == res.uq
    assert stats.total_cycles == clean_stats.total_cycles
    kinds = ", ".join(f"{k} x{n}" for k, n in sorted(stats.faults_by_kind.items()))
    print(f"faulted run: survived {stats.faults_injected} faults ({kinds}); "
          f"{stats.retries} retried, {stats.watchdog_timeouts} watchdog "
          f"timeout(s), {stats.pool_restarts} pool restart(s)")
    print("results and simulated cycles bit-identical to the clean run")

    # 3. A transient PCIe error on a served run: the job service retries
    #    the wave whose DMA failed, and the ladder's backoff becomes
    #    fault_penalty cycles ahead of that wave on the virtual clock.
    def serve(fault_plan=None):
        service = JobService(fault_plan=fault_plan, retry_policy=policy)
        status = service.submit(JobSpec(
            tenant="lab", driver=driver, partitions=workload.partitions,
            n_pipelines=4,
        ))
        summary = service.run_until_idle()
        penalty = sum(
            fields["penalty_cycles"] for event, fields in service.events
            if event == "serve.wave.done"
        )
        return service.results(status.job_id), summary, penalty

    clean_served, clean_summary, _ = serve()
    served, summary, penalty = serve(
        FaultPlan.from_spec("transfer_error", seed=7)
    )
    assert set(served) == set(clean_served)
    for pid, res in clean_served.items():
        assert (served[pid].nm, served[pid].md, served[pid].uq) == (
            res.nm, res.md, res.uq
        )
    assert summary.faults == {"transfer_error": 1} and penalty > 0
    print(f"served run: {summary.retries} failed DMA retried; its backoff "
          f"cost {penalty} fault_penalty cycles (virtual clock "
          f"{clean_summary.clock_cycles} -> {summary.clock_cycles} cycles), "
          "identical outputs")

if __name__ == "__main__":
    main()
