#!/usr/bin/env python
"""Fault tolerance: crash a worker, hang a wave, fail a DMA — and still
produce bit-identical results.

The host scheduler survives real infrastructure failure (a pool worker
killed with ``os._exit``, a wave hung past the watchdog deadline) via a
retry -> requeue -> serial-fallback ladder, and the runtime retries
transient transfer errors while charging the failed DMA time to the
virtual timeline.  Fault injection is deterministic — a seeded
``FaultPlan`` decides every site — so the faulted run is asserted equal
to the clean one, read for read.  See DESIGN.md §3.5.

Run:  python examples/fault_tolerance.py
"""

from repro.accel import MetadataWaveDriver, run_sharded
from repro.accel.markdup import run_quality_sums
from repro.eval import make_workload
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.runtime import GenesisRuntime


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

    # 3. A transient PCIe error on the runtime API: the failed DMA
    #    attempt occupies the link for its full duration, then retries.
    def kernel(inputs):
        result = run_quality_sums(inputs["QUAL"])
        return {"sums": result.quality_sums}, result.stats.cycles

    def run(injector=None):
        runtime = GenesisRuntime(fault_injector=injector, retry_policy=policy)
        runtime.register_pipeline(0, kernel)
        quals = [read.qual for read in workload.reads]
        runtime.configure_mem(quals, 1, sum(len(q) for q in quals), "QUAL", 0)
        runtime.configure_mem(None, 4, len(quals), "SUMS", 0, is_output=True)
        runtime.run_genesis(0)
        return runtime.genesis_flush(0)["sums"], runtime

    clean_sums, clean_rt = run()
    sums, faulted_rt = run(FaultInjector(FaultPlan.from_spec("transfer_error",
                                                            seed=7)))
    assert sums == clean_sums
    failed = sum(1 for t in faulted_rt.device.transfers if not t.ok)
    extra = faulted_rt.elapsed_seconds - clean_rt.elapsed_seconds
    print(f"runtime: {failed} failed DMA retried; +{extra * 1e6:.1f}us of "
          "virtual time charged, identical outputs")


if __name__ == "__main__":
    main()
