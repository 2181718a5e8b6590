"""Host simulator throughput: the max-plus solution vs the dense loop.

Not a paper figure — this benchmark measures the *simulator itself*.  A
16x-replicated metadata-update wave over a whole-genome workload is run
under both engine modes; on the memory-latency-bound configuration the
max-plus mode must execute at most half the module ticks of the dense
loop, with bit-identical simulated cycle counts.  The host-time ratio
that buys at that latency is reported, not asserted: a ratio of two host
timings flaked on loaded hosts, and the host clock is measured by
``e2e_bench``.  Host flits/sec uses ``ParallelRunStats.wall_seconds`` —
the engine-run host time the modes actually differ on (the per-partition
SPM preload is the same fixed setup work either way; its time is
recorded separately).  The wall-time numbers and ticks-skipped ratio
land in the pytest-benchmark JSON (``extra_info``) so the speedup
trajectory is tracked across commits.
"""

import gc
import time

from repro.accel import MetadataWaveDriver
from repro.accel.sharding import run_sharded
from repro.eval.workloads import make_workload
from repro.hw.memory import MemoryConfig

#: High-latency memory: the regime where replicas spend most cycles
#: waiting on the shared channels, cycles the dense loop ticks through
#: and the max-plus solution never visits.
LATENCY_BOUND = MemoryConfig(latency_cycles=400)

N_PIPELINES = 16


def _workload():
    # 69 non-empty partitions -> 5 waves of up to 16 replicas.
    return make_workload(
        n_reads=320,
        read_length=80,
        genome_scale=4.5e-5,
        psize=2000,
        seed=2021,
    )


def _run(workload, mode, memory_config):
    start = time.perf_counter()
    results, stats = run_sharded(
        MetadataWaveDriver(
            reference=workload.reference, memory_config=memory_config,
            mode=mode,
        ),
        workload.partitions,
        N_PIPELINES,
    )
    wall = time.perf_counter() - start
    return results, stats, wall


def test_sim_throughput_maxplus_vs_dense(benchmark, report):
    workload = _workload()

    # Best-of-N on both sides so scheduler-noise outliers on the host
    # don't decide the comparison.
    dense_runs = [_run(workload, "dense", LATENCY_BOUND) for _ in range(2)]
    dense_results, dense_stats, dense_wall = min(
        dense_runs, key=lambda run: run[1].wall_seconds
    )

    solved_runs = []

    def run_solved():
        solved_runs.append(_run(workload, "maxplus", LATENCY_BOUND))

    benchmark.pedantic(run_solved, rounds=3, iterations=1)
    solved_results, solved_stats, solved_wall = min(
        solved_runs, key=lambda run: run[1].wall_seconds
    )

    # Exact cycle accuracy: the modes must agree on simulated time...
    assert solved_stats.total_cycles == dense_stats.total_cycles
    assert solved_stats.per_wave_cycles == dense_stats.per_wave_cycles
    # ...and on functional outputs.
    assert set(solved_results) == set(dense_results)
    for pid, dense_res in dense_results.items():
        assert solved_results[pid].nm == dense_res.nm
        assert solved_results[pid].md == dense_res.md
    assert solved_stats.total_flits == dense_stats.total_flits

    # The solution's win, counted: at most half the module ticks the
    # dense schedule executes.  The host-time ratio it buys is reported
    # below, not asserted — the host clock is e2e_bench's.
    assert solved_stats.ticks_executed * 2 <= dense_stats.ticks_executed
    assert solved_stats.skip_ratio > 0.5

    dense_fps = dense_stats.host_flits_per_second
    speedup = solved_stats.host_flits_per_second / dense_fps

    benchmark.extra_info.update(
        dense_sim_seconds=round(dense_stats.wall_seconds, 4),
        maxplus_sim_seconds=round(solved_stats.wall_seconds, 4),
        maxplus_end_to_end_seconds=round(solved_wall, 4),
        maxplus_host_speedup=round(speedup, 3),
        dense_end_to_end_seconds=round(dense_wall, 4),
        dense_flits_per_second=round(dense_fps),
        maxplus_flits_per_second=round(solved_stats.host_flits_per_second),
        skip_ratio=round(solved_stats.skip_ratio, 4),
        simulated_cycles=solved_stats.total_cycles,
    )

    report("Simulator throughput - maxplus vs dense (16 pipelines)", [
        f"dense: {dense_stats.wall_seconds:.2f}s simulating, "
        f"{dense_fps / 1e3:.1f}k flits/s",
        f"maxplus: {solved_stats.wall_seconds:.2f}s solving, "
        f"{solved_stats.host_flits_per_second / 1e3:.1f}k flits/s "
        f"(skip ratio {solved_stats.skip_ratio:.1%})",
        f"host speedup over dense: maxplus {speedup:.2f}x at "
        f"latency={LATENCY_BOUND.latency_cycles} cycles; simulated cycles "
        f"identical ({solved_stats.total_cycles})",
    ])


def test_metrics_disabled_zero_overhead(benchmark, report):
    """The observability layer must be free when off.  A run pays for no
    profile it is not asked for — the solution stays on the engine and a
    profile is derived only on request — so two independent best-of-3
    samples of the unprofiled path must agree within 5%: any systematic
    metrics tax would show up as a stable gap between them.  The profiled
    sample is the same wave with a :class:`~repro.obs.Profiler` attached:
    it is solved, not ticked (``maxplus``, the unprofiled run's cycles),
    and the host time of deriving its profile from the solution is
    recorded beside the solve's."""
    from repro.accel.common import SOLO
    from repro.accel.markdup import MarkdupWaveDriver, qual_table
    from repro.obs import Profiler

    wave = [(SOLO, qual_table([read.qual for read in _workload().reads]))]

    def time_once():
        gc.collect()  # no sample pays for a predecessor's garbage
        start = time.perf_counter()
        _results, stats, _load_cycles = MarkdupWaveDriver().run_wave(wave)
        wall = time.perf_counter() - start
        return wall, stats.cycles

    # Warm up caches/allocators, then interleave the two disabled-path
    # samples — alternating which goes first — so drift and ordering
    # effects hit both equally.
    time_once()
    sample_a, sample_b = [], []
    for i in range(4):
        first, second = (sample_a, sample_b) if i % 2 == 0 else (sample_b, sample_a)
        first.append(time_once())
        second.append(time_once())
    base_wall, base_cycles = min(sample_a)
    check_wall, check_cycles = min(sample_b)
    assert base_cycles == check_cycles

    profiled = []

    def run_profiled():
        gc.collect()
        profiler = Profiler(name="overhead")
        _results, stats, _load_cycles = MarkdupWaveDriver().run_wave(
            wave, probe=profiler
        )
        start = time.perf_counter()
        profile = profiler.report()
        profiled.append((time.perf_counter() - start, stats.wall_seconds, profile))

    benchmark.pedantic(run_profiled, rounds=3, iterations=1)
    derive_seconds, solve_seconds, profile = min(profiled, key=lambda run: run[0])
    # profiling is no reason to tick: the profiled wave is solved
    assert profile.mode == "maxplus"
    assert profile.cycles == base_cycles
    profile.validate()

    ratio = check_wall / base_wall
    assert ratio <= 1.05, (
        f"disabled-metrics path regressed: {ratio:.3f}x between two "
        "samples of the same configuration"
    )

    benchmark.extra_info.update(
        disabled_seconds=round(base_wall, 4),
        disabled_check_ratio=round(ratio, 4),
        profiled_solve_seconds=round(solve_seconds, 4),
        profile_derive_seconds=round(derive_seconds, 4),
        simulated_cycles=base_cycles,
    )
    report("Metrics overhead - disabled vs profiled run", [
        f"disabled: {base_wall:.3f}s (A/A ratio {ratio:.3f}x, gate 1.05x)",
        f"profiled: solved in {solve_seconds:.3f}s, profile derived from "
        f"the solution in {derive_seconds:.3f}s",
    ])


def test_fault_hooks_no_fault_overhead(benchmark, report):
    """The resilience layer must be free when nothing faults.  With a
    fault plan attached that never fires, ``run_sharded``
    pays one parent-side ``poll`` per wave and nothing else — so an
    interleaved A/A comparison of hooked vs bare runs must agree within
    the same 5% noise budget as the metrics gate, with bit-identical
    simulated cycles."""
    from repro.accel import MarkdupWaveDriver
    from repro.faults import FaultPlan, FaultSpec

    workload = _workload()
    # enough waves to amortize setup, few enough to keep the bench quick
    partitions = list(workload.partitions)[:16]

    #: A plan targeting a slot no schedule reaches: hooks armed, no hits.
    plan = FaultPlan(seed=0, specs=(
        FaultSpec("worker_crash", site="scheduler.wave", at=(10 ** 6,)),
    ))

    def time_once(hooked):
        start = time.perf_counter()
        _, stats = run_sharded(
            MarkdupWaveDriver(), partitions, 4, workers=1,
            fault_plan=plan if hooked else None,
        )
        wall = time.perf_counter() - start
        assert stats.faults_injected == 0
        return wall, stats.total_cycles

    time_once(False)  # warm-up
    time_once(True)
    bare, hooked = [], []
    for i in range(5):
        first, second = (bare, hooked) if i % 2 == 0 else (hooked, bare)
        first.append(time_once(first is hooked))
        second.append(time_once(second is hooked))

    def run_hooked():
        hooked.append(time_once(True))

    benchmark.pedantic(run_hooked, rounds=1, iterations=1)
    bare_wall, bare_cycles = min(bare)
    hooked_wall, hooked_cycles = min(hooked)
    assert hooked_cycles == bare_cycles  # hooks never perturb simulation

    ratio = hooked_wall / bare_wall
    assert ratio <= 1.05, (
        f"no-fault path costs {ratio:.3f}x with injection hooks armed"
    )

    benchmark.extra_info.update(
        bare_seconds=round(bare_wall, 4),
        hooked_seconds=round(hooked_wall, 4),
        hook_overhead=round(ratio, 4),
        simulated_cycles=bare_cycles,
    )
    report("Fault-hook overhead - armed fault plan, nothing firing", [
        f"bare: {bare_wall:.3f}s, hooked: {hooked_wall:.3f}s "
        f"(ratio {ratio:.3f}x, gate 1.05x, cycles identical)",
    ])


def test_sim_throughput_default_latency(benchmark, report):
    """The same comparison at the default memory latency — fewer dead
    cycles for the solution to skip — without the 2x tick gate.  The
    max-plus solution must match dense here too, and must not make the
    simulator slower."""
    workload = _workload()
    dense_results, dense_stats, _dense_wall = _run(workload, "dense", None)
    solved_runs = []

    def run_solved():
        solved_runs.append(_run(workload, "maxplus", None))

    benchmark.pedantic(run_solved, rounds=2, iterations=1)
    solved_results, solved_stats, solved_wall = min(
        solved_runs, key=lambda run: run[1].wall_seconds
    )

    assert solved_stats.total_cycles == dense_stats.total_cycles
    assert solved_stats.total_flits == dense_stats.total_flits
    assert solved_stats.per_wave_cycles == dense_stats.per_wave_cycles
    for pid, result in dense_results.items():
        assert solved_results[pid].nm == result.nm
        assert solved_results[pid].md == result.md
    speedup = (
        solved_stats.host_flits_per_second / dense_stats.host_flits_per_second
    )
    # Even with little latency to hide, solving instead of ticking must
    # not make the simulator slower.
    assert speedup >= 1.0

    benchmark.extra_info.update(
        dense_sim_seconds=round(dense_stats.wall_seconds, 4),
        maxplus_sim_seconds=round(solved_stats.wall_seconds, 4),
        maxplus_end_to_end_seconds=round(solved_wall, 4),
        maxplus_host_speedup=round(speedup, 3),
        simulated_cycles=dense_stats.total_cycles,
    )
    report("Simulator throughput - default memory latency", [
        f"dense {dense_stats.wall_seconds:.2f}s simulating vs maxplus "
        f"{solved_stats.wall_seconds:.2f}s solving "
        f"(speedup {speedup:.2f}x, skip ratio {solved_stats.skip_ratio:.1%})",
    ])
