"""Ablation: Figure 8 replication applied to the real metadata pipeline.

Unlike the synthetic Figure 8 bench (narrow memory, example pipeline),
this runs the actual Figure 11 metadata-update pipeline replicated N ways
inside one engine over real partitions, verifying bit-identical results
and measuring the wall-cycle reduction replication buys.
"""

from repro.accel import MetadataWaveDriver
from repro.accel.sharding import run_sharded


def _sweep(workload):
    parts = [(pid, part) for pid, part in workload.partitions if part.num_rows > 0]
    out = {}
    baseline = None
    for n in (1, 2, 4):
        results, stats = run_sharded(
            MetadataWaveDriver(reference=workload.reference), parts, n
        )
        out[n] = stats.total_cycles
        if baseline is None:
            baseline = results
        else:
            for pid in baseline:
                assert results[pid].md == baseline[pid].md, str(pid)
    return out, len(parts)


def test_ablation_real_pipeline_replication(benchmark, report, bench_workload):
    cycles, n_parts = benchmark(_sweep, bench_workload)

    assert cycles[2] < cycles[1]
    assert cycles[4] <= cycles[2]
    speedup2 = cycles[1] / cycles[2]
    speedup4 = cycles[1] / cycles[4]
    assert speedup2 > 1.4

    report("Ablation - real Figure 11 pipeline replicated (Figure 8)", [
        f"{n_parts} partitions processed; results identical at every width",
        f"1 pipeline: {cycles[1]} cycles",
        f"2 pipelines: {cycles[2]} cycles ({speedup2:.2f}x)",
        f"4 pipelines: {cycles[4]} cycles ({speedup4:.2f}x)",
        "wall-cycles track the longest partition per wave, the behaviour "
        "the paper's 16x replication exploits",
    ])
