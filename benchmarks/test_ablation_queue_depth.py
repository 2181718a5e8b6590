"""Ablation: hardware queue depth.

The dataflow pipelines tolerate producer/consumer rate mismatches through
their queues; this ablation sweeps the queue capacity and shows that
shallow queues cost cycles (back-pressure bubbles) while depth beyond a
handful of entries buys nothing — the justification for small on-chip
FIFOs in the resource model.
"""

from repro.accel.common import feed_read_streams, load_reference_spm, spm_base
from repro.accel.example_query import (
    build_example_pipeline,
    count_matching_bases_sw,
)
from repro.hw.engine import Engine
from repro.hw.memory import MemorySystem


def _run_with_depth(workload, capacity):
    pid, part = max(
        ((p, t) for p, t in workload.partitions), key=lambda x: x[1].num_rows
    )
    ref_row = workload.reference.lookup(pid)
    spm, _ = load_reference_spm(ref_row)
    engine = Engine(MemorySystem(), default_queue_capacity=capacity)
    pipe = build_example_pipeline(engine, "q", spm, spm_base(ref_row))
    feed_read_streams(pipe, part)
    stats = engine.run()
    counts = [int(item[0]) for item in pipe.modules["q.writer"].items]
    assert counts == count_matching_bases_sw(part, ref_row)
    return stats.cycles


def _sweep(workload):
    return {depth: _run_with_depth(workload, depth) for depth in (1, 2, 4, 8, 32)}


def test_ablation_queue_depth(benchmark, report, small_bench_workload):
    cycles = benchmark(_sweep, small_bench_workload)

    # Depth-1 queues serialize every hop; deeper queues recover throughput.
    assert cycles[1] > cycles[4]
    # Diminishing returns: beyond depth 8, less than 5% improvement.
    assert cycles[32] > 0.95 * cycles[8]

    lines = [
        f"queue depth {depth:>2}: {count} cycles "
        f"({cycles[1] / count:.2f}x vs depth 1)"
        for depth, count in sorted(cycles.items())
    ]
    lines.append("correctness is depth-independent; depth ~8 suffices")
    report("Ablation - queue depth vs pipeline cycles", lines)
