"""Cycle-timeline integration with a real accelerator pipeline."""

from repro.accel.common import feed_read_streams, load_reference_spm, spm_base
from repro.accel.example_query import (
    build_example_pipeline,
    count_matching_bases_sw,
)
from repro.hw.engine import Engine
from repro.hw.memory import MemorySystem
from repro.obs.timeline import TimelineRecorder


def test_trace_real_pipeline(workload):
    pid, part = max(
        ((p, t) for p, t in workload.partitions), key=lambda x: x[1].num_rows
    )
    ref_row = workload.reference.lookup(pid)
    spm, _ = load_reference_spm(ref_row)
    engine = Engine(MemorySystem())
    pipe = build_example_pipeline(engine, "tr", spm, spm_base(ref_row))
    feed_read_streams(pipe, part)
    recorder = TimelineRecorder(engine, max_cycles=50_000)
    idle_streak = 0
    while idle_streak < 2 and recorder.cycles_recorded < 50_000:
        engine.step()
        recorder.sample()
        idle_streak = idle_streak + 1 if engine.is_quiescent() else 0

    # Sampling must not change functional results.
    counts = [int(item[0]) for item in pipe.modules["tr.writer"].items]
    assert counts == count_matching_bases_sw(part, ref_row)

    busy = {
        name: fractions["busy"]
        for name, fractions in recorder.state_fractions().items()
    }
    # The base-granularity modules are the busy ones; the per-read modules
    # (pos/endpos readers, writer) mostly idle.
    assert busy["tr.r2b"] > busy["tr.pos"]
    assert busy["tr.join"] > 0.3
    assert recorder.busiest_module() in busy
