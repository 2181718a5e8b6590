"""Cycle-timeline integration with a real accelerator pipeline."""

from repro.accel.common import feed_read_streams, load_reference_spm, spm_base
from repro.accel.example_query import (
    build_example_pipeline,
    count_matching_bases_sw,
)
from repro.hw.engine import Engine
from repro.hw.memory import MemorySystem
from repro.obs import Profiler


def test_trace_real_pipeline(workload):
    pid, part = max(
        ((p, t) for p, t in workload.partitions), key=lambda x: x[1].num_rows
    )
    ref_row = workload.reference.lookup(pid)
    spm, _ = load_reference_spm(ref_row)
    engine = Engine(MemorySystem())
    pipe = build_example_pipeline(engine, "tr", spm, spm_base(ref_row))
    feed_read_streams(pipe, part)
    profiler = Profiler().attach(engine)
    stats = engine.run()

    # Profiling must not change functional results, nor the mode.
    counts = [int(item[0]) for item in pipe.modules["tr.writer"].items]
    assert counts == count_matching_bases_sw(part, ref_row)
    assert stats.mode == "maxplus"

    report = profiler.report()
    report.validate()  # the spans tile the whole run, however long
    busy = {
        name: sum(s.cycles for s in spans if s.state == "busy") / report.cycles
        for name, spans in report.timelines.items()
    }
    # The base-granularity modules are the busy ones; the per-read modules
    # (pos/endpos readers, writer) mostly idle.
    assert busy["tr.r2b"] > busy["tr.pos"]
    assert busy["tr.join"] > 0.3
    assert report.bottleneck() in busy
