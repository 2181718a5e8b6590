"""Tests for the observability layer: registry, timelines, profiler,
report invariants, and exporters."""

import csv
import json

import pytest

from repro.accel.common import SOLO
from repro.accel.markdup import MarkdupWaveDriver, qual_table
from repro.accel.scheduler import SpmImageCache
from repro.hw.engine import Engine
from repro.hw.flit import item_flits
from repro.hw.modules import Reducer
from repro.obs import (
    Histogram,
    MetricsRegistry,
    Profiler,
    TimelineRecorder,
    chrome_trace,
    profile_engine_run,
    report_to_csv_rows,
    report_to_dict,
    write_chrome_trace,
    write_report_csv,
    write_report_json,
)

from hw_harness import ListSink, ListSource


def build_chain(n_values=20, capacity=None):
    engine = Engine()
    source = engine.add_module(ListSource("src", item_flits(list(range(n_values)))))
    middle = engine.add_module(Reducer("mid", op="sum"))
    sink = engine.add_module(ListSink("sink"))
    engine.connect(source, middle, capacity=capacity)
    engine.connect(middle, sink, capacity=capacity)
    return engine, sink


# -- registry ------------------------------------------------------------------------


def test_counter_get_or_create_and_inc():
    registry = MetricsRegistry()
    a = registry.counter("flits", module="src")
    b = registry.counter("flits", module="src")
    assert a is b
    a.inc()
    a.inc(4)
    assert a.value == 5
    assert registry.total("flits") == 5
    assert registry.total("other", default=-1) == -1


def test_labels_are_order_insensitive():
    registry = MetricsRegistry()
    a = registry.counter("m", x=1, y=2)
    b = registry.counter("m", y=2, x=1)
    assert a is b


def test_histogram_record_mean_quantile():
    hist = Histogram()
    hist.record(0, weight=3)
    hist.record(2)
    hist.record(4)
    assert hist.total == 5
    assert hist.mean() == pytest.approx((0 * 3 + 2 + 4) / 5)
    assert hist.quantile(0.5) == 0
    assert hist.quantile(1.0) == 4
    assert hist.counts == [3, 0, 1, 0, 1]


def test_values_by_name():
    registry = MetricsRegistry()
    registry.counter("flits", module="a").inc(1)
    registry.counter("flits", module="b").inc(2)
    values = registry.values("flits")
    assert len(values) == 2
    assert {inst.value for inst in values.values()} == {1, 2}


# -- timeline recorder ---------------------------------------------------------------


def test_recorder_coalesces_spans_and_counts_states():
    engine, sink = build_chain(10)
    recorder = TimelineRecorder(engine)
    while not engine.is_quiescent() or engine.cycle == 0:
        engine.step()
        recorder.sample()
    assert sink.collected
    src = recorder.timelines["src"]
    totals = src.state_cycles()
    assert totals["busy"] > 0
    assert src.cycles_recorded() == recorder.cycles_recorded
    # spans are coalesced: far fewer spans than cycles
    assert len(src.spans) < recorder.cycles_recorded


def test_recorder_ignores_duplicate_cycle():
    engine, _sink = build_chain(5)
    recorder = TimelineRecorder(engine)
    engine.step()
    assert recorder.sample() is True
    assert recorder.sample() is False  # same cycle again
    assert recorder.cycles_recorded == 1


def test_recorder_attached_mid_run_starts_at_next_boundary():
    engine, _sink = build_chain(10)
    for _ in range(4):
        engine.step()
    recorder = TimelineRecorder(engine)
    assert recorder.attach_cycle == 4
    assert recorder.sample() is False  # cycle 3 pre-dates the attach
    engine.step()
    assert recorder.sample() is True
    assert recorder.cycles_recorded == 1
    for timeline in recorder.timelines.values():
        for span in timeline.spans:
            assert span.start >= 4


def test_recorder_stops_at_max_cycles():
    engine, _sink = build_chain(50)
    recorder = TimelineRecorder(engine, max_cycles=10)
    for _ in range(15):
        engine.step()
        recorder.sample()
    assert recorder.cycles_recorded == 10
    assert recorder.sample() is False
    for timeline in recorder.timelines.values():
        assert timeline.cycles_recorded() == 10


def test_state_fractions_sum_to_one():
    engine, _sink = build_chain(12)
    recorder = TimelineRecorder(engine)
    while not engine.is_quiescent() or engine.cycle == 0:
        engine.step()
        recorder.sample()
    for fractions in recorder.state_fractions().values():
        assert sum(fractions.values()) == pytest.approx(1.0)
    assert recorder.busiest_module() in ("src", "mid", "sink")


# -- profiler ------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["maxplus", "dense"])
def test_profile_states_sum_to_cycles(mode):
    engine, sink = build_chain(30)
    stats, report = profile_engine_run(engine, mode=mode, name="chain")
    assert sink.collected
    assert report.cycles == stats.cycles
    report.validate()  # busy+starved+stalled+idle == cycles, per module
    for profile in report.modules:
        assert profile.total == report.cycles


def test_profile_modes_agree_on_cycles_and_flits():
    """A probed run ticks the dense loop and lands where the unprobed
    max-plus solution does; its timelines cover the whole run."""
    engine, _sink = build_chain(25)
    _stats, report = profile_engine_run(engine)
    assert report.mode == "dense"
    engine, _sink = build_chain(25)
    solved = engine.run()
    assert solved.mode == "maxplus"
    assert report.cycles == solved.cycles
    for profile in report.modules:
        assert profile.flits_out == solved.flits_by_module[profile.name]
        assert profile.busy == solved.busy_by_module[profile.name]
    for spans in report.timelines.values():
        assert sum(s.cycles for s in spans) == report.cycles


def test_profile_queue_occupancy_covers_run():
    engine, _sink = build_chain(20)
    _stats, report = profile_engine_run(engine, name="q")
    for queue in report.queues:
        assert sum(queue.occupancy_counts) == report.cycles
        assert queue.total_pushed > 0
    assert report.bottleneck() == "src"


def test_profile_backpressure_counts_stalls():
    engine = Engine()
    source = engine.add_module(ListSource("src", item_flits(list(range(40)))))

    class SlowSink(ListSink):
        def tick(self, cycle):
            if cycle % 3 == 0:
                super().tick(cycle)

    sink = engine.add_module(SlowSink("sink"))
    engine.connect(source, sink, capacity=2)
    _stats, report = profile_engine_run(engine, mode="dense")
    report.validate()
    assert report.module("src").stalled > 0
    queue = report.queues[0]
    assert queue.full_stalls > 0
    assert queue.max_occupancy == 2


def test_profiler_attach_is_exclusive_and_detachable():
    engine, _sink = build_chain(5)
    profiler = Profiler()
    profiler.attach(engine)
    with pytest.raises(RuntimeError):
        profiler.attach(engine)
    profiler.detach()
    assert engine.probe is None
    other = Profiler()
    other.attach(engine)
    assert engine.probe is other


def test_profiler_memory_channels():
    profiler = Profiler(name="md")
    _results, stats, _load_cycles = MarkdupWaveDriver().run_wave(
        [(SOLO, qual_table([[3, 4], [5, 6]]))], SpmImageCache(), probe=profiler
    )
    report = profiler.report()
    report.validate()
    assert report.cycles == stats.cycles
    assert report.memory.requests > 0
    assert sum(c.grants for c in report.memory.channels) == report.memory.requests
    assert len(report.memory.channels) == 4


def test_report_render_mentions_modules():
    engine, _sink = build_chain(10)
    _stats, report = profile_engine_run(engine, name="demo")
    text = report.render()
    assert "demo" in text
    assert "src" in text and "mid" in text and "sink" in text


# -- exporters -----------------------------------------------------------------------


def _small_report():
    engine, _sink = build_chain(15)
    _stats, report = profile_engine_run(engine, name="exp")
    return report


def test_chrome_trace_shape():
    report = _small_report()
    trace = chrome_trace(report)
    events = trace["traceEvents"]
    json.dumps(trace)  # serializable
    names = {e["args"]["name"] for e in events if e["name"] == "thread_name"}
    assert names == {"src", "mid", "sink"}
    spans = [e for e in events if e["ph"] == "X"]
    assert spans
    for event in spans:
        assert event["name"] in ("busy", "stalled", "starved")
        assert event["dur"] >= 1
        assert 0 <= event["ts"] <= report.cycles
    counters = [e for e in events if e["ph"] == "C"]
    assert counters  # queue occupancy tracks present


def test_chrome_trace_file_roundtrip(tmp_path):
    report = _small_report()
    path = tmp_path / "trace.json"
    write_chrome_trace(report, str(path))
    loaded = json.loads(path.read_text())
    assert loaded["traceEvents"]
    assert loaded["otherData"]["cycles"] == report.cycles


def test_report_json_roundtrip(tmp_path):
    report = _small_report()
    path = tmp_path / "report.json"
    write_report_json(report, str(path))
    loaded = json.loads(path.read_text())
    assert loaded["cycles"] == report.cycles
    for name, entry in loaded["modules"].items():
        states = entry["busy"] + entry["starved"] + entry["stalled"] + entry["idle"]
        assert states == loaded["cycles"], name


def test_report_dict_matches_report():
    report = _small_report()
    data = report_to_dict(report)
    assert data["modules"]["src"]["flits_out"] == report.module("src").flits_out
    assert set(data["queues"]) == {q.name for q in report.queues}


def test_report_csv(tmp_path):
    report = _small_report()
    rows = report_to_csv_rows(report)
    sections = {row[0] for row in rows}
    assert {"run", "module", "queue", "memory"} <= sections
    path = tmp_path / "report.csv"
    write_report_csv(report, str(path))
    with open(path) as handle:
        parsed = list(csv.reader(handle))
    assert parsed[0] == ["section", "name", "metric", "value"]
    assert len(parsed) == len(rows) + 1


def test_nearest_rank_percentile_edge_cases():
    from repro.obs.registry import nearest_rank, nearest_rank_percentile

    # empty input has no percentile
    assert nearest_rank_percentile([], 50) is None
    # a single sample answers every percentile
    assert nearest_rank_percentile([7], 1) == 7
    assert nearest_rank_percentile([7], 99) == 7
    # ties: the nearest-rank element is one of the tied values
    assert nearest_rank_percentile([5, 5, 5, 9], 50) == 5
    assert nearest_rank_percentile([5, 5, 5, 9], 99) == 9
    # unsorted input is sorted before ranking
    assert nearest_rank_percentile([9, 1, 5], 50) == 5
    # the rank itself: ceil(q/100 * n), floored at 1
    assert nearest_rank(4, 50) == 2
    assert nearest_rank(4, 1) == 1
    assert nearest_rank(4, 100) == 4
    with pytest.raises(ValueError):
        nearest_rank(4, 0)
    with pytest.raises(ValueError):
        nearest_rank(0, 50)


def test_histogram_quantile_uses_nearest_rank():
    hist = Histogram()
    for value in (1, 2, 3, 4):
        hist.record(value)
    # ranks 1..4 map straight onto the recorded values
    assert hist.quantile(0.25) == 1
    assert hist.quantile(0.5) == 2
    assert hist.quantile(0.75) == 3
    assert hist.quantile(1.0) == 4
