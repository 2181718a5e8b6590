"""Tests for the observability layer: registry, timelines, the profile
derived from a solved run (held to the dense oracle), report invariants,
and exporters."""

import csv
import json

import pytest

import repro.obs
from repro.accel.common import SOLO
from repro.accel.markdup import MarkdupWaveDriver, qual_table
from repro.accel.stages import STAGES
from repro.eval.experiments import profile_stage
from repro.hw.engine import Engine
from repro.hw.flit import item_flits
from repro.hw.modules import Reducer
from repro.obs import (
    STATES,
    Histogram,
    MetricsRegistry,
    Profiler,
    chrome_trace,
    profile_engine_run,
    report_to_csv_rows,
    report_to_dict,
    write_chrome_trace,
    write_report_csv,
    write_report_json,
)

from hw_harness import ListSink, ListSource, TickProfiler, assert_same_profile


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


# -- timelines ----------------------------------------------------------------------


def _oracle(engine, name="run"):
    """The dense oracle's profile of ``engine``'s run."""
    oracle = TickProfiler(name).attach(engine)
    stats = engine.run()
    return stats, oracle.report()


def test_recorder_coalesces_spans_and_counts_states():
    """A solved run's spans coalesce as the per-cycle recorder's (the
    dense oracle's) do, state by state."""
    engine, sink = build_chain(10)
    _stats, report = profile_engine_run(engine)
    assert sink.collected
    src = report.timelines["src"]
    assert sum(s.cycles for s in src if s.state == "busy") == 10
    assert sum(s.cycles for s in src) == report.cycles
    # spans are coalesced: far fewer spans than cycles
    assert len(src) < report.cycles
    assert_same_profile(report, _oracle(build_chain(10)[0])[1])


def test_state_fractions_sum_to_one():
    engine, _sink = build_chain(12)
    _stats, report = profile_engine_run(engine)
    for name, spans in report.timelines.items():
        fractions = {
            state: sum(s.cycles for s in spans if s.state == state) / report.cycles
            for state in STATES
        }
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["busy"] == report.module(name).utilization(report.cycles)
    assert report.bottleneck() in ("src", "mid", "sink")


# -- profiler ------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["maxplus", "dense"])
def test_profile_states_sum_to_cycles(mode):
    """The profile of a solved run and the dense oracle's."""
    engine, sink = build_chain(30)
    if mode == "maxplus":
        stats, report = profile_engine_run(engine, name="chain")
    else:
        stats, report = _oracle(engine, "chain")
    assert sink.collected
    assert report.mode == stats.mode == mode
    assert report.cycles == stats.cycles
    report.validate()  # busy+starved+stalled+idle == cycles, per module
    for profile in report.modules:
        assert profile.total == report.cycles


def test_profile_modes_agree_on_cycles_and_flits():
    """A profiled run is solved, not ticked, and its profile — timelines
    covering the whole run included — is what the dense loop shows."""
    engine, _sink = build_chain(25)
    solved, report = profile_engine_run(engine)
    assert report.mode == solved.mode == "maxplus"
    assert 0 < report.skip_ratio < 1
    assert report.cycles == solved.cycles
    for profile in report.modules:
        assert profile.flits_out == solved.flits_by_module[profile.name]
        assert profile.busy == solved.busy_by_module[profile.name]
    for spans in report.timelines.values():
        assert sum(s.cycles for s in spans) == report.cycles
    assert_same_profile(report, _oracle(build_chain(25)[0])[1])


def test_profile_queue_occupancy_covers_run():
    engine, _sink = build_chain(20)
    _stats, report = profile_engine_run(engine, name="q")
    for queue in report.queues:
        assert sum(queue.occupancy_counts) == report.cycles
        assert queue.total_pushed > 0
    assert report.bottleneck() == "src"


def test_profile_backpressure_counts_stalls():
    """One-slot queues: a flit every other cycle, so the source stalls
    on its queue every other cycle."""
    def build():
        engine = Engine(default_queue_capacity=1)
        source = engine.add_module(ListSource("src", item_flits(list(range(40)))))
        sink = engine.add_module(ListSink("sink"))
        engine.connect(source, sink)
        return engine

    _stats, report = profile_engine_run(build())
    report.validate()
    assert report.module("src").stalled == 39
    queue = report.queues[0]
    assert queue.full_stalls == 39
    assert queue.max_occupancy == 1
    assert_same_profile(report, _oracle(build())[1])


def test_profiler_memory_channels():
    profiler = Profiler(name="md")
    _results, stats, _load_cycles = MarkdupWaveDriver().run_wave(
        [(SOLO, qual_table([[3, 4], [5, 6]]))], probe=profiler
    )
    report = profiler.report()
    report.validate()
    assert report.cycles == stats.cycles
    assert report.memory.requests > 0
    assert sum(c.grants for c in report.memory.channels) == report.memory.requests
    assert len(report.memory.channels) == 4


@pytest.mark.parametrize("stage", tuple(STAGES))
def test_profile_stage_derives_what_dense_ticks(stage, monkeypatch):
    """``profile_stage`` — the Fig. 9 path and ``repro profile`` — solves
    its wave, and its profile is the dense oracle's."""
    derived = profile_stage(stage)
    assert derived.mode == "maxplus"
    monkeypatch.setattr(repro.obs, "Profiler", TickProfiler)
    assert_same_profile(derived, profile_stage(stage))


@pytest.mark.parametrize("change, complaint", [
    # a gap in a module's timeline
    (lambda r: r.timelines["mid"].pop(1), "do not tile"),
    # spans that end past the run
    (lambda r: setattr(r.timelines["src"][-1], "end", r.cycles + 1),
     "do not tile"),
    # span totals that disagree with the counters
    (lambda r: setattr(r.timelines["sink"][0], "state", "idle"),
     "spans and counters differ"),
    # an occupancy histogram that misses a cycle ...
    (lambda r: r.queues[0].occupancy_counts.append(1), "occupancy covers"),
    # ... or tops out somewhere else than max_occupancy
    (lambda r: setattr(r.queues[0], "max_occupancy", 2), "occupancy reaches"),
    # more full stalls on a module's outputs than it stalled
    (lambda r: setattr(r.queues[0], "full_stalls", 1), "full stalls"),
], ids=["gap", "overrun", "totals", "histogram", "max_occupancy", "full_stalls"])
def test_validate_catches_a_tampered_report(change, complaint):
    _stats, report = profile_engine_run(build_chain(12)[0])
    report.validate()
    assert report.module("src").stalled == 0
    assert report.queues[0].max_occupancy == 1
    change(report)
    with pytest.raises(ValueError, match=complaint):
        report.validate()


def test_report_render_mentions_modules():
    engine, _sink = build_chain(10)
    _stats, report = profile_engine_run(engine, name="demo")
    text = report.render()
    assert "demo" in text
    assert "src" in text and "mid" in text and "sink" in text
    assert "maxplus mode" in text


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
