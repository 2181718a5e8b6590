"""``WaveTimeline`` — the one record of a wave's modelled life — and the
lane tiler that lays it out (repro.obs.spans)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.analyze import CRITICAL_PATH_CATEGORIES
from repro.obs.spans import (
    SPAN_CATEGORIES,
    WAVE_SEGMENTS,
    SpanRecorder,
    WaveTimeline,
)

CYCLES = st.integers(0, 10**7)
TIMELINES = st.builds(
    WaveTimeline, start=CYCLES, penalty=CYCLES, transfer=CYCLES,
    load=CYCLES, kernel=CYCLES,
)


def test_one_vocabulary():
    order = list(WAVE_SEGMENTS)
    assert order == ["fault_penalty", "transfer", "spm_load", "kernel"]
    assert CRITICAL_PATH_CATEGORIES == ("queue_wait", *order, "drain")
    assert set(order) <= set(SPAN_CATEGORIES)


@given(TIMELINES)
def test_segments_tile_the_wave_in_canonical_order(timeline):
    segments = list(timeline.segments())
    cats = [cat for cat, _lo, _hi in segments]
    assert cats == [cat for cat in WAVE_SEGMENTS if cat in cats]
    assert "kernel" in cats
    cursor = timeline.start
    for _cat, lo, hi in segments:
        assert lo == cursor and hi >= lo
        cursor = hi
    assert cursor == timeline.end
    lengths = {cat: hi - lo for cat, lo, hi in segments}
    for cat, cycles in zip(WAVE_SEGMENTS, (
        timeline.penalty, timeline.transfer, timeline.load, timeline.kernel,
    )):
        # a phase is skipped exactly when it is empty
        assert lengths.get(cat, 0) == cycles


@given(TIMELINES)
def test_round_trips_through_the_wave_done_record(timeline):
    record = timeline.to_record()
    assert set(record) == {
        "cycles", "load_cycles", "end_cycles", "start_cycles",
        "transfer_cycles", "penalty_cycles",
    }
    assert WaveTimeline.from_record(record) == timeline
    # the event's other fields ride along untouched
    assert WaveTimeline.from_record({**record, "job": 3}) == timeline


@given(end=CYCLES, load=CYCLES, kernel=CYCLES)
def test_old_format_record_reconstructs_the_tail(end, load, kernel):
    """Ledgers written before the start/transfer/penalty fields carry
    only the tail; it comes back as load → kernel ending at ``end``."""
    old = {"cycles": kernel, "load_cycles": load, "end_cycles": end}
    timeline = WaveTimeline.from_record(old)
    assert timeline == WaveTimeline(
        end - kernel - load, load=load, kernel=kernel
    )
    assert timeline.end == end
    new = timeline.to_record()
    assert {key: new[key] for key in old} == old


def test_unexplained_cycles_before_end_count_as_kernel():
    record = WaveTimeline(100, 5, 10, 20, 30).to_record()
    record["end_cycles"] += 7
    assert WaveTimeline.from_record(record).kernel == 37


def test_tiler_lays_spans_end_to_end():
    recorder = SpanRecorder()
    parent = recorder.reserve()
    cursor = 40
    for name, length in (("a", 10), ("b", 0), ("c", 5)):
        cursor = recorder.lay(
            cursor, name, "transfer", length,
            trace_id="t", lane="pcie:0", parent_id=parent, wave=1,
        )
    assert cursor == 55
    assert [(s.name, s.start, s.end) for s in recorder.spans] == [
        ("a", 40, 50), ("b", 50, 50), ("c", 50, 55),
    ]
    assert {(s.lane, s.parent_id, s.attrs["wave"]) for s in recorder.spans} == {
        ("pcie:0", parent, 1)
    }


def test_lay_wave_names_and_tiles_the_segments():
    recorder = SpanRecorder()
    timeline = WaveTimeline(100, penalty=0, transfer=8, load=0, kernel=30)
    end = recorder.lay_wave(timeline, trace_id="t", lane="device:0")
    assert end == timeline.end == 138
    assert [(s.name, s.cat, s.start, s.end) for s in recorder.spans] == [
        ("h2d", "transfer", 100, 108), ("kernel", "kernel", 108, 138),
    ]
    # disabled recorders still advance the cursor
    assert SpanRecorder(enabled=False).lay(3, "x", "kernel", 4, trace_id="t") == 7
