"""``WaveTimeline`` — the one record of a wave's modelled life
(repro.obs.spans)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.analyze import CRITICAL_PATH_CATEGORIES
from repro.obs.spans import WAVE_SEGMENTS, WaveTimeline

CYCLES = st.integers(0, 10**7)
TIMELINES = st.builds(
    WaveTimeline, start=CYCLES, penalty=CYCLES, transfer=CYCLES,
    load=CYCLES, kernel=CYCLES,
)


def test_one_vocabulary():
    order = list(WAVE_SEGMENTS)
    assert order == ["fault_penalty", "transfer", "spm_load", "kernel"]
    assert CRITICAL_PATH_CATEGORIES == ("queue_wait", *order, "drain")


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
