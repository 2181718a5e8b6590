"""Edge-case tests for the report exporters (repro.obs.export):
empty reports, all-idle modules, histogram-bucket round-trips, and
JSON that is not a report."""

import csv
import json
import pathlib

import pytest

from repro.hw.engine import Engine
from repro.obs.analyze import analyze_report
from repro.obs.export import (
    chrome_trace,
    report_from_dict,
    report_to_csv_rows,
    report_to_dict,
    write_report_csv,
)
from repro.obs.profile import (
    MemoryProfile,
    ModuleProfile,
    ProfileReport,
    Profiler,
    QueueProfile,
)

from hw_harness import ListSink, ListSource

DATA = pathlib.Path(__file__).parent / "data"


def _empty_report():
    return ProfileReport(
        name="empty", cycles=0, mode="dense", wall_seconds=0.0,
        ticks_executed=0, ticks_possible=0,
        modules=[], queues=[],
        memory=MemoryProfile(requests=0, bytes_transferred=0, responses=0),
    )


def _all_idle_report(cycles=50):
    modules = [
        ModuleProfile(
            name=name, kind="M", busy=0, starved=0, stalled=0,
            idle=cycles, flits_out=0,
        )
        for name in ("a", "b")
    ]
    return ProfileReport(
        name="idle", cycles=cycles, mode="dense", wall_seconds=0.0,
        ticks_executed=0, ticks_possible=2 * cycles,
        modules=modules,
        queues=[QueueProfile("a->b", 8, 0, 0, 0)],
        memory=MemoryProfile(requests=0, bytes_transferred=0, responses=0),
    )


class TestEmptyReport:
    def test_to_dict(self):
        data = report_to_dict(_empty_report())
        assert data["modules"] == {}
        assert data["queues"] == {}
        assert data["cycles"] == 0
        assert data["skip_ratio"] == 0.0
        json.dumps(data)  # must be serializable

    def test_round_trip(self):
        rebuilt = report_from_dict(report_to_dict(_empty_report()))
        assert rebuilt.modules == []
        assert rebuilt.queues == []
        assert rebuilt.bottleneck() is None
        rebuilt.validate()

    def test_csv_rows(self):
        rows = report_to_csv_rows(_empty_report())
        assert ("run", "empty", "cycles", 0) in rows
        assert not [row for row in rows if row[0] == "module"]

    def test_chrome_trace(self):
        trace = chrome_trace(_empty_report())
        assert trace["otherData"]["cycles"] == 0
        # Only the process-name metadata event remains.
        assert all(event["ph"] == "M" for event in trace["traceEvents"])

    def test_render(self):
        assert "0 cycles" in _empty_report().render()


class TestAllIdleReport:
    def test_invariant_holds(self):
        report = _all_idle_report()
        report.validate()
        data = report_to_dict(report)
        for entry in data["modules"].values():
            assert entry["utilization"] == 0.0
            assert entry["idle"] == 50

    def test_round_trip_preserves_idle(self):
        rebuilt = report_from_dict(report_to_dict(_all_idle_report()))
        rebuilt.validate()
        assert all(m.idle == 50 and m.busy == 0 for m in rebuilt.modules)


class TestHistogramBuckets:
    def _profiled_report(self):
        from repro.hw.flit import Flit

        engine = Engine(default_queue_capacity=4)
        source = engine.add_module(
            ListSource("src", [Flit({"value": i}) for i in range(12)])
        )
        sink = engine.add_module(ListSink("sink"))
        engine.connect(source, sink)
        profiler = Profiler().attach(engine)
        engine.run()
        return profiler.report()

    def test_csv_carries_occupancy_buckets(self):
        report = self._profiled_report()
        queue = report.queues[0]
        assert queue.occupancy_counts, "profiler recorded no histogram"
        rows = report_to_csv_rows(report)
        bucket_rows = {
            row[2]: row[3]
            for row in rows
            if row[0] == "queue" and row[2].startswith("occupancy[")
        }
        for occupancy, count in enumerate(queue.occupancy_counts):
            assert bucket_rows[f"occupancy[{occupancy}]"] == count

    def test_csv_buckets_round_trip_through_file(self, tmp_path):
        report = self._profiled_report()
        path = tmp_path / "report.csv"
        write_report_csv(report, str(path))
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        queue = report.queues[0]
        recovered = [0] * len(queue.occupancy_counts)
        for row in rows:
            if row["section"] == "queue" and row["metric"].startswith(
                "occupancy["
            ):
                index = int(row["metric"][len("occupancy["):-1])
                recovered[index] = int(row["value"])
        assert recovered == list(queue.occupancy_counts)
        # The buckets integrate to the profiled window.
        assert sum(recovered) == report.cycles

    def test_json_round_trip_preserves_buckets(self):
        # A fresh report, and one saved before the event scheduler was
        # retired ("mode": "event", with a fast-forward count).
        saved = json.loads((DATA / "event_mode_profile.json").read_text())
        for data in (report_to_dict(self._profiled_report()), saved):
            rebuilt = report_from_dict(data)
            again = report_from_dict(report_to_dict(rebuilt))
            for queue, entry in zip(again.queues, data["queues"].values()):
                assert queue.occupancy_counts == entry["occupancy_counts"]
                assert queue.mean_occupancy() == entry["mean_occupancy"]
            assert analyze_report(again).render() == (
                analyze_report(rebuilt).render()
            )
        # ... and the saved one still analyzes as it did when written.
        expected = (DATA / "event_mode_profile.analyze.txt").read_text()
        assert analyze_report(rebuilt).render() + "\n" == expected

    def test_empty_buckets_emit_no_rows(self):
        report = _all_idle_report()
        rows = report_to_csv_rows(report)
        assert not [r for r in rows if r[2].startswith("occupancy[")]


@pytest.mark.parametrize(
    "data",
    [
        [],
        "report",
        {"modules": 3},
        {"modules": {"m": []}},
        {"memory": []},
        {"memory": {"channels": {"0": 1}}},
        {"cycles": None},
    ],
)
def test_wrong_shaped_json_is_a_value_error(data):
    """``report_from_dict`` is the boundary ``repro analyze`` feeds
    user files through: anything but a report is one typed refusal."""
    with pytest.raises(ValueError, match="not a profile report"):
        report_from_dict(data)
