"""Exporters: Chrome-trace JSON, flat JSON, and CSV.

Two consumers, two shapes:

* :func:`chrome_trace` renders a :class:`~repro.obs.profile.ProfileReport`
  as a Chrome trace-event JSON object (the ``chrome://tracing`` /
  Perfetto format): one track per module carrying its busy/stalled/
  starved spans as complete (``ph:"X"``) events, plus counter
  (``ph:"C"``) tracks for queue occupancy.  Timestamps are simulated
  *cycles* reported as microseconds — the viewer's units, not wall time.
* :func:`report_to_dict` / :func:`report_to_csv_rows` flatten the same
  report for machine consumption (``eval/experiments.py``, spreadsheet
  imports).
"""

from __future__ import annotations

import csv
import json
from typing import Dict, List, Tuple

from ..errors import refusing
from .profile import ProfileReport

#: Trace viewers color by event name; idle spans are omitted entirely so
#: gaps read as idle.
_TRACED_STATES = ("busy", "stalled", "starved")


def chrome_trace(report: ProfileReport) -> Dict[str, object]:
    """Render ``report`` as a ``chrome://tracing`` JSON object."""
    events: List[Dict[str, object]] = []
    pid = 0
    events.append({
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": f"repro sim: {report.name}"},
    })
    tid = 0
    for module_name in sorted(report.timelines):
        tid += 1
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": module_name},
        })
        events.append({
            "ph": "M", "name": "thread_sort_index", "pid": pid, "tid": tid,
            "args": {"sort_index": tid},
        })
        for span in report.timelines[module_name]:
            if span.state not in _TRACED_STATES:
                continue
            events.append({
                "ph": "X", "name": span.state, "cat": "module",
                "pid": pid, "tid": tid,
                "ts": span.start, "dur": span.cycles,
            })
    for queue_name in sorted(report.queue_points):
        points = report.queue_points[queue_name]
        track = f"queue {queue_name}"
        for cycle, occupancy in points:
            events.append({
                "ph": "C", "name": track, "pid": pid,
                "ts": cycle, "args": {"occupancy": occupancy},
            })
        if points:
            # Close the counter track at the end of the run.
            events.append({
                "ph": "C", "name": track, "pid": pid,
                "ts": report.cycles, "args": {"occupancy": 0},
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "cycles": report.cycles,
            "mode": report.mode,
            "time_unit": "1 ts = 1 simulated cycle",
        },
    }


def write_chrome_trace(report: ProfileReport, path: str) -> None:
    """Save the Chrome trace for ``report`` to ``path``."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(report), handle)


def report_to_dict(report: ProfileReport) -> Dict[str, object]:
    """Flatten ``report`` into a JSON-serializable dict."""
    return {
        "name": report.name,
        "cycles": report.cycles,
        "mode": report.mode,
        "wall_seconds": report.wall_seconds,
        "ticks_executed": report.ticks_executed,
        "ticks_possible": report.ticks_possible,
        "skip_ratio": report.skip_ratio,
        "modules": {
            m.name: {
                "kind": m.kind,
                "busy": m.busy,
                "starved": m.starved,
                "stalled": m.stalled,
                "idle": m.idle,
                "flits_out": m.flits_out,
                "utilization": m.utilization(report.cycles),
            }
            for m in report.modules
        },
        "queues": {
            q.name: {
                "capacity": q.capacity,
                "total_pushed": q.total_pushed,
                "max_occupancy": q.max_occupancy,
                "full_stalls": q.full_stalls,
                "mean_occupancy": q.mean_occupancy(),
                "occupancy_counts": list(q.occupancy_counts),
            }
            for q in report.queues
        },
        "memory": {
            "requests": report.memory.requests,
            "bytes_transferred": report.memory.bytes_transferred,
            "responses": report.memory.responses,
            "channels": {
                str(c.channel): {
                    "grants": c.grants,
                    "utilization": c.utilization(report.cycles),
                }
                for c in report.memory.channels
            },
        },
        "spms": dict(report.spms),
        "extra": dict(report.extra),
        "edges": {
            queue: {
                "producers": list(edge.get("producers", [])),
                "consumers": list(edge.get("consumers", [])),
            }
            for queue, edge in report.edges.items()
        },
    }


def report_from_dict(data: Dict[str, object]) -> ProfileReport:
    """Rebuild a :class:`ProfileReport` from its :func:`report_to_dict`
    shape (timeline spans and queue points are not exported, so the
    round-tripped report carries none) — this is how ``repro analyze``
    consumes a saved ``--out`` JSON.  Valid JSON of any other shape (not
    an object, a section that is not one) is an
    :class:`~repro.errors.InputError`."""
    with refusing("not a profile report", AttributeError, TypeError):
        return _rebuild_report(data)


def _rebuild_report(data: Dict[str, object]) -> ProfileReport:
    from .profile import (
        ChannelProfile,
        MemoryProfile,
        ModuleProfile,
        QueueProfile,
    )

    memory = data.get("memory", {})
    return ProfileReport(
        name=str(data.get("name", "run")),
        cycles=int(data.get("cycles", 0)),
        mode=str(data.get("mode", "event")),
        wall_seconds=float(data.get("wall_seconds", 0.0)),
        ticks_executed=int(data.get("ticks_executed", 0)),
        ticks_possible=int(data.get("ticks_possible", 0)),
        modules=[
            ModuleProfile(
                name=name,
                kind=str(entry.get("kind", "")),
                busy=int(entry.get("busy", 0)),
                starved=int(entry.get("starved", 0)),
                stalled=int(entry.get("stalled", 0)),
                idle=int(entry.get("idle", 0)),
                flits_out=int(entry.get("flits_out", 0)),
            )
            for name, entry in data.get("modules", {}).items()
        ],
        queues=[
            QueueProfile(
                name=name,
                capacity=int(entry.get("capacity", 0)),
                total_pushed=int(entry.get("total_pushed", 0)),
                max_occupancy=int(entry.get("max_occupancy", 0)),
                full_stalls=int(entry.get("full_stalls", 0)),
                occupancy_counts=[
                    int(count)
                    for count in entry.get("occupancy_counts", [])
                ],
            )
            for name, entry in data.get("queues", {}).items()
        ],
        memory=MemoryProfile(
            requests=int(memory.get("requests", 0)),
            bytes_transferred=int(memory.get("bytes_transferred", 0)),
            responses=int(memory.get("responses", 0)),
            channels=[
                ChannelProfile(channel=int(channel), grants=int(
                    entry.get("grants", 0)
                ))
                for channel, entry in memory.get("channels", {}).items()
            ],
        ),
        spms={
            name: dict(stats) for name, stats in data.get("spms", {}).items()
        },
        extra=dict(data.get("extra", {})),
        edges={
            queue: {
                "producers": list(edge.get("producers", [])),
                "consumers": list(edge.get("consumers", [])),
            }
            for queue, edge in data.get("edges", {}).items()
        },
    )


def write_report_json(report: ProfileReport, path: str) -> None:
    """Save the flat JSON form of ``report`` to ``path``."""
    with open(path, "w") as handle:
        json.dump(report_to_dict(report), handle, indent=2, default=str)


def report_to_csv_rows(report: ProfileReport) -> List[Tuple[str, str, str, object]]:
    """Flatten ``report`` into (section, name, metric, value) rows."""
    rows: List[Tuple[str, str, str, object]] = [
        ("run", report.name, "cycles", report.cycles),
        ("run", report.name, "mode", report.mode),
        ("run", report.name, "wall_seconds", report.wall_seconds),
        ("run", report.name, "skip_ratio", report.skip_ratio),
    ]
    for m in report.modules:
        for metric in ("busy", "starved", "stalled", "idle", "flits_out"):
            rows.append(("module", m.name, metric, getattr(m, metric)))
        rows.append(("module", m.name, "utilization",
                     m.utilization(report.cycles)))
    for q in report.queues:
        rows.append(("queue", q.name, "total_pushed", q.total_pushed))
        rows.append(("queue", q.name, "max_occupancy", q.max_occupancy))
        rows.append(("queue", q.name, "full_stalls", q.full_stalls))
        rows.append(("queue", q.name, "mean_occupancy", q.mean_occupancy()))
        # Histogram buckets round-trip through the CSV: one row per
        # occupancy value, ``occupancy[n]`` -> cycles observed at n.
        for occupancy, count in enumerate(q.occupancy_counts):
            rows.append(("queue", q.name, f"occupancy[{occupancy}]", count))
    rows.append(("memory", "total", "requests", report.memory.requests))
    rows.append(("memory", "total", "bytes", report.memory.bytes_transferred))
    for c in report.memory.channels:
        rows.append(("memory", f"channel{c.channel}", "grants", c.grants))
        rows.append(("memory", f"channel{c.channel}", "utilization",
                     c.utilization(report.cycles)))
    for name, stats in report.spms.items():
        rows.append(("spm", name, "reads", stats["reads"]))
        rows.append(("spm", name, "writes", stats["writes"]))
    for key, value in report.extra.items():
        rows.append(("extra", report.name, key, value))
    return rows


def write_report_csv(report: ProfileReport, path: str) -> None:
    """Save the CSV form of ``report`` to ``path``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("section", "name", "metric", "value"))
        writer.writerows(report_to_csv_rows(report))
