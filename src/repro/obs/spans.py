"""Fleet-wide distributed tracing: trace-context spans over the virtual
clock.

The profiler's :class:`~repro.obs.timeline.TimelineRecorder` answers
"what was module X doing at cycle C" *inside one engine run*; this
module answers the fleet question: where did one tenant's job spend its
cycles across dispatch, PCIe transfer, SPM load, kernel execution,
fault backoff, and drain — across N devices and through a drain/resume
restart.

The pieces:

* :class:`TraceSpan` — one interval on a *lane* (``service``,
  ``device:N``, ``pcie:N``, ``sql``) carrying the trace context
  (``trace_id``/``span_id``/``parent_id``), the owning tenant, and
  free-form attributes.  Starts and ends are **virtual cycles** for
  everything the deterministic clock covers (service, devices, PCIe)
  and host microseconds on the ``sql`` lane — each lane renders as its
  own process, so units never mix on one track.
* :class:`SpanRecorder` — the collector.  Recording is parent-side
  only (worker processes never see a recorder), span ids are
  sequential integers (no uuids — traces of identical runs are
  byte-identical), and a recorder created with ``enabled=False`` is a
  null object whose ``record`` is a constant-time no-op, mirroring
  :class:`~repro.obs.registry.MetricsRegistry`'s disabled path.
* the **ambient recorder** — :func:`tracing` installs a recorder the
  way :func:`~repro.obs.ledger.run_context` installs a ledger;
  instrumented code deep in the stack (``run_partitioned``,
  ``run_sharded``, the SQL executor) fetches it with
  :func:`active_spans` and pays one attribute check when tracing is
  off.  The :class:`~repro.serve.service.JobService` owns its recorder
  explicitly instead, so a served run always yields a fleet trace.
* :func:`fleet_chrome_trace` — the merged ``chrome://tracing`` export:
  one process lane per device (plus the service lane, PCIe lanes, and
  the SQL lane), one thread track per tenant within a lane, tenants
  colored consistently across the whole trace.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

#: The anatomy of one wave on the modelled clock, in canonical order:
#: span category -> the name its child span carries.
WAVE_SEGMENTS = {
    "fault_penalty": "backoff",
    "transfer": "h2d",
    "spm_load": "spm_load",
    "kernel": "kernel",
}

#: Critical-path categories a span can carry in ``cat`` (the analyzer's
#: vocabulary; exports accept any category).
SPAN_CATEGORIES = (
    "job", "wave", "queue_wait", *WAVE_SEGMENTS,
    "drain", "fault", "run", "sql", "aborted",
)


@dataclass(frozen=True)
class WaveTimeline:
    """One wave's life on the modelled clock, in cycles: fault penalty,
    H2D transfer, SPM load and kernel back to back from ``start`` (the
    paper's blocking ``configure_mem`` DMA → ``run_genesis`` → ``wait``,
    §III-E).  Every layer that charges, traces or analyzes a wave shares
    this record."""

    start: int
    penalty: int = 0
    transfer: int = 0
    load: int = 0
    kernel: int = 0

    @property
    def end(self) -> int:
        return (
            self.start + self.penalty + self.transfer + self.load
            + self.kernel
        )

    def segments(self) -> Iterator[Tuple[str, int, int]]:
        """``(category, lo, hi)`` tiling ``[start, end]`` in canonical
        order; phases the wave did not have (zero cycles) are skipped,
        the kernel always appears."""
        cursor = self.start
        for category, cycles in zip(WAVE_SEGMENTS, (
            self.penalty, self.transfer, self.load, self.kernel,
        )):
            if cycles > 0 or category == "kernel":
                yield category, cursor, cursor + cycles
                cursor += cycles

    def to_record(self) -> Dict[str, int]:
        """The ``serve.wave.done`` fields this timeline is ledgered as."""
        return dict(
            cycles=self.kernel, load_cycles=self.load,
            end_cycles=self.end, start_cycles=self.start,
            transfer_cycles=self.transfer, penalty_cycles=self.penalty,
        )

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "WaveTimeline":
        """Rebuild from a ``serve.wave.done`` record.  An old-format one
        (no ``start_cycles``) yields the wave's tail, load → kernel
        ending at ``end_cycles``; cycles a record leaves unexplained
        before its ``end_cycles`` count as kernel."""
        end = int(record.get("end_cycles", 0))
        kernel = int(record.get("cycles", 0))
        load = int(record.get("load_cycles", 0))
        if "start_cycles" not in record:
            return cls(end - kernel - load, load=load, kernel=kernel)
        start = int(record["start_cycles"])
        penalty = int(record.get("penalty_cycles", 0))
        transfer = int(record.get("transfer_cycles", 0))
        slack = end - start - penalty - transfer - load
        return cls(start, penalty, transfer, load, max(kernel, slack))


#: chrome://tracing reserved color names, cycled per tenant so one
#: tenant's job tracks look alike on every lane.
_TENANT_COLORS = (
    "thread_state_running",
    "rail_response",
    "rail_animation",
    "rail_idle",
    "rail_load",
    "cq_build_running",
    "cq_build_passed",
    "cq_build_failed",
)


@dataclass
class TraceSpan:
    """One traced interval: ``[start, end]`` on ``lane``, linked into a
    trace by ``trace_id``/``parent_id``.  Zero-length spans (markers:
    retries, drain points) are legal and export with ``dur == 0``."""

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    cat: str
    start: float
    end: float
    lane: str = "service"
    tenant: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "cat": self.cat,
            "start": self.start,
            "end": self.end,
            "lane": self.lane,
            "tenant": self.tenant,
            "attrs": dict(self.attrs),
        }


class SpanRecorder:
    """Collects :class:`TraceSpan` instances with deterministic ids.

    Span ids are handed out by an :func:`itertools.count`, so two
    identical runs produce identical traces.
    A disabled recorder records nothing and hands out id ``0``.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[TraceSpan] = []
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)

    def reserve(self) -> int:
        """Allocate a span id without recording yet — lets a parent span
        (a job) hand its id to children recorded before it completes.
        Returns 0 when disabled."""
        if not self.enabled:
            return 0
        return next(self._ids)

    def new_trace(self, prefix: str) -> str:
        """A fresh deterministic trace id (``prefix-N``)."""
        return f"{prefix}-{next(self._traces)}"

    def record(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        trace_id: str,
        parent_id: Optional[int] = None,
        lane: str = "service",
        tenant: Optional[str] = None,
        span_id: Optional[int] = None,
        **attrs: object,
    ) -> int:
        """Record one span; returns its id (0 when disabled).

        Pass ``span_id`` to materialize a previously :meth:`reserve`-d
        id; otherwise the next sequential id is used.
        """
        if not self.enabled:
            return 0
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        sid = span_id if span_id is not None else next(self._ids)
        self.spans.append(TraceSpan(
            trace_id=trace_id, span_id=sid, parent_id=parent_id,
            name=name, cat=cat, start=start, end=end,
            lane=lane, tenant=tenant, attrs=attrs,
        ))
        return sid

    def lay(
        self, cursor: float, name: str, cat: str, length: float,
        **common: object,
    ) -> float:
        """The lane tiler: record a span of ``length`` at ``cursor``
        (``common`` being :meth:`record`'s keywords) and return the
        cursor past it, so consecutive calls lay spans end to end."""
        self.record(name, cat, cursor, cursor + length, **common)
        return cursor + length

    def lay_wave(self, timeline: WaveTimeline, **common: object) -> int:
        """Lay a wave's segments as spans; returns the cursor past it."""
        for cat, lo, hi in timeline.segments():
            self.record(WAVE_SEGMENTS[cat], cat, lo, hi, **common)
        return timeline.end

    def merge(self, other: "SpanRecorder") -> None:
        """Adopt another recorder's spans (trace ids keep the records
        apart; span ids are only unique within one recorder)."""
        self.spans.extend(other.spans)

    def by_lane(self) -> Dict[str, List[TraceSpan]]:
        lanes: Dict[str, List[TraceSpan]] = {}
        for span in self.spans:
            lanes.setdefault(span.lane, []).append(span)
        return lanes

    def __len__(self) -> int:
        return len(self.spans)


#: The shared disabled recorder instrumented code falls back to.
NULL_SPANS = SpanRecorder(enabled=False)


# -- the ambient recorder ------------------------------------------------------------

_active_recorder: Optional[SpanRecorder] = None


def active_spans() -> SpanRecorder:
    """The ambient recorder, or the shared null one outside any
    :func:`tracing` context."""
    recorder = _active_recorder
    return recorder if recorder is not None else NULL_SPANS


@contextmanager
def tracing(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install ``recorder`` as the ambient span target, restoring the
    previous one on exit."""
    global _active_recorder
    previous = _active_recorder
    _active_recorder = recorder
    try:
        yield recorder
    finally:
        _active_recorder = previous


# -- the merged chrome://tracing export ----------------------------------------------


def _lane_sort_key(lane: str) -> Tuple[int, int, str]:
    """Service lane first, then devices by index, PCIe lanes, SQL."""
    if lane == "service":
        return (0, 0, lane)
    for rank, prefix in ((1, "device:"), (2, "pcie:")):
        if lane.startswith(prefix):
            suffix = lane[len(prefix):]
            index = int(suffix) if suffix.isdigit() else 0
            return (rank, index, lane)
    if lane == "sql":
        return (3, 0, lane)
    return (4, 0, lane)


def tenant_colors(spans: Iterable[TraceSpan]) -> Dict[str, str]:
    """A stable tenant -> chrome color-name assignment (sorted tenants
    cycle the palette), shared by every lane of one export."""
    tenants = sorted({
        span.tenant for span in spans if span.tenant is not None
    })
    return {
        tenant: _TENANT_COLORS[index % len(_TENANT_COLORS)]
        for index, tenant in enumerate(tenants)
    }


def fleet_chrome_trace(
    spans: Iterable[TraceSpan], name: str = "fleet"
) -> Dict[str, object]:
    """Render spans as one merged ``chrome://tracing`` JSON object.

    One *process* per lane (``pid``), one *thread* per tenant within a
    lane (``tid``), tenant-colored ``X`` events.  Timestamps are the
    spans' virtual cycles reported as microseconds — the viewer's unit,
    not wall time (the ``sql`` lane alone is real host microseconds).
    """
    spans = list(spans)
    colors = tenant_colors(spans)
    lanes = sorted({span.lane for span in spans}, key=_lane_sort_key)
    events: List[Dict[str, object]] = []
    for pid, lane in enumerate(lanes):
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": lane},
        })
        events.append({
            "ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
            "args": {"sort_index": pid},
        })
        lane_spans = [span for span in spans if span.lane == lane]
        tracks = sorted(
            {span.tenant for span in lane_spans},
            key=lambda tenant: (tenant is not None, tenant),
        )
        tids = {tenant: tid for tid, tenant in enumerate(tracks)}
        for tenant, tid in tids.items():
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {
                    "name": (
                        f"tenant {tenant}" if tenant is not None else "events"
                    )
                },
            })
        for span in lane_spans:
            event: Dict[str, object] = {
                "ph": "X", "name": span.name, "cat": span.cat,
                "pid": pid, "tid": tids[span.tenant],
                "ts": span.start, "dur": span.duration,
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.attrs,
                },
            }
            if span.tenant is not None:
                event["cname"] = colors[span.tenant]
                event["args"]["tenant"] = span.tenant
            events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "name": name,
            "lanes": lanes,
            "spans": len(spans),
            "tenants": sorted(colors),
            "time_unit": "simulated cycles as microseconds "
                         "(sql lane: host microseconds)",
        },
    }


def write_fleet_trace(
    spans: Iterable[TraceSpan], path: str, name: str = "fleet"
) -> None:
    """Write :func:`fleet_chrome_trace` to ``path``."""
    with open(path, "w") as handle:
        json.dump(fleet_chrome_trace(spans, name=name), handle, indent=1)
        handle.write("\n")
