"""Fleet-wide distributed tracing: trace-context spans over the virtual
clock, folded from the run ledger.

A :class:`~repro.obs.profile.ProfileReport`'s timelines answer "what
was module X doing at cycle C" *inside one engine run*; this
module answers the fleet question: where did one tenant's job spend its
cycles across dispatch, PCIe transfer, SPM load, kernel execution,
fault backoff, and drain — across N devices and through a drain/resume
restart.

Nothing is recorded while a run executes.  A run writes its ledger
events (DESIGN.md §3.4) and the trace is a pure function of them:

* :class:`TraceSpan` — one interval on a *lane* (``service``,
  ``device:N``, ``storage:N``) in **virtual cycles**,
  carrying the trace context (``trace_id``/``span_id``/``parent_id``),
  the owning tenant, and free-form attributes.
* :class:`WaveTimeline` — the one anatomy of a wave on the modelled
  clock: a card's charge returns it
  (:meth:`~repro.runtime.device.DevicePool.charge_wave`), a direct or
  served wave's record ledgers it, the fold and the critical-path
  analyzer read it back.
* :func:`trace_spans` — the one interval builder: a single in-order
  fold over ``(event, fields)`` pairs that lays every lane.  ``repro
  serve --trace`` and ``repro analyze --critical-path`` both read its
  spans, so the trace and the critical path cannot disagree; a direct
  run is traced by folding the ledger its ``run_context`` wrote.
* :func:`fleet_chrome_trace` — the merged ``chrome://tracing`` export:
  one process lane per device (plus the service and storage lanes),
  one thread track per tenant within a lane, tenants colored
  consistently across the whole trace.
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass, field
from typing import (
    ContextManager,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..constants import CLOCK_HZ
from ..errors import InputError, refusing


def fields_of(event: str) -> ContextManager[None]:
    """Read the fields of ``event`` records: one of the wrong JSON type
    (``"device": [0]`` — a ``TypeError``) or value (``"waves": "x"`` — a
    ``ValueError``; ``"cycles": Infinity`` — an ``OverflowError``)
    becomes one :class:`~repro.errors.InputError` naming the event, the
    CLI's exit-code-2 refusal rather than a traceback."""
    return refusing(
        f"ledger has a malformed {event} event",
        TypeError, ValueError, OverflowError,
    )


#: The anatomy of one wave on the modelled clock, in canonical order:
#: span category -> the name its child span carries.
WAVE_SEGMENTS = {
    "fault_penalty": "backoff",
    "transfer": "h2d",
    "spm_load": "spm_load",
    "kernel": "kernel",
}


@dataclass(frozen=True)
class WaveTimeline:
    """One wave's life on the modelled clock, in cycles: fault penalty,
    H2D transfer, SPM load and kernel back to back from ``start`` (the
    paper's blocking ``configure_mem`` DMA → ``run_genesis`` → ``wait``,
    §III-E).  A card's charge builds it
    (:meth:`~repro.runtime.device.DevicePool.charge_wave`); every layer
    that ledgers, traces or analyzes a wave shares this record."""

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
        """The ``serve.wave.done`` / ``scheduler.wave`` fields this
        timeline is ledgered as."""
        return dict(
            cycles=self.kernel, load_cycles=self.load,
            end_cycles=self.end, start_cycles=self.start,
            transfer_cycles=self.transfer, penalty_cycles=self.penalty,
        )

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "WaveTimeline":
        """Rebuild from a wave's record.  An old-format one
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


@dataclass
class _Job:
    """What the fold remembers of an admitted job."""

    #: Span id reserved for the job's root at admission, so wave and
    #: fault children can parent to it while the job is still open.
    root: int
    arrival: int
    stage: str


class _Fold:
    """The state of one :func:`trace_spans` pass; one method per traced
    event (:data:`TRACED_EVENTS`), each reading only its event's fields
    and what earlier events left here."""

    def __init__(self, clock_hz: float):
        self.clock_hz = clock_hz
        self.spans: List[TraceSpan] = []
        self._ids = itertools.count(1)
        self.jobs: Dict[int, _Job] = {}
        #: device -> what ``serve.dispatch`` / ``storage.wave`` said of
        #: the wave about to be laid on it.
        self.inflight: Dict[int, Dict[str, object]] = {}
        #: (stage, wave) -> the ``fault.retry`` records of a direct wave
        #: not laid yet.
        self.retries: Dict[Tuple[str, int], List[Mapping[str, object]]] = {}

    # -- laying spans ----------------------------------------------------------

    def span(
        self, name: str, cat: str, start: float, end: float, trace_id: str,
        parent_id: Optional[int] = None, lane: str = "service",
        tenant: Optional[str] = None, span_id: Optional[int] = None,
        **attrs: object,
    ) -> int:
        """Lay one span; returns its id (the next sequential one unless
        ``span_id`` materializes a reserved id).  Its bounds must be
        cycle counts: what a ledger field put there is compared later."""
        for bound in (start, end):
            if not isinstance(bound, numbers.Real):
                raise TypeError(f"{name} bound {bound!r} is not a cycle count")
        sid = span_id if span_id is not None else next(self._ids)
        self.spans.append(TraceSpan(
            trace_id, sid, parent_id, name, cat, start, end, lane, tenant,
            attrs,
        ))
        return sid

    def wave(
        self, name: str, timeline: WaveTimeline, parent_id: Optional[int],
        attrs: Mapping[str, object], **common: object,
    ) -> int:
        """Lay one wave on its card's lane, ``device:<common["device"]>``:
        the wave span (``common`` and ``attrs``), its segments as the
        children tiling it, and, when a ``storage.wave`` preceded it,
        its in-SSD scan (``scan:`` and the wave's name past its stage)
        beside it; returns the wave span's id.  The scan overlaps the
        wave's start (it ran while the previous wave's DMA held the
        link), so it lives on its own ``storage:N`` lane and never
        stretches the wave's duration."""
        device = common["device"]
        lane = f"device:{device}"
        parent = self.span(
            name, "wave", timeline.start, timeline.end, parent_id=parent_id,
            lane=lane, **common, **attrs,
        )
        for cat, lo, hi in timeline.segments():
            self.span(
                WAVE_SEGMENTS[cat], cat, lo, hi, parent_id=parent, lane=lane,
                **common,
            )
        stored = self.inflight.pop(device, {}).get("stored")
        if stored is not None:
            self.span(
                "scan:" + name.partition(":")[2], "filter", timeline.start,
                timeline.start + self.cycles(stored["scan_seconds"]),
                parent_id=parent, lane=f"storage:{device}", **common,
                pruned_rows=stored["pruned_rows"],
                saved_nbytes=stored["raw_nbytes"] - stored["nbytes"],
            )
        return parent

    def cycles(self, seconds: float) -> int:
        return int(round(seconds * self.clock_hz))

    # -- served runs: service, device:N and storage:N lanes -------------------

    def serve_admit(self, f):
        self.jobs[f["job"]] = _Job(next(self._ids), f["clock"], f["stage"])

    def job(self, f) -> _Job:
        try:
            return self.jobs[f["job"]]
        except KeyError:
            raise KeyError(f"serve.admit of job {f.get('job')}") from None

    def serve_dispatch(self, f):
        self.inflight[f["device"]] = {
            "cost_rows": f["cost_rows"],
            # the job's wave, to know its records by
            "wave": (f.get("job"), f.get("wave")),
        }

    def serve_retry(self, f):
        if "clock" not in f:
            return  # a ledger that predates the field cannot place the marker
        self.span(
            f"fault:{f['kind']}", "fault", f["clock"], f["clock"],
            trace_id=f"job-{f['job']}", parent_id=self.job(f).root,
            tenant=f["tenant"], job=f["job"], wave=f["wave"],
            attempt=f["attempt"], kind=f["kind"],
            backoff_seconds=f["backoff_seconds"],
        )

    def serve_wave_done(self, f):
        job = self.job(f)
        cost_rows = self.inflight[f["device"]]["cost_rows"]
        self.wave(
            f"{job.stage}:j{f['job']}:w{f['wave']}",
            WaveTimeline.from_record(f), job.root,
            dict(attempt=f["attempt"], cost_rows=cost_rows),
            trace_id=f"job-{f['job']}", tenant=f["tenant"], job=f["job"],
            wave=f["wave"], device=f["device"],
        )

    def serve_wave_aborted(self, f):
        # The wave's work up to the drain point still occupied the
        # device: an aborted span cut at the drain clock (it re-runs in
        # full after resume).
        job = self.job(f)
        self.inflight.pop(f["device"], None)
        self.span(
            f"{job.stage}:j{f['job']}:w{f['wave']}", "aborted",
            f["start_cycles"], f["clock"], trace_id=f"job-{f['job']}",
            parent_id=job.root, lane=f"device:{f['device']}",
            tenant=f["tenant"], job=f["job"], wave=f["wave"],
            device=f["device"], drained=True,
        )

    def serve_job_done(self, f):
        job = self.job(f)
        self.span(
            f"job:{f['job']}", "job", job.arrival, f["clock"],
            trace_id=f"job-{f['job']}", span_id=job.root,
            tenant=f["tenant"], job=f["job"], stage=f["stage"],
            state="completed", latency_cycles=f["latency_cycles"],
            queue_cycles=f["queue_cycles"],
        )

    def serve_job_failed(self, f):
        job = self.job(f)
        for device, wave in list(self.inflight.items()):
            if wave.get("wave") == (f["job"], f["wave"]):
                del self.inflight[device]  # a failed wave is never laid
        self.span(
            f"job:{f['job']}", "job", job.arrival, f["clock"],
            trace_id=f"job-{f['job']}", span_id=job.root,
            tenant=f["tenant"], job=f["job"], stage=f["stage"],
            state="failed", failed_wave=f["wave"],
        )

    def serve_drain(self, f):
        self.span(
            "drain", "drain", f["clock"], f["clock"], trace_id="service",
            requeued=f["requeued"],
        )

    def serve_resume(self, f):
        self.span(
            "resume", "drain", f["clock"], f["clock"], trace_id="service",
            open_jobs=f["open_jobs"],
        )

    # -- direct runs: device:N and storage:N lanes ----------------------------

    def scheduler_wave(self, f):
        """Lay a direct wave where its card's charge put it, with a
        zero-length marker at its start per ``fault.retry`` of the wave,
        in attempt order (the order they are ledgered), carrying that
        attempt's kind and backoff.  A record without ``start_cycles``
        (a ledger from before direct waves were charged) is refused."""
        stage, index, device = f["stage"], f["wave"], f["device"]
        if "start_cycles" not in f:
            raise KeyError("start_cycles")
        timeline = WaveTimeline.from_record(f)
        common = dict(
            trace_id=f"run-{stage}-d{device}", wave=index, device=device
        )
        parent = self.wave(
            f"{stage}:w{index}", timeline, None,
            dict(replicas=f["replicas"], nbytes=f["nbytes"]), **common,
        )
        for retry in self.retries.pop((stage, index), ()):
            self.span(
                f"fault:{retry['kind']}", "fault", timeline.start,
                timeline.start, parent_id=parent, lane=f"device:{device}",
                attempt=retry["attempt"], kind=retry["kind"],
                backoff_seconds=retry["backoff_seconds"], **common,
            )

    def fault_retry(self, f):
        # held until its wave is laid; an older ledger's card retry
        # names no wave and lays no marker
        if "wave" in f:
            self.retries.setdefault((f["stage"], f["wave"]), []).append(f)

    def storage_wave(self, f):
        # laid beside its wave, when that is
        self.inflight.setdefault(f["device"], {})["stored"] = f


#: Every event the fold matches -> the step that consumes it.  DESIGN.md
#: §3.9 tabulates what each lays (``tools/check_docs.py`` holds the two
#: in step).
TRACED_EVENTS = {
    "serve.admit": _Fold.serve_admit,
    "serve.dispatch": _Fold.serve_dispatch,
    "serve.retry": _Fold.serve_retry,
    "serve.wave.done": _Fold.serve_wave_done,
    "serve.wave.aborted": _Fold.serve_wave_aborted,
    "serve.job.done": _Fold.serve_job_done,
    "serve.job.failed": _Fold.serve_job_failed,
    "serve.drain": _Fold.serve_drain,
    "serve.resume": _Fold.serve_resume,
    "scheduler.wave": _Fold.scheduler_wave,
    "fault.retry": _Fold.fault_retry,
    "storage.wave": _Fold.storage_wave,
}


def trace_spans(
    events: Iterable[Tuple[str, Mapping[str, object]]],
    clock_hz: float = CLOCK_HZ,
) -> List[TraceSpan]:
    """The trace of a run, as a pure function of its ledger.

    One in-order pass over ``(event, fields)`` pairs — what
    :attr:`~repro.serve.service.JobService.events` mirrors, or a
    :class:`~repro.obs.ledger.RunLedger`'s records of one run as
    ``(record["event"], record)`` — laying every span with sequential
    integer ids (no uuids, no wall clock: identical runs trace
    byte-identically).  A job's root id is reserved at ``serve.admit``
    and materialized when the job completes or fails; waves are tiled by
    :meth:`WaveTimeline.segments`.  ``clock_hz`` converts the one figure
    ledgered in seconds, the in-SSD scan time.  Raises
    :class:`~repro.errors.InputError` when a traced event lacks a field
    the fold needs (an older or hand-trimmed ledger) or holds one of the
    wrong type.
    """
    fold = _Fold(clock_hz)
    for event, fields in events:
        step = TRACED_EVENTS.get(event)
        if step is None:
            continue
        try:
            with fields_of(event):
                step(fold, fields)
        except KeyError as missing:
            raise InputError(
                f"cannot trace {event}: no {missing} to go by (a ledger "
                "from an older build, or one cut short?)"
            ) from missing
    return fold.spans


# -- the merged chrome://tracing export ----------------------------------------------


def _lane_sort_key(lane: str) -> Tuple[int, int, str]:
    """Service lane first, then devices by index, the rest by name."""
    if lane == "service":
        return (0, 0, lane)
    if lane.startswith("device:"):
        suffix = lane[len("device:"):]
        return (1, int(suffix) if suffix.isdigit() else 0, lane)
    return (3, 0, lane)


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
    not wall time.  (``time_unit`` still words the retired host-clock
    ``sql`` lane: exports are pinned byte-for-byte across builds.)
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
