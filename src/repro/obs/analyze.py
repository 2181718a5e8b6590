"""Critical-path bottleneck analysis over a :class:`ProfileReport`.

A profile tells you *what* each module did; this module answers the
question every acceleration PR starts from (Genesis Fig. 9/13, the
co-design surveys' "find the data-preparation bottleneck first"):
**which module is the bottleneck and what would fixing it buy?**

Three steps, all pure functions of the report:

1. **rank** modules by their busy/stalled share of the run;
2. **attribute** stalls to their root cause: a module stalled on a full
   output queue is a *victim* of back-pressure, not its source.  For
   every stalled module the analyzer walks the queue topology
   (:attr:`ProfileReport.edges`) downstream — stalled producer → fullest
   stalling queue → its consumer — until it reaches a module that is not
   itself blocked; that terminal module is the **root** the whole
   chain's stall cycles are charged to;
3. **bound** the payoff with Amdahl-style what-ifs: eliminating the
   back-pressure rooted at ``M`` can save at most the largest stall
   count in ``M``'s chains (upstream stalls of one chain overlap in
   time, so they are bounded, not summed), and even a perfect version of
   everything *except* the top bottleneck still needs that module's busy
   cycles.

Exposed as ``repro analyze <report.json>`` and embedded as the summary
block at the end of ``repro profile`` output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..constants import (
    CLOCK_HZ,
    DESCRIPTOR_BYTES,
    MODEL_ROW_BYTES,
    PCIE3_BANDWIDTH,
    PCIE4_BANDWIDTH,
)
from ..errors import InputError
from .ledger import LEDGER_SCHEMA_VERSION, RunLedger
from .profile import ModuleProfile, ProfileReport
from .spans import WAVE_SEGMENTS, TraceSpan, fields_of, trace_spans


def _latest(
    ledger: RunLedger, event: str, run_id: Optional[str], first: str
) -> Dict[str, object]:
    """The latest ``event`` record of the ledger (of ``run_id`` when
    given), refused when there is none — the message says to run
    ``first`` first — or when one is unversioned.

    Every event a current build records carries ``schema_version``
    (stamped by :meth:`~repro.obs.ledger.RunLedger.append`); a record
    without it is from a pre-versioning build or was written by hand,
    and the analyzers cannot know which fields to trust."""
    records = ledger.events(event, run_id=run_id)
    if not records:
        raise InputError(f"no {event} events in the ledger — run {first} first")
    if any("schema_version" not in record for record in records):
        raise InputError(
            f"ledger has {event} event(s) without a schema_version "
            f"field (current schema is v{LEDGER_SCHEMA_VERSION}) — "
            "this ledger predates event versioning or was edited by "
            "hand; re-record the run with a current `repro` build "
            "before analyzing it"
        )
    return records[-1]


@dataclass
class StallChain:
    """One walked back-pressure chain: a stalled module, the queue path
    to the module its stalls are attributed to, and the stall mass."""

    module: str
    stalled: int
    root: str
    #: Alternating module / queue names from victim to root.
    path: List[str] = field(default_factory=list)

    def render(self) -> str:
        """``victim -[queue]-> ... root (N stall cycles)``."""
        if len(self.path) <= 1:
            return f"{self.module} (self-limited, {self.stalled} stall cycles)"
        parts = [self.path[0]]
        for index in range(1, len(self.path) - 1, 2):
            parts.append(f"-[{self.path[index]}]-> {self.path[index + 1]}")
        return f"{' '.join(parts)} ({self.stalled} stall cycles)"


@dataclass
class WhatIf:
    """One Amdahl-style bound: what fixing ``module`` could buy."""

    module: str
    speedup_bound: float
    saved_cycles: int
    description: str


@dataclass
class BottleneckReport:
    """The analyzer's answer, queryable and renderable."""

    name: str
    cycles: int
    #: Module names ranked by busy cycles, descending.
    ranking: List[str]
    chains: List[StallChain]
    #: root module -> largest stall mass attributed to it.
    attributed_stalls: Dict[str, int]
    root_bottleneck: Optional[str]
    what_ifs: List[WhatIf]
    modules: Dict[str, ModuleProfile] = field(default_factory=dict)

    def render(self) -> str:
        """The human-readable summary block."""
        lines = [f"bottleneck analysis: {self.name} ({self.cycles} cycles)"]
        if not self.ranking:
            lines.append("  (no modules profiled)")
            return "\n".join(lines)
        width = max(len(name) for name in self.ranking[:5])
        lines.append(
            f"  {'module'.ljust(width)}  {'busy':>7} {'stall':>7} {'share':>7}"
        )
        for name in self.ranking[:5]:
            profile = self.modules[name]
            lines.append(
                f"  {name.ljust(width)}  {profile.busy:>7} "
                f"{profile.stalled:>7} "
                f"{profile.utilization(self.cycles):>7.1%}"
            )
        if self.chains:
            lines.append("  back-pressure chains:")
            for chain in sorted(self.chains, key=lambda c: -c.stalled)[:6]:
                lines.append(f"    {chain.render()}")
        if self.root_bottleneck is not None:
            profile = self.modules[self.root_bottleneck]
            attributed = self.attributed_stalls.get(self.root_bottleneck, 0)
            lines.append(
                f"  root bottleneck: {self.root_bottleneck} "
                f"(busy {profile.utilization(self.cycles):.1%}, "
                f"{attributed} upstream stall cycles attributed)"
            )
        for what_if in self.what_ifs:
            lines.append(f"  what-if: {what_if.description}")
        return "\n".join(lines)


def _stalling_queues(
    report: ProfileReport, module: str
) -> List[str]:
    """Queues ``module`` produces into that recorded full-stalls,
    back-pressured first."""
    queues = []
    for queue in report.queues:
        edge = report.edges.get(queue.name)
        if edge is None or module not in edge.get("producers", ()):
            continue
        if queue.full_stalls > 0:
            queues.append((queue.full_stalls, queue.name))
    return [name for _stalls, name in sorted(queues, reverse=True)]


def _walk_chain(report: ProfileReport, start: ModuleProfile) -> StallChain:
    """Follow back-pressure downstream from one stalled module until the
    blocking stops propagating; the terminal module is the root."""
    current = start.name
    path = [current]
    visited = {current}
    while True:
        advanced = False
        for queue_name in _stalling_queues(report, current):
            consumers = report.edges[queue_name].get("consumers", [])
            next_module = next(
                (name for name in consumers if name not in visited), None
            )
            if next_module is None:
                continue
            path.extend([queue_name, next_module])
            visited.add(next_module)
            current = next_module
            advanced = True
            break
        if not advanced:
            break
    return StallChain(
        module=start.name, stalled=start.stalled, root=current, path=path
    )


def analyze_report(
    report: ProfileReport, min_stall_share: float = 0.01
) -> BottleneckReport:
    """Run the three analysis steps over ``report``.

    ``min_stall_share`` drops chains whose stall mass is below that
    fraction of the run (noise, not bottlenecks).
    """
    cycles = max(report.cycles, 1)
    modules = {profile.name: profile for profile in report.modules}
    ranking = [
        profile.name
        for profile in sorted(report.modules, key=lambda m: -m.busy)
    ]

    chains: List[StallChain] = []
    attributed: Dict[str, int] = {}
    for profile in report.modules:
        if profile.stalled / cycles < min_stall_share:
            continue
        chain = _walk_chain(report, profile)
        chains.append(chain)
        attributed[chain.root] = max(
            attributed.get(chain.root, 0), chain.stalled
        )

    # The root bottleneck carries the most weight: its own busy cycles
    # plus the largest stall mass charged to it from upstream.
    root_bottleneck: Optional[str] = None
    if modules:
        root_bottleneck = max(
            modules,
            key=lambda name: modules[name].busy + attributed.get(name, 0),
        )

    what_ifs: List[WhatIf] = []
    for root, stalls in sorted(attributed.items(), key=lambda kv: -kv[1]):
        if stalls <= 0 or stalls >= cycles:
            continue
        bound = cycles / (cycles - stalls)
        what_ifs.append(WhatIf(
            module=root,
            speedup_bound=bound,
            saved_cycles=stalls,
            description=(
                f"eliminating {root} back-pressure bounds speedup at "
                f"{bound:.2f}x (≤{stalls} cycles saved)"
            ),
        ))
    if root_bottleneck is not None:
        busy = modules[root_bottleneck].busy
        if 0 < busy < cycles:
            bound = cycles / busy
            what_ifs.append(WhatIf(
                module=root_bottleneck,
                speedup_bound=bound,
                saved_cycles=cycles - busy,
                description=(
                    f"{root_bottleneck} alone needs {busy} busy cycles — "
                    f"everything-else-free speedup caps at {bound:.2f}x"
                ),
            ))

    return BottleneckReport(
        name=report.name,
        cycles=report.cycles,
        ranking=ranking,
        chains=chains,
        attributed_stalls=attributed,
        root_bottleneck=root_bottleneck,
        what_ifs=what_ifs,
        modules=modules,
    )


# -- multi-device sharding analysis ----------------------------------------------------


@dataclass
class DeviceUtilization:
    """One card's share of a sharded run."""

    device: int
    waves: int
    cycles: int
    busy_seconds: float
    transfer_seconds: float
    elapsed_seconds: float
    #: Cycle share of the critical-path device (1.0 = busiest queue).
    utilization: float


@dataclass
class ShardingReport:
    """Per-device utilization and the Amdahl what-if over device count,
    reconstructed from a run's ``shard.run``/``shard.device`` ledger
    events."""

    stage: str
    devices: int
    workers: int
    waves: int
    total_cycles: int
    host_parallelism: float
    per_device: List[DeviceUtilization]
    what_ifs: List[WhatIf]

    def render(self) -> str:
        """The human-readable summary block."""
        lines = [
            f"sharding analysis: {self.stage} — {self.devices} device(s), "
            f"{self.workers} worker(s)/device, {self.waves} wave(s), "
            f"{self.total_cycles} cycles, "
            f"host parallelism {self.host_parallelism:.2f}"
        ]
        if self.per_device:
            lines.append(
                "  device   waves  cycles        util"
            )
            for entry in self.per_device:
                lines.append(
                    f"  d{entry.device:<7} {entry.waves:>5} "
                    f"{entry.cycles:>10} {entry.utilization:>7.1%}"
                )
        for what_if in self.what_ifs:
            lines.append(f"  what-if: {what_if.description}")
        return "\n".join(lines)


#: Device counts the sharding what-if sweeps.
DEVICE_WHAT_IF_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)


def device_what_if(per_wave_cycles: Sequence[int]) -> List[WhatIf]:
    """Amdahl-style bounds over device count: LPT-pack the run's actual
    per-wave cycle costs onto ``k`` idealized devices (``k`` in
    :data:`DEVICE_WHAT_IF_COUNTS`) and report the makespan speedup vs
    one device.  Wave granularity is the serial
    fraction here — a run dominated by one huge wave stops scaling, and
    the bound makes that visible before anyone provisions hardware."""
    total = sum(per_wave_cycles)
    what_ifs: List[WhatIf] = []
    if total <= 0:
        return what_ifs
    costs = sorted(per_wave_cycles, reverse=True)
    for count in DEVICE_WHAT_IF_COUNTS:
        loads = [0] * count
        for cost in costs:
            loads[min(range(count), key=lambda d: (loads[d], d))] += cost
        makespan = max(loads)
        speedup = total / makespan if makespan else 1.0
        what_ifs.append(WhatIf(
            module=f"devices={count}",
            speedup_bound=speedup,
            saved_cycles=total - makespan,
            description=(
                f"{count} device(s) bound the critical path at "
                f"{makespan} cycles ({speedup:.2f}x vs one device)"
            ),
        ))
    return what_ifs


# -- per-job critical-path decomposition -----------------------------------------------

#: The categories a served job's latency decomposes into, in charge
#: priority order (a cycle covered by work beats the drain window beats
#: plain queueing).
CRITICAL_PATH_CATEGORIES = ("queue_wait", *WAVE_SEGMENTS, "drain")


@dataclass
class JobPath:
    """One job's latency, decomposed cycle-exactly.

    ``segments`` partitions ``[arrival, completion]`` on the service's
    virtual clock, so ``sum(segments.values()) == latency_cycles``
    always — the invariant the acceptance test pins."""

    job: int
    tenant: str
    stage: str
    arrival_cycles: int
    completed_cycles: int
    latency_cycles: int
    waves: int
    segments: Dict[str, int] = field(default_factory=dict)

    @property
    def dominant(self) -> str:
        """The category carrying the most cycles (ties break on the
        canonical category order)."""
        return max(
            CRITICAL_PATH_CATEGORIES,
            key=lambda cat: (self.segments.get(cat, 0),
                             -CRITICAL_PATH_CATEGORIES.index(cat)),
        )

    def render(self) -> str:
        parts = " ".join(
            f"{cat}={self.segments.get(cat, 0)}"
            for cat in CRITICAL_PATH_CATEGORIES
            if self.segments.get(cat, 0)
        ) or "queue_wait=0"
        return (
            f"  job {self.job} [{self.tenant}/{self.stage}] "
            f"{self.latency_cycles} cycles ({self.waves} wave(s)): {parts}"
        )


@dataclass
class CriticalPathReport:
    """Per-job critical paths of one served run, from the ledger alone."""

    run_id: str
    jobs: List[JobPath]

    def totals(self) -> Dict[str, int]:
        """Summed cycles per category across every job."""
        totals = {cat: 0 for cat in CRITICAL_PATH_CATEGORIES}
        for path in self.jobs:
            for cat, cycles in path.segments.items():
                totals[cat] = totals.get(cat, 0) + cycles
        return totals

    def render(self) -> str:
        total_latency = sum(path.latency_cycles for path in self.jobs)
        lines = [
            f"critical-path analysis: {len(self.jobs)} job(s), "
            f"{total_latency} summed latency cycles"
        ]
        totals = self.totals()
        for cat in CRITICAL_PATH_CATEGORIES:
            cycles = totals.get(cat, 0)
            if not cycles:
                continue
            share = cycles / total_latency if total_latency else 0.0
            lines.append(f"  {cat:<13} {cycles:>12} cycles {share:>7.1%}")
        for path in self.jobs:
            lines.append(path.render())
        return "\n".join(lines)


def _job_path(
    root: TraceSpan,
    spans: Sequence[TraceSpan],
    drain_windows: List[Tuple[int, int]],
) -> JobPath:
    """Decompose one completed job's ``[arrival, completion]`` window —
    its root span — over the run's trace.

    The window is cut at every sub-interval boundary; each elementary
    segment is charged to exactly one category (work by the covering
    wave segment — latest-ending wins when waves of one job overlap
    across devices — else aborted/drain time, else queue wait).  A
    partition sums to the window exactly by construction."""
    arrival, end = root.start, root.end
    mine = [span for span in spans if span.attrs.get("job") == root.attrs["job"]]
    covered = [
        (span.start, span.end, span.cat)
        for span in mine if span.cat in WAVE_SEGMENTS
    ]
    idle_windows = drain_windows + [
        (span.start, span.end) for span in mine if span.cat == "aborted"
    ]
    bounds = {arrival, end}
    for lo, hi, _cat in covered:
        bounds.update((lo, hi))
    for lo, hi in idle_windows:
        bounds.update((lo, hi))
    edges = sorted(b for b in bounds if arrival <= b <= end)
    segments = {cat: 0 for cat in CRITICAL_PATH_CATEGORIES}
    for lo, hi in zip(edges, edges[1:]):
        if hi <= lo:
            continue
        mid = (lo + hi) / 2
        covering = [item for item in covered if item[0] <= mid < item[1]]
        if covering:
            # the latest-ending covering wave is the one still on the
            # critical path at this instant
            _lo, _hi, cat = max(covering, key=lambda item: item[1])
        elif any(lo_ <= mid < hi_ for lo_, hi_ in idle_windows):
            cat = "drain"
        else:
            cat = "queue_wait"
        segments[cat] += hi - lo
    return JobPath(
        job=root.attrs["job"],
        tenant=root.tenant,
        stage=root.attrs["stage"],
        arrival_cycles=arrival,
        completed_cycles=end,
        latency_cycles=end - arrival,
        waves=sum(span.cat == "wave" for span in mine),
        segments=segments,
    )


def critical_paths(
    spans: Sequence[TraceSpan], job_id: Optional[int] = None
) -> List[JobPath]:
    """The critical path of every completed job in a served run's trace
    (:func:`~repro.obs.spans.trace_spans`), by job id; ``job_id``
    narrows to one job."""
    roots = sorted(
        (
            span for span in spans
            if span.cat == "job" and span.attrs["state"] == "completed"
            and job_id in (None, span.attrs["job"])
        ),
        key=lambda span: span.attrs["job"],
    )
    marks = [span for span in spans if span.cat == "drain"]
    drain_windows = list(zip(
        (span.start for span in marks if span.name == "drain"),
        (span.start for span in marks if span.name == "resume"),
    ))
    return [_job_path(root, spans, drain_windows) for root in roots]


def critical_path_from_ledger(
    ledger: RunLedger,
    run_id: Optional[str] = None,
    job_id: Optional[int] = None,
) -> CriticalPathReport:
    """Rebuild per-job critical paths from a served run's ledger events,
    over the same fold ``repro serve --trace`` exports.

    Uses the latest run carrying ``serve.job.done`` events (or ``run_id``
    when given); ``job_id`` narrows to one job.  Raises
    :class:`~repro.errors.InputError` when no served run (or no such
    job) is in the ledger."""
    done = _latest(ledger, "serve.job.done", run_id, "`repro serve`")
    run = str(done.get("run_id"))
    jobs = critical_paths(
        trace_spans(
            (str(record.get("event")), record)
            for record in ledger.events(run_id=run)
        ),
        job_id,
    )
    if not jobs:
        raise InputError(f"job {job_id} did not complete in run {run}")
    return CriticalPathReport(run_id=run, jobs=jobs)


def sharding_report_from_ledger(
    ledger: RunLedger, run_id: Optional[str] = None
) -> ShardingReport:
    """Rebuild the :class:`ShardingReport` of a ledgered run.

    Uses the latest ``shard.run`` event (or the latest one of ``run_id``
    when given) and its sibling ``shard.device`` events.  Raises
    :class:`~repro.errors.InputError` when the ledger holds no sharded
    runs.
    """
    summary = _latest(
        ledger, "shard.run", run_id,
        "a sharded stage (e.g. `repro preprocess --devices N`)",
    )
    siblings = ledger.events(
        "shard.device", run_id=str(summary.get("run_id"))
    )
    with fields_of("shard.device"):
        per_device = [
            DeviceUtilization(
                device=int(record.get("device", 0)),
                waves=int(record.get("waves", 0)),
                cycles=int(record.get("cycles", 0)),
                busy_seconds=float(record.get("busy_seconds", 0.0)),
                transfer_seconds=float(record.get("transfer_seconds", 0.0)),
                elapsed_seconds=float(record.get("elapsed_seconds", 0.0)),
                utilization=float(record.get("utilization", 0.0)),
            )
            for record in siblings
            if record.get("stage") == summary.get("stage")
        ]
    per_device.sort(key=lambda entry: entry.device)
    with fields_of("shard.run"):
        return ShardingReport(
            stage=str(summary.get("stage", "?")),
            devices=int(summary.get("devices", 1)),
            workers=int(summary.get("workers", 1)),
            waves=int(summary.get("waves", 0)),
            total_cycles=int(summary.get("total_cycles", 0)),
            host_parallelism=float(summary.get("host_parallelism", 0.0)),
            per_device=per_device,
            what_ifs=device_what_if(
                [int(c) for c in summary.get("per_wave_cycles", [])]
            ),
        )


# -- in-storage filter analysis --------------------------------------------------------

#: PCIe generations the storage what-if sweeps, as (name, bytes/s).
STORAGE_WHAT_IF_GENERATIONS: Tuple[Tuple[str, float], ...] = (
    ("pcie3", PCIE3_BANDWIDTH),
    ("pcie4", PCIE4_BANDWIDTH),
)

#: Filtered fractions the storage what-if sweeps.
STORAGE_WHAT_IF_FRACTIONS: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 0.95)


def storage_what_if(
    kernel_seconds: float,
    transfer_seconds: float,
    pcie_bandwidth: float = PCIE3_BANDWIDTH,
) -> List[WhatIf]:
    """Amdahl-style bounds over filtered fraction × PCIe generation.

    Mirrors :func:`device_what_if` for the storage tier: take a run's
    measured kernel and transfer seconds, scale the transfer term by the
    survivor footprint a filter of fraction ``f`` would leave (pruned
    reads ship :data:`DESCRIPTOR_BYTES` instead of
    :data:`MODEL_ROW_BYTES`) and by the candidate link's bandwidth, and
    report the end-to-end speedup bound.
    Kernel time is the serial fraction — at high filtered fractions the
    curve flattens against it, which is exactly the provisioning signal
    (Genesis Fig. 9: past some link speed the bottleneck moves back to
    compute).  Per-transfer setup overhead is ignored, so the bounds are
    optimistic — they cap what a filter can buy, like every what-if
    here.
    """
    base = kernel_seconds + transfer_seconds
    what_ifs: List[WhatIf] = []
    if base <= 0 or transfer_seconds < 0:
        return what_ifs
    for gen_name, bandwidth in STORAGE_WHAT_IF_GENERATIONS:
        link_scale = pcie_bandwidth / bandwidth
        for fraction in STORAGE_WHAT_IF_FRACTIONS:
            survivor = (
                (1.0 - fraction) * MODEL_ROW_BYTES
                + fraction * DESCRIPTOR_BYTES
            ) / MODEL_ROW_BYTES
            seconds = (
                kernel_seconds + transfer_seconds * survivor * link_scale
            )
            speedup = base / seconds if seconds > 0 else 1.0
            what_ifs.append(WhatIf(
                module=f"storage f={fraction:.2f} {gen_name}",
                speedup_bound=speedup,
                saved_cycles=int(round(max(base - seconds, 0.0) * CLOCK_HZ)),
                description=(
                    f"filter f={fraction:.2f} on {gen_name}: transfer "
                    f"{transfer_seconds * 1e3:.3f} ms -> "
                    f"{transfer_seconds * survivor * link_scale * 1e3:.3f} "
                    f"ms ({speedup:.2f}x end-to-end)"
                ),
            ))
    return what_ifs


@dataclass
class StorageReport:
    """The in-storage filter's accounting for one run, reconstructed
    from its ``storage.run`` ledger event, with the filtered-fraction ×
    PCIe-generation what-if sweep (``repro analyze --storage``)."""

    stage: str
    devices: int
    filtered_fraction: float
    pruned_rows: int
    raw_nbytes: int
    survivor_nbytes: int
    saved_nbytes: int
    scan_seconds: float
    kernel_seconds: float
    transfer_seconds: float
    compression_ratio: float
    internal_bandwidth: float
    pcie_bandwidth: float
    what_ifs: List[WhatIf]

    def render(self) -> str:
        """The human-readable summary block."""
        saved_share = (
            self.saved_nbytes / self.raw_nbytes if self.raw_nbytes else 0.0
        )
        lines = [
            f"storage analysis: {self.stage} — {self.devices} device(s), "
            f"filtered {self.filtered_fraction:.1%} "
            f"({self.pruned_rows} read(s) pruned in-SSD)",
            f"  PCIe traffic: {self.raw_nbytes} B raw -> "
            f"{self.survivor_nbytes} B survivors "
            f"({saved_share:.1%} kept off the link)",
            f"  in-SSD scan: {self.scan_seconds * 1e3:.3f} ms at "
            f"{self.internal_bandwidth / 1e9:.0f} GB/s internal "
            f"({self.compression_ratio:.2f}x chunk compression); "
            f"kernel {self.kernel_seconds * 1e3:.3f} ms, transfer "
            f"{self.transfer_seconds * 1e3:.3f} ms",
        ]
        for what_if in self.what_ifs:
            lines.append(f"  what-if: {what_if.description}")
        return "\n".join(lines)


def storage_report_from_ledger(
    ledger: RunLedger, run_id: Optional[str] = None
) -> StorageReport:
    """Rebuild the :class:`StorageReport` of a ledgered run.

    Uses the latest ``storage.run`` event (or the latest one of
    ``run_id`` when given).  Raises :class:`~repro.errors.InputError`
    when the ledger holds no storage-filtered runs, or when the events
    are unversioned.
    """
    summary = _latest(
        ledger, "storage.run", run_id,
        "a stage with --storage-filter (e.g. `repro preprocess "
        "--storage-filter`)",
    )
    with fields_of("storage.run"):
        kernel_seconds = float(summary.get("kernel_seconds", 0.0))
        transfer_seconds = float(summary.get("transfer_seconds", 0.0))
        pcie_bandwidth = float(summary.get("pcie_bandwidth", PCIE3_BANDWIDTH))
        return StorageReport(
            stage=str(summary.get("stage", "?")),
            devices=int(summary.get("devices", 1)),
            filtered_fraction=float(summary.get("filtered_fraction", 0.0)),
            pruned_rows=int(summary.get("pruned_rows", 0)),
            raw_nbytes=int(summary.get("raw_nbytes", 0)),
            survivor_nbytes=int(summary.get("survivor_nbytes", 0)),
            saved_nbytes=int(summary.get("saved_nbytes", 0)),
            scan_seconds=float(summary.get("scan_seconds", 0.0)),
            kernel_seconds=kernel_seconds,
            transfer_seconds=transfer_seconds,
            compression_ratio=float(summary.get("compression_ratio", 1.0)),
            internal_bandwidth=float(summary.get("internal_bandwidth", 0.0)),
            pcie_bandwidth=pcie_bandwidth,
            what_ifs=storage_what_if(
                kernel_seconds, transfer_seconds,
                pcie_bandwidth=pcie_bandwidth,
            ),
        )
