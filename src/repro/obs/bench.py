"""The ``repro bench`` regression harness: a declared suite of perf
probes whose results persist across PRs.

Each :class:`Probe` measures one number on a shared
:class:`BenchContext` (the workload is built once per suite run):
simulator throughput under both engine schedules, host-scheduler
parallelism, and the per-stage preprocess cycles-per-base that the
paper-scale timing model extrapolates from.  ``run_bench`` executes
every probe with warmup + N repeats and summarizes each as
median / IQR — the median is robust to host noise, the IQR records how
noisy the probe was so comparisons can tell signal from jitter.

Results are written as schema-versioned ``BENCH_<n>.json`` files with
the run's :class:`~repro.obs.ledger.RunManifest` embedded, so any two
files say whether they are comparable (same config digest, same
package version) before saying which is faster.

``compare_results`` applies the noise-aware regression rule: a probe
fails only when its median moved more than ``threshold`` in the bad
direction **and** landed outside the baseline's IQR.  Deterministic
probes (simulated cycles) have zero IQR, so any real regression trips
them; noisy host-time probes get the IQR guard.

The scaling-curve observatory rides on the same suite: ``run_sweep``
re-runs selected probes across a cross-product of topology axes
(``devices`` × ``workers`` × ``pipelines``) on the *same* materialized
workload and records the full curve as a :class:`SweepResult` inside
the ``BENCH_*.json``.  ``compare_sweeps`` gates curve *shape*, not just
endpoints: every point gets the median+IQR rule against its baseline
twin, and each probe's parallel-efficiency slope along each axis must
not drop more than the threshold below the baseline slope.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import statistics
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .ledger import RunManifest

#: Bumped when the BENCH_*.json shape changes incompatibly.
#: v2 added the optional ``sweep`` scaling-curve block.
BENCH_SCHEMA_VERSION = 2

_BENCH_NAME = re.compile(r"BENCH_(\d+)\.json$")


# -- the probe suite -----------------------------------------------------------------


@dataclass
class BenchContext:
    """Shared state the probes measure against."""

    reads: int = 120
    read_length: int = 80
    psize: int = 4000
    pipelines: int = 4
    seed: int = 2024
    #: SQL execution backend the sql probes measure (vs "reference").
    sql_backend: str = "fast"
    #: Host topology the scheduler probes measure: worker processes per
    #: device queue and sharded device count.  Part of the config digest
    #: — medians from different topologies are not comparable.
    workers: int = 2
    devices: int = 2
    workload: object = None

    def build(self) -> "BenchContext":
        """Materialize the workload (once per suite run)."""
        from ..eval.workloads import make_workload

        if self.workload is None:
            self.workload = make_workload(
                n_reads=self.reads,
                read_length=self.read_length,
                chromosomes=(20,),
                genome_scale=4.5e-5,
                psize=self.psize,
                seed=self.seed,
            )
        return self

    def config(self) -> Dict[str, object]:
        """The manifest config describing this context."""
        return {
            "reads": self.reads,
            "read_length": self.read_length,
            "psize": self.psize,
            "pipelines": self.pipelines,
            "seed": self.seed,
            "sql_backend": self.sql_backend,
            "workers": self.workers,
            "devices": self.devices,
        }


@dataclass(frozen=True)
class Probe:
    """One benchmark probe: a measurement function plus its metadata."""

    name: str
    fn: Callable[[BenchContext], float]
    unit: str
    higher_is_better: bool
    description: str = ""


def _metadata_run(context: BenchContext, mode: str):
    from ..accel.scheduler import MetadataWaveDriver, run_partitioned

    driver = MetadataWaveDriver(
        reference=context.workload.reference, mode=mode
    )
    _results, stats = run_partitioned(
        driver, context.workload.partitions, context.pipelines
    )
    return stats


def _probe_sim_throughput_event(context: BenchContext) -> float:
    return _metadata_run(context, "event").host_flits_per_second


def _probe_sim_throughput_dense(context: BenchContext) -> float:
    return _metadata_run(context, "dense").host_flits_per_second


def _probe_scheduler_parallelism(context: BenchContext) -> float:
    from ..accel.scheduler import MetadataWaveDriver, run_partitioned

    driver = MetadataWaveDriver(reference=context.workload.reference)
    _results, stats = run_partitioned(
        driver, context.workload.partitions, context.pipelines,
        workers=context.workers,
    )
    return stats.host_parallelism


def _probe_device_parallelism(context: BenchContext) -> float:
    from ..accel.sharding import run_sharded
    from ..accel.scheduler import MetadataWaveDriver

    driver = MetadataWaveDriver(reference=context.workload.reference)
    _results, stats = run_sharded(
        driver, context.workload.partitions, context.pipelines,
        devices=context.devices, workers=1,
    )
    return stats.host_parallelism


def _cycles_per_base(context: BenchContext, stage: str) -> float:
    from ..eval.experiments import measure_cycles_per_base

    return measure_cycles_per_base(stage, context.workload).cycles_per_base


def sql_stage_backend_seconds(workload, backend: str) -> Dict[str, float]:
    """Backend execution seconds of the three SQL stage drivers.

    Runs the markdup/metadata/BQSR stage scripts of
    :mod:`repro.gatk.sql_driver` on ``backend`` and charges only the
    plan-execution time — the ``sql_operator_seconds`` counters the
    executor publishes — so host-side prep common to every backend does
    not dilute the comparison.  Returns ``{stage: seconds}``.
    """
    import copy

    from ..gatk.sql_driver import (
        sql_build_covariate_tables,
        sql_mark_duplicates,
        sql_update_metadata,
    )
    from .registry import MetricsRegistry

    out: Dict[str, float] = {}
    metrics = MetricsRegistry()
    sql_mark_duplicates(
        copy.deepcopy(workload.reads), backend=backend, metrics=metrics
    )
    out["markdup"] = float(metrics.total("sql_operator_seconds"))
    metrics = MetricsRegistry()
    sql_update_metadata(
        workload.partitions, workload.reference, workload.read_length,
        backend=backend, metrics=metrics,
    )
    out["metadata"] = float(metrics.total("sql_operator_seconds"))
    metrics = MetricsRegistry()
    sql_build_covariate_tables(
        workload.group_partitions, workload.reference, workload.read_length,
        backend=backend, metrics=metrics,
    )
    out["bqsr"] = float(metrics.total("sql_operator_seconds"))
    return out


def _probe_storage_filter_speedup(context: BenchContext) -> float:
    """PCIe transfer-seconds ratio of an unfiltered vs storage-filtered
    sharded metadata run.  Deterministic: both terms are modelled link
    occupancy, not host time.  Runs at two devices minimum because the
    unsharded path models no transfers to compare against."""
    from ..accel.scheduler import MetadataWaveDriver
    from ..accel.sharding import run_sharded
    from ..storage.filter import plan_storage_filter

    devices = max(context.devices, 2)
    workload = context.workload
    plan = plan_storage_filter(
        workload.partitions, workload.reference, record=False
    )
    driver = MetadataWaveDriver(reference=workload.reference)
    _results, unfiltered = run_sharded(
        driver, workload.partitions, context.pipelines, devices=devices
    )
    _results, filtered = run_sharded(
        driver, workload.partitions, context.pipelines, devices=devices,
        storage=plan,
    )
    baseline = sum(unfiltered.device_transfer_seconds)
    survivors = sum(filtered.device_transfer_seconds)
    return baseline / max(survivors, 1e-12)


def _probe_sql_backend_speedup(context: BenchContext) -> float:
    reference = sum(
        sql_stage_backend_seconds(context.workload, "reference").values()
    )
    selected = sum(
        sql_stage_backend_seconds(context.workload, context.sql_backend).values()
    )
    return reference / max(selected, 1e-9)


DEFAULT_SUITE: Dict[str, Probe] = {
    probe.name: probe
    for probe in (
        Probe(
            "sim_throughput_event",
            _probe_sim_throughput_event,
            "flits/s", True,
            "event-schedule simulator throughput on a metadata wave run",
        ),
        Probe(
            "sim_throughput_dense",
            _probe_sim_throughput_dense,
            "flits/s", True,
            "dense-schedule simulator throughput (the oracle loop)",
        ),
        Probe(
            "scheduler_parallelism",
            _probe_scheduler_parallelism,
            "x", True,
            "effective host concurrency of a multi-worker partitioned run",
        ),
        Probe(
            "device_scaling_parallelism",
            _probe_device_parallelism,
            "x", True,
            "effective host concurrency of a sharded run across the "
            "context's device count (one worker per device queue)",
        ),
        Probe(
            "markdup_cycles_per_base",
            lambda context: _cycles_per_base(context, "markdup"),
            "cycles/base", False,
            "sustained markdup accelerator cycles per base (deterministic)",
        ),
        Probe(
            "metadata_cycles_per_base",
            lambda context: _cycles_per_base(context, "metadata"),
            "cycles/base", False,
            "sustained metadata-update cycles per base (deterministic)",
        ),
        Probe(
            "bqsr_table_cycles_per_base",
            lambda context: _cycles_per_base(context, "bqsr_table"),
            "cycles/base", False,
            "sustained BQSR covariate cycles per base (deterministic)",
        ),
        Probe(
            "sql_backend_speedup",
            _probe_sql_backend_speedup,
            "x", True,
            "SQL stage-driver backend execution speedup vs the reference "
            "backend (markdup + metadata + BQSR scripts)",
        ),
        Probe(
            "storage_filter_speedup",
            _probe_storage_filter_speedup,
            "x", True,
            "PCIe transfer-time reduction from the in-SSD exact-match "
            "filter on a sharded metadata run (deterministic)",
        ),
    )
}


# -- results -------------------------------------------------------------------------


@dataclass
class ProbeResult:
    """One probe's samples and their robust summary."""

    name: str
    unit: str
    higher_is_better: bool
    samples: List[float]

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def q1(self) -> float:
        return self._quantile(0.25)

    @property
    def q3(self) -> float:
        return self._quantile(0.75)

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    def _quantile(self, q: float) -> float:
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1 - fraction) + ordered[high] * fraction

    def to_dict(self) -> Dict[str, object]:
        return {
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "samples": list(self.samples),
            "median": self.median,
            "q1": self.q1,
            "q3": self.q3,
            "iqr": self.iqr,
        }

    @classmethod
    def from_dict(cls, name: str, data: Dict[str, object]) -> "ProbeResult":
        return cls(
            name=name,
            unit=str(data.get("unit", "")),
            higher_is_better=bool(data.get("higher_is_better", True)),
            samples=[float(sample) for sample in data.get("samples", [])]
            or [float(data.get("median", 0.0))],
        )


# -- the scaling-curve observatory ---------------------------------------------------

#: Topology axes ``run_sweep`` may vary.  Each is a BenchContext field
#: that reshapes the host/device topology without touching the workload.
SWEEP_AXES = ("devices", "workers", "pipelines")

#: Probes swept by default: the two whose whole point is a scaling curve.
DEFAULT_SWEEP_PROBES = ("scheduler_parallelism", "device_scaling_parallelism")


def parse_sweep(spec: str) -> Dict[str, List[int]]:
    """Parse a ``--sweep`` spec like ``"devices=1,2;workers=1,2"``.

    Axes are separated by ``;`` (or ``×``); each axis lists its values
    as ``name=v1,v2,...``.  Only :data:`SWEEP_AXES` are accepted.
    """
    axes: Dict[str, List[int]] = {}
    for part in re.split(r"[;×]", spec):
        part = part.strip()
        if not part:
            continue
        name, sep, rest = part.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(
                f"bad sweep axis {part!r}; expected name=v1,v2 with "
                f"name in {SWEEP_AXES}"
            )
        if name not in SWEEP_AXES:
            raise ValueError(
                f"unknown sweep axis {name!r}; axes are {SWEEP_AXES}"
            )
        if name in axes:
            raise ValueError(f"duplicate sweep axis {name!r}")
        values = [int(value) for value in rest.split(",") if value.strip()]
        if not values:
            raise ValueError(f"sweep axis {name!r} has no values")
        if any(value < 1 for value in values):
            raise ValueError(f"sweep axis {name!r} values must be >= 1")
        axes[name] = values
    if not axes:
        raise ValueError("empty sweep spec")
    return axes


@dataclass
class CurvePoint:
    """One topology point on the sweep grid: overrides + probe summaries."""

    overrides: Dict[str, int]
    probes: Dict[str, ProbeResult]

    def key(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(sorted(self.overrides.items()))

    def label(self) -> str:
        return ",".join(f"{k}={v}" for k, v in sorted(self.overrides.items()))

    def to_dict(self) -> Dict[str, object]:
        return {
            "overrides": dict(sorted(self.overrides.items())),
            "probes": {
                name: result.to_dict()
                for name, result in sorted(self.probes.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CurvePoint":
        return cls(
            overrides={
                str(k): int(v)
                for k, v in data.get("overrides", {}).items()
            },
            probes={
                name: ProbeResult.from_dict(name, probe)
                for name, probe in data.get("probes", {}).items()
            },
        )


@dataclass
class SweepResult:
    """A full scaling curve: the axis grid plus one point per combo."""

    axes: Dict[str, List[int]]
    probe_names: List[str]
    points: List[CurvePoint]

    def series(self, probe: str, axis: str) -> List[Tuple[int, float]]:
        """``(axis value, median)`` pairs along ``axis`` with every other
        axis held at its first (base) value."""
        base = {name: values[0] for name, values in self.axes.items()}
        out: List[Tuple[int, float]] = []
        for value in self.axes.get(axis, []):
            want = dict(base)
            want[axis] = value
            for point in self.points:
                if point.overrides == want and probe in point.probes:
                    out.append((value, point.probes[probe].median))
                    break
        return out

    def efficiency_slope(self, probe: str, axis: str) -> Optional[float]:
        """Slope of parallel efficiency along ``axis``.

        Efficiency at a point is ``(median / base median) / (value /
        base value)`` — 1.0 means perfect scaling, below 1.0 sub-linear.
        The slope is the efficiency drop per unit of axis ratio between
        the first and last point; flat (0.0) is ideal, more negative
        means the curve bends away from linear harder.  ``None`` when
        the series is too short or degenerate to define one.
        """
        series = self.series(probe, axis)
        if len(series) < 2:
            return None
        base_value, base_median = series[0]
        if base_value == 0 or base_median == 0:
            return None
        first_ratio = 1.0
        last_value, last_median = series[-1]
        last_ratio = last_value / base_value
        if last_ratio == first_ratio:
            return None
        first_eff = 1.0
        last_eff = (last_median / base_median) / last_ratio
        return (last_eff - first_eff) / (last_ratio - first_ratio)

    def to_dict(self) -> Dict[str, object]:
        return {
            "axes": {name: list(values) for name, values in self.axes.items()},
            "probes": list(self.probe_names),
            "points": [point.to_dict() for point in self.points],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepResult":
        return cls(
            axes={
                str(name): [int(v) for v in values]
                for name, values in data.get("axes", {}).items()
            },
            probe_names=[str(name) for name in data.get("probes", [])],
            points=[
                CurvePoint.from_dict(point)
                for point in data.get("points", [])
            ],
        )

    def render(self) -> str:
        lines = [
            "sweep "
            + " × ".join(
                f"{name}={'|'.join(str(v) for v in values)}"
                for name, values in self.axes.items()
            )
        ]
        for point in self.points:
            cells = "  ".join(
                f"{name}={point.probes[name].median:.3f}"
                for name in self.probe_names
                if name in point.probes
            )
            lines.append(f"  [{point.label()}]  {cells}")
        for probe in self.probe_names:
            for axis in self.axes:
                slope = self.efficiency_slope(probe, axis)
                if slope is not None:
                    lines.append(
                        f"  slope {probe}/{axis}: {slope:+.3f} "
                        "(efficiency per axis ratio; 0 = linear scaling)"
                    )
        return "\n".join(lines)


def run_sweep(
    context: BenchContext,
    axes: Dict[str, List[int]],
    probes: Optional[Sequence[str]] = None,
    repeats: int = 3,
    warmup: int = 1,
    suite: Optional[Dict[str, Probe]] = None,
) -> SweepResult:
    """Record the scaling curve: re-run ``probes`` at every point of the
    ``axes`` cross-product on the same materialized workload."""
    suite = suite if suite is not None else DEFAULT_SUITE
    unknown_axes = [name for name in axes if name not in SWEEP_AXES]
    if unknown_axes:
        raise ValueError(
            f"unknown sweep axes {unknown_axes}; axes are {SWEEP_AXES}"
        )
    if not axes:
        raise ValueError("sweep needs at least one axis")
    if probes:
        selected = list(probes)
    else:
        selected = [name for name in DEFAULT_SWEEP_PROBES if name in suite]
        if not selected:
            selected = list(suite)
    context.build()
    names = list(axes)
    points: List[CurvePoint] = []
    for combo in itertools.product(*(axes[name] for name in names)):
        overrides = dict(zip(names, combo))
        point_context = replace(context, **overrides)
        result = run_bench(
            point_context, repeats=repeats, warmup=warmup,
            probes=selected, suite=suite,
        )
        points.append(CurvePoint(overrides=overrides, probes=result.probes))
    return SweepResult(
        axes={name: list(axes[name]) for name in names},
        probe_names=selected,
        points=points,
    )


@dataclass
class BenchResult:
    """One suite run: manifest + per-probe summaries."""

    manifest: RunManifest
    probes: Dict[str, ProbeResult]
    schema_version: int = BENCH_SCHEMA_VERSION
    #: Optional scaling curve recorded by ``--sweep``.
    sweep: Optional[SweepResult] = None

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "schema_version": self.schema_version,
            "manifest": self.manifest.to_dict(),
            "probes": {
                name: result.to_dict()
                for name, result in sorted(self.probes.items())
            },
        }
        if self.sweep is not None:
            data["sweep"] = self.sweep.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchResult":
        version = int(data.get("schema_version", 0))
        if version != BENCH_SCHEMA_VERSION:
            raise ValueError(
                f"bench schema v{version} is not v{BENCH_SCHEMA_VERSION}; "
                "regenerate the baseline with this package version"
            )
        sweep = data.get("sweep")
        return cls(
            manifest=RunManifest.from_dict(data.get("manifest", {})),
            probes={
                name: ProbeResult.from_dict(name, probe)
                for name, probe in data.get("probes", {}).items()
            },
            schema_version=version,
            sweep=SweepResult.from_dict(sweep) if sweep else None,
        )

    @classmethod
    def load(cls, path: str) -> "BenchResult":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def render(self) -> str:
        """The human-readable results table."""
        lines = [
            f"bench {self.manifest.run_id} "
            f"(config {self.manifest.digest}, "
            f"v{self.manifest.package_version})"
        ]
        width = max((len(name) for name in self.probes), default=5)
        for name in sorted(self.probes):
            result = self.probes[name]
            arrow = "↑" if result.higher_is_better else "↓"
            lines.append(
                f"  {name.ljust(width)}  median {result.median:>12.3f} "
                f"{result.unit} {arrow}  IQR {result.iqr:.3f} "
                f"({len(result.samples)} repeats)"
            )
        if self.sweep is not None:
            lines.append(self.sweep.render())
        return "\n".join(lines)


def run_bench(
    context: BenchContext,
    repeats: int = 3,
    warmup: int = 1,
    probes: Optional[Sequence[str]] = None,
    suite: Optional[Dict[str, Probe]] = None,
    manifest: Optional[RunManifest] = None,
) -> BenchResult:
    """Execute the probe suite: ``warmup`` throwaway runs then
    ``repeats`` recorded samples per probe."""
    if repeats < 1:
        raise ValueError("need at least one repeat")
    suite = suite if suite is not None else DEFAULT_SUITE
    selected = list(probes) if probes else list(suite)
    unknown = [name for name in selected if name not in suite]
    if unknown:
        raise KeyError(
            f"unknown probes {unknown}; suite has {sorted(suite)}"
        )
    context.build()
    if manifest is None:
        manifest = RunManifest(
            workload="bench",
            config=context.config(),
            seed=context.seed,
            pipelines=context.pipelines,
            workers=context.workers,
            mode="event",
        )
    results: Dict[str, ProbeResult] = {}
    for name in selected:
        probe = suite[name]
        for _ in range(warmup):
            probe.fn(context)
        samples = [float(probe.fn(context)) for _ in range(repeats)]
        results[name] = ProbeResult(
            name=name,
            unit=probe.unit,
            higher_is_better=probe.higher_is_better,
            samples=samples,
        )
    return BenchResult(manifest=manifest, probes=results)


def next_bench_path(out_dir: str) -> str:
    """The next free ``BENCH_<n>.json`` under ``out_dir``."""
    highest = 0
    if os.path.isdir(out_dir):
        for entry in os.listdir(out_dir):
            match = _BENCH_NAME.match(entry)
            if match:
                highest = max(highest, int(match.group(1)))
    return os.path.join(out_dir, f"BENCH_{highest + 1}.json")


def write_bench_result(result: BenchResult, out_dir: str = ".") -> str:
    """Write ``result`` to the next ``BENCH_<n>.json``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = next_bench_path(out_dir)
    with open(path, "w") as handle:
        json.dump(result.to_dict(), handle, indent=2)
        handle.write("\n")
    return path


# -- comparison ----------------------------------------------------------------------

#: Config keys describing the measured host/device topology.  Medians
#: from different topologies answer different questions (a devices=4 run
#: is not a regression of a devices=1 baseline), so comparisons across
#: them are refused rather than noted.
TOPOLOGY_KEYS = ("devices", "workers", "sql_backend")


@dataclass
class ProbeComparison:
    """One probe's baseline-vs-current verdict — for the suite, or (with
    a ``label``) for one point of a sweep."""

    name: str
    unit: str
    higher_is_better: bool
    baseline_median: float
    current_median: float
    #: Relative movement in the *bad* direction (negative = improved).
    delta: float
    outside_iqr: bool
    regression: bool
    #: The sweep point this verdict belongs to (``None``: the suite).
    label: Optional[str] = None

    @property
    def probe(self) -> str:
        return self.name

    def render(self) -> str:
        verdict = "REGRESSION" if self.regression else (
            "ok (within noise)" if self.delta > 0 else "ok"
        )
        if self.label is None:
            subject = self.name
            unit = f"{self.unit} {'↑' if self.higher_is_better else '↓'}"
        else:
            subject, unit = f"[{self.label}] {self.name}", self.unit
        return (
            f"{subject}: {self.baseline_median:.3f} -> "
            f"{self.current_median:.3f} {unit} "
            f"({self.delta:+.1%} worse) {verdict}"
        )


def compare_probe(
    name: str,
    probe: ProbeResult,
    base: ProbeResult,
    threshold: float,
    label: Optional[str] = None,
) -> ProbeComparison:
    """The noise-aware regression rule, written once: a probe regresses
    when its median moved more than ``threshold`` (relative) in the bad
    direction **and** sits outside the baseline's IQR — a wide-IQR
    (noisy) baseline therefore only fails on movements the baseline
    itself never produced."""
    base_median = base.median
    if base_median == 0:
        delta = 0.0 if probe.median == 0 else 1.0
    elif probe.higher_is_better:
        delta = (base_median - probe.median) / abs(base_median)
    else:
        delta = (probe.median - base_median) / abs(base_median)
    if probe.higher_is_better:
        outside = probe.median < base.q1
    else:
        outside = probe.median > base.q3
    return ProbeComparison(
        name=name,
        unit=probe.unit,
        higher_is_better=probe.higher_is_better,
        baseline_median=base_median,
        current_median=probe.median,
        delta=delta,
        outside_iqr=outside,
        regression=delta > threshold and outside,
        label=label,
    )


@dataclass
class ComparisonResult:
    """The full comparison: per-probe verdicts plus the headline."""

    threshold: float
    probes: List[ProbeComparison]
    missing: List[str] = field(default_factory=list)
    comparable: bool = True
    notes: List[str] = field(default_factory=list)
    #: True when the comparison was refused outright (mismatched
    #: topology): no probes were diffed and the caller should treat the
    #: invocation as a usage error, not a perf verdict.
    refused: bool = False

    @property
    def regressions(self) -> List[ProbeComparison]:
        return [probe for probe in self.probes if probe.regression]

    @property
    def ok(self) -> bool:
        return not self.refused and not self.regressions

    def render(self) -> str:
        lines = [
            f"compare vs baseline (threshold {self.threshold:.0%} "
            "median regression outside baseline IQR):"
        ]
        for note in self.notes:
            lines.append(f"  note: {note}")
        for probe in self.probes:
            lines.append(f"  {probe.render()}")
        for name in self.missing:
            lines.append(f"  {name}: not in baseline (skipped)")
        lines.append(
            f"  => {len(self.regressions)} regression(s) "
            f"across {len(self.probes)} compared probe(s)"
        )
        return "\n".join(lines)


def compare_results(
    current: BenchResult,
    baseline: BenchResult,
    threshold: float = 0.10,
) -> ComparisonResult:
    """Apply the noise-aware regression rule (:func:`compare_probe`)
    probe by probe.

    Comparisons across mismatched topology (:data:`TOPOLOGY_KEYS` in
    both manifests but with different values) are refused: the result
    carries ``refused=True``, no probes, and a note naming the
    mismatched keys.  Older results that never recorded topology still
    compare with the digest-mismatch note only.
    """
    notes: List[str] = []
    mismatched = [
        key for key in TOPOLOGY_KEYS
        if key in current.manifest.config
        and key in baseline.manifest.config
        and current.manifest.config[key] != baseline.manifest.config[key]
    ]
    if mismatched:
        details = ", ".join(
            f"{key}: {baseline.manifest.config[key]} vs "
            f"{current.manifest.config[key]}"
            for key in mismatched
        )
        return ComparisonResult(
            threshold=threshold,
            probes=[],
            missing=[],
            comparable=False,
            notes=[
                f"refusing to compare across topologies ({details}); "
                "re-run with matching --devices/--workers/--sql-backend "
                "or regenerate the baseline"
            ],
            refused=True,
        )
    if current.manifest.digest != baseline.manifest.digest:
        notes.append(
            f"config digests differ (current {current.manifest.digest}, "
            f"baseline {baseline.manifest.digest}) — medians may not be "
            "comparable"
        )
    comparisons: List[ProbeComparison] = []
    missing: List[str] = []
    for name in sorted(current.probes):
        probe = current.probes[name]
        base = baseline.probes.get(name)
        if base is None:
            missing.append(name)
            continue
        comparisons.append(compare_probe(name, probe, base, threshold))
    return ComparisonResult(
        threshold=threshold,
        probes=comparisons,
        missing=missing,
        comparable=not notes,
        notes=notes,
    )


# -- curve-shape comparison ----------------------------------------------------------


@dataclass
class SlopeComparison:
    """One probe/axis parallel-efficiency slope verdict."""

    probe: str
    axis: str
    baseline_slope: float
    current_slope: float
    regression: bool

    def render(self) -> str:
        verdict = "REGRESSION" if self.regression else "ok"
        return (
            f"slope {self.probe}/{self.axis}: {self.baseline_slope:+.3f} -> "
            f"{self.current_slope:+.3f} {verdict}"
        )


@dataclass
class SweepComparison:
    """Curve-shape verdict: per-point deltas plus slope drift."""

    threshold: float
    points: List[ProbeComparison]
    slopes: List[SlopeComparison]
    missing: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    refused: bool = False

    @property
    def regressions(self) -> List[object]:
        bad: List[object] = [p for p in self.points if p.regression]
        bad.extend(s for s in self.slopes if s.regression)
        return bad

    @property
    def ok(self) -> bool:
        return not self.refused and not self.regressions

    def render(self) -> str:
        lines = [
            f"sweep compare vs baseline (threshold {self.threshold:.0%} "
            "per point; slope drop gated at the same threshold):"
        ]
        for note in self.notes:
            lines.append(f"  note: {note}")
        for point in self.points:
            lines.append(f"  {point.render()}")
        for slope in self.slopes:
            lines.append(f"  {slope.render()}")
        for label in self.missing:
            lines.append(f"  {label}: not in baseline (skipped)")
        lines.append(
            f"  => {len(self.regressions)} curve regression(s) across "
            f"{len(self.points)} point(s) and {len(self.slopes)} slope(s)"
        )
        return "\n".join(lines)


def compare_sweeps(
    current: SweepResult,
    baseline: SweepResult,
    threshold: float = 0.10,
) -> SweepComparison:
    """Gate curve *shape* against the baseline sweep.

    Two rules, both noise-aware:

    - **Per-point**: every (topology point, probe) pair applies
      :func:`compare_probe` against its baseline twin — a curve that sags anywhere fails even if the endpoints
      match.
    - **Slope**: each probe's parallel-efficiency slope along each axis
      (see :meth:`SweepResult.efficiency_slope`) must not drop more than
      ``threshold`` below the baseline slope — a curve that bends away
      from linear scaling harder than the baseline did fails even when
      no single point trips the per-point rule.

    Sweeps over different axis grids are refused (``refused=True``): a
    devices=1..4 curve is not a regression of a devices=1..2 curve.
    """
    if current.axes != baseline.axes:
        return SweepComparison(
            threshold=threshold,
            points=[],
            slopes=[],
            notes=[
                f"refusing to compare sweeps over different grids "
                f"(current {current.axes} vs baseline {baseline.axes}); "
                "regenerate the baseline with the same --sweep spec"
            ],
            refused=True,
        )
    baseline_points = {point.key(): point for point in baseline.points}
    comparisons: List[ProbeComparison] = []
    missing: List[str] = []
    for point in current.points:
        twin = baseline_points.get(point.key())
        if twin is None:
            missing.append(point.label())
            continue
        for name in sorted(point.probes):
            probe = point.probes[name]
            base = twin.probes.get(name)
            if base is None:
                missing.append(f"[{point.label()}] {name}")
                continue
            comparisons.append(compare_probe(
                name, probe, base, threshold, label=point.label()
            ))
    slopes: List[SlopeComparison] = []
    for name in current.probe_names:
        if name not in baseline.probe_names:
            continue
        for axis in current.axes:
            current_slope = current.efficiency_slope(name, axis)
            baseline_slope = baseline.efficiency_slope(name, axis)
            if current_slope is None or baseline_slope is None:
                continue
            slopes.append(SlopeComparison(
                probe=name,
                axis=axis,
                baseline_slope=baseline_slope,
                current_slope=current_slope,
                regression=current_slope < baseline_slope - threshold,
            ))
    return SweepComparison(
        threshold=threshold,
        points=comparisons,
        slopes=slopes,
        missing=missing,
    )
