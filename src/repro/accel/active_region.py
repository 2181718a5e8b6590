"""Genesis accelerator for active-region determination (Section IV-E).

The paper lists HaplotypeCaller's active-region determination among the
operations Genesis covers.  The pipeline composes existing library
modules plus one small custom module, exactly the extension story of
Section III-F:

* the metadata-update front end (readers, ReadToBases, reference SPM,
  left Joiner keyed on position);
* :class:`AnchorInsertions` — a custom module that replaces the ``INS``
  sentinel position of inserted bases with the last aligned position
  (insertions count as activity at their anchor);
* a depth path (aligned bases -> RMW SPM increment) and an activity path
  (mismatches / deletions / insertions -> RMW SPM increment), both
  through address ALUs that rebase genome positions onto SPM words;
* a host-side merge of per-partition buffers and the shared
  :func:`repro.gatk.active_region.extract_regions` thresholding.

The pipeline is partition + REF-row shaped, so it is a
:class:`~repro.accel.scheduler.WaveDriver` like the paper's three stages:
:func:`accelerated_active_regions` is
:func:`~repro.accel.sharding.run_sharded` plus the merge, and the
driver shards, survives faults and serves like any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..gatk.active_region import (
    ActiveRegion,
    ActiveRegionConfig,
    ActivityProfile,
    extract_regions,
)
from ..genomics.reference import ReferenceGenome
from ..hw.engine import Engine
from ..hw.flit import ABSENT, INS, Flit
from ..hw.maxplus import Plan, Step
from ..hw.memory import MemoryConfig
from ..hw.module import Module
from ..hw.modules import Filter, Fork, SpmUpdater, StreamAlu
from ..hw.pipeline import Pipeline
from ..hw.spm import Scratchpad
from ..tables.partition import PartitionedReference, PartitionId
from ..tables.table import Table
from .common import (
    AcceleratorRun,
    feed_read_streams,
    join_reads_to_reference,
    solo_reference,
)
from .scheduler import WaveDriver
from .sharding import run_sharded

#: Replicas per wave of :func:`accelerated_active_regions` — the paper's
#: replication of the metadata-update front end this pipeline reuses.
PIPELINES = 16

_ANCHOR = Step(pops=("in",), pushes=("out",), rooms=("out",))


class AnchorInsertions(Module):
    """Replaces inserted bases' ``INS`` position with their anchor — the
    most recent aligned/deleted position (or the read's start for a read
    whose body opens with an insertion)."""

    def __init__(self, name: str, pos_field: str = "pos"):
        super().__init__(name)
        self.pos_field = pos_field
        self._anchor: Optional[int] = None

    def tick(self, cycle: int) -> None:
        queue = self.input()
        out = self.output()
        if not queue.can_pop():
            self._note_starved()
            return
        if not out.can_push():
            self._note_stalled(out)
            return
        flit = queue.pop()
        if flit.fields:
            fields = dict(flit.fields)
            position = fields.get(self.pos_field)
            if position is INS:
                if self._anchor is not None:
                    fields[self.pos_field] = self._anchor
            else:
                self._anchor = position
            out.push(Flit(fields, last=flit.last))
        else:
            out.push(Flit({}, last=flit.last))
        if flit.last:
            self._anchor = None
        self._note_busy()

    def plan(self, streams) -> Plan:
        """One pop and one push per flit, each needing room: the input's
        columns with every ``INS`` position replaced by the item's last
        non-``INS`` one (the anchor resets at ``last``)."""
        stream = streams["in"]
        anchor, positions = self._anchor, []
        for position, filled, last in zip(
            stream.column(self.pos_field), stream.filled, stream.last
        ):
            if filled:
                if position is not INS:
                    anchor = None if position is ABSENT else position
                elif anchor is not None:
                    position = anchor
            positions.append(position)
            if last:
                anchor = None

        def commit(_timed) -> None:
            self._anchor = anchor

        return Plan(
            {"out": stream.with_columns({self.pos_field: positions})},
            (_ANCHOR,), [0] * len(stream), commit,
        )


def _is_activity(flit) -> bool:
    """Mismatching aligned bases, deletions, and (anchored) insertions."""
    op = flit.get("op")
    if op in ("I", "D"):
        return True
    return int(flit["base"]) != int(flit["ref"])


def _has_anchor(flit) -> bool:
    return flit.get("pos") is not INS


def build_active_region_pipeline(
    engine: Engine,
    name: str,
    ref_spm: Scratchpad,
    base: int,
    activity_spm: Scratchpad,
    depth_spm: Scratchpad,
) -> Pipeline:
    """Wire one active-region pipeline replica into ``engine``."""
    pipe = Pipeline(name, engine)
    # Insertions are re-anchored before the join, so no INS keys reach it.
    joiner = join_reads_to_reference(
        pipe, ref_spm, base, "left",
        between=[AnchorInsertions(f"{name}.anchor")],
    )
    join_fork = pipe.add(Fork(f"{name}.joinfork", ports=2))
    depth_filter = pipe.add(Filter(
        f"{name}.isaligned", field="op", op="==", constant="M"
    ))
    depth_addr = pipe.add(StreamAlu(
        f"{name}.daddr", op="SUB", field="pos", constant=base, out_field="addr"
    ))
    depth_updater = pipe.add(SpmUpdater(
        f"{name}.dupd", depth_spm, mode="rmw", addr_field="addr"
    ))
    activity_filter = pipe.add(Filter(
        f"{name}.isactive", field="op", predicate=_is_activity
    ))
    anchored_guard = pipe.add(Filter(
        f"{name}.hasanchor", field="pos", predicate=_has_anchor
    ))
    activity_addr = pipe.add(StreamAlu(
        f"{name}.aaddr", op="SUB", field="pos", constant=base, out_field="addr"
    ))
    activity_updater = pipe.add(SpmUpdater(
        f"{name}.aupd", activity_spm, mode="rmw", addr_field="addr"
    ))

    engine.connect(joiner, join_fork)
    engine.connect(join_fork, depth_filter, out_port="out0")
    engine.connect(depth_filter, depth_addr)
    engine.connect(depth_addr, depth_updater)
    engine.connect(join_fork, activity_filter, out_port="out1")
    engine.connect(activity_filter, anchored_guard)
    engine.connect(anchored_guard, activity_addr)
    engine.connect(activity_addr, activity_updater)
    return pipe


@dataclass
class ActiveRegionAccelResult:
    """One partition's activity/depth buffers plus simulation stats.

    ``run`` is ``None`` for partitions the scheduler never simulated
    (empty partitions contribute zero-length buffers).
    """

    base: int
    activity: np.ndarray
    depth: np.ndarray
    run: Optional[AcceleratorRun]


@dataclass
class ActiveRegionWaveDriver(WaveDriver):
    """Waves of active-region replicas, each owning its activity and
    depth scratchpads (one word per reference position of its row)."""

    reference: PartitionedReference
    memory_config: Optional[MemoryConfig] = None
    mode: Optional[str] = None

    stage = "active_region"
    solo = "ar"
    uses_reference = True

    def empty_result(self, pid: PartitionId) -> ActiveRegionAccelResult:
        nothing = np.zeros(0, dtype=np.int64)
        return ActiveRegionAccelResult(0, nothing, nothing, run=None)

    def build_replica(self, engine, name, part, spm, base):
        activity_spm = Scratchpad("activity", len(spm))
        depth_spm = Scratchpad("depth", len(spm))
        pipe = build_active_region_pipeline(
            engine, name, spm, base, activity_spm, depth_spm
        )
        feed_read_streams(pipe, part)
        return base, activity_spm, depth_spm

    def harvest(self, context, run) -> ActiveRegionAccelResult:
        base, activity_spm, depth_spm = context
        return ActiveRegionAccelResult(
            base=base,
            activity=activity_spm.to_array(),
            depth=depth_spm.to_array(),
            run=run,
        )


def run_active_region_partition(
    partition: Table,
    ref_row: dict,
    memory_config: Optional[MemoryConfig] = None,
) -> ActiveRegionAccelResult:
    """Simulate the active-region pipeline on one partition."""
    driver = ActiveRegionWaveDriver(solo_reference(ref_row), memory_config)
    return driver.run_one(partition)


def accelerated_active_regions(
    workload_partitions,
    reference,
    genome: ReferenceGenome,
    config: Optional[ActiveRegionConfig] = None,
) -> Dict[int, List[ActiveRegion]]:
    """Full accelerated stage: waves of per-partition pipelines, host-side
    buffer merge, shared thresholding.  Equivalent to
    :func:`repro.gatk.active_region.determine_active_regions`."""
    results, _stats = run_sharded(
        ActiveRegionWaveDriver(reference), workload_partitions, PIPELINES
    )
    per_chrom: Dict[int, np.ndarray] = {}
    per_chrom_depth: Dict[int, np.ndarray] = {}
    for chrom in genome.chromosomes:
        length = genome.length(chrom)
        per_chrom[chrom] = np.zeros(length, dtype=np.int64)
        per_chrom_depth[chrom] = np.zeros(length, dtype=np.int64)
    for pid, result in results.items():
        length = genome.length(pid.chrom)
        window = min(len(result.activity), length - result.base)
        sl = slice(result.base, result.base + window)
        per_chrom[pid.chrom][sl] += result.activity[:window]
        per_chrom_depth[pid.chrom][sl] += result.depth[:window]
    out: Dict[int, List[ActiveRegion]] = {}
    for chrom in genome.chromosomes:
        profile = ActivityProfile(
            chrom, 0, per_chrom[chrom], per_chrom_depth[chrom]
        )
        regions = extract_regions(profile, config)
        if regions:
            out[chrom] = regions
    return out
