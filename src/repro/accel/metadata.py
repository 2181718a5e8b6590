"""Genesis metadata-update accelerator (Figure 11, Section IV-C).

One pipeline computes NM, MD, and UQ for every read of one partition:

* five READS memory readers (POS, ENDPOS, CIGAR, SEQ, QUAL) and one REF
  reader that initializes the reference SPM (phase 1, shared helper);
* ReadToBases explodes each read; the SPM Reader streams each read's
  reference interval; a **left** Joiner keyed on position merges them,
  preserving insertions (passthrough) and deletions;
* the joined stream forks to MDGen (MD tokens) and to the mismatch Filter,
  whose output forks again into a COUNT Reducer (NM) and a masked SUM
  Reducer over quality (UQ — masked to aligned bases only, so inserted/
  deleted bases contribute to NM but not UQ, matching GATK);
* three Memory Writers store NM, MD, and UQ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..hw.engine import Engine
from ..hw.memory import MemoryConfig
from ..hw.modules import (
    Filter,
    Fork,
    MdGen,
    MemoryWriter,
    Reducer,
    StreamAlu,
    join_md_tokens,
)
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


def _is_mismatch(flit) -> bool:
    """The Figure 11 filter condition: read base differs from reference.
    Inserted bases (no reference counterpart) and deleted bases (no read
    base) always count as mismatches."""
    if flit.get("op") != "M":
        return True
    return int(flit["base"]) != int(flit["ref"])


def build_metadata_pipeline(
    engine: Engine, name: str, spm: Scratchpad, base: int
) -> Pipeline:
    """Wire one Figure 11 pipeline replica into ``engine``."""
    pipe = Pipeline(name, engine)
    memory = engine.memory
    joiner = join_reads_to_reference(pipe, spm, base, "left", with_qual=True)
    join_fork = pipe.add(Fork(f"{name}.joinfork", ports=2))
    mismatch = pipe.add(Filter(f"{name}.mismatch", field="base", predicate=_is_mismatch))
    mm_fork = pipe.add(Fork(f"{name}.mmfork", ports=2))
    is_m = pipe.add(
        StreamAlu(f"{name}.ism", op="CMP", field="op", constant="M", out_field="is_m")
    )
    nm_count = pipe.add(Reducer(f"{name}.nm", op="count", field="op"))
    uq_sum = pipe.add(
        Reducer(f"{name}.uq", op="sum", field="qual", mask_field="is_m")
    )
    mdgen = pipe.add(MdGen(f"{name}.mdgen"))
    nm_writer = pipe.add(MemoryWriter(f"{name}.nmw", memory, elem_size=4))
    uq_writer = pipe.add(MemoryWriter(f"{name}.uqw", memory, elem_size=4))
    md_writer = pipe.add(MemoryWriter(f"{name}.mdw", memory, elem_size=1, field="md"))

    engine.connect(joiner, join_fork)
    engine.connect(join_fork, mismatch, out_port="out0")
    engine.connect(join_fork, mdgen, out_port="out1")
    engine.connect(mismatch, mm_fork)
    engine.connect(mm_fork, nm_count, out_port="out0")
    engine.connect(mm_fork, is_m, out_port="out1")
    engine.connect(is_m, uq_sum)
    engine.connect(nm_count, nm_writer)
    engine.connect(uq_sum, uq_writer)
    engine.connect(mdgen, md_writer)
    return pipe


@dataclass
class MetadataAccelResult:
    """Per-read NM/MD/UQ computed by the simulated pipeline.

    ``run`` is ``None`` for partitions the scheduler never simulated
    (empty partitions produce empty tag lists and no cycle accounting).
    """

    nm: List[int]
    md: List[str]
    uq: List[int]
    run: Optional[AcceleratorRun] = None


@dataclass
class MetadataWaveDriver(WaveDriver):
    """Waves of Figure 11 metadata-update replicas."""

    reference: PartitionedReference
    memory_config: Optional[MemoryConfig] = None
    mode: Optional[str] = None

    stage = "metadata"
    solo = "mu"
    timing = "metadata"
    uses_reference = True

    def empty_result(self, pid: PartitionId) -> MetadataAccelResult:
        return MetadataAccelResult(nm=[], md=[], uq=[])

    def build_replica(self, engine, name, part, spm, base):
        pipe = build_metadata_pipeline(engine, name, spm, base)
        feed_read_streams(pipe, part)
        return pipe

    def harvest(self, pipe, run) -> MetadataAccelResult:
        name = pipe.name
        return MetadataAccelResult(
            nm=[int(item[0]) for item in pipe.modules[f"{name}.nmw"].items],
            md=[
                join_md_tokens(item)
                for item in pipe.modules[f"{name}.mdw"].items
            ],
            uq=[int(item[0]) for item in pipe.modules[f"{name}.uqw"].items],
            run=run,
        )


def run_metadata_update(
    partition: Table,
    ref_row: dict,
    memory_config: Optional[MemoryConfig] = None,
) -> MetadataAccelResult:
    """Simulate the Figure 11 pipeline on one partition."""
    driver = MetadataWaveDriver(solo_reference(ref_row), memory_config)
    return driver.run_one(partition)
