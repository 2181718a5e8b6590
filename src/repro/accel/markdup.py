"""Genesis mark-duplicates accelerator (Figure 10, Section IV-B).

The hardware part of this stage is deliberately small: a Memory Reader
streams the QUAL column, a SUM Reducer computes each read's quality-score
sum at one base per cycle, and a Memory Writer stores the per-read sums.
The host then generates the unclipped-5' keys and picks the surviving read
of every duplicate set using those sums (that remainder is
:func:`repro.gatk.markdup.mark_duplicates` with ``quality_sums``
injected).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..gatk.markdup import MarkDuplicatesResult, mark_duplicates
from ..genomics.read import AlignedRead
from ..hw.engine import Engine, RunStats
from ..hw.memory import MemoryConfig
from ..hw.modules import MemoryReader, MemoryWriter, Reducer
from ..hw.pipeline import Pipeline
from ..tables.genomic_tables import READS_SCHEMA
from ..tables.partition import PartitionId
from ..tables.table import Table
from .common import SOLO, as_ints
from .scheduler import WaveDriver


def build_markdup_pipeline(engine: Engine, name: str) -> Pipeline:
    """Wire one Figure 10 pipeline replica into ``engine``."""
    pipe = Pipeline(name, engine)
    reader = pipe.add(MemoryReader(f"{name}.qual", engine.memory, elem_size=1))
    summer = pipe.add(Reducer(f"{name}.sum", op="sum", field="value"))
    writer = pipe.add(MemoryWriter(f"{name}.writer", engine.memory, elem_size=4))
    engine.connect(reader, summer)
    engine.connect(summer, writer)
    return pipe


@dataclass
class MarkDupAccelResult:
    """Per-read quality sums plus simulation statistics.

    ``stats`` is ``None`` for partitions the scheduler never simulated
    (empty partitions have no reads to sum).
    """

    quality_sums: List[int]
    stats: Optional[RunStats]


@dataclass
class MarkdupWaveDriver(WaveDriver):
    """Waves of Figure 10 quality-sum replicas."""

    memory_config: Optional[MemoryConfig] = None
    mode: Optional[str] = None

    stage = "markdup"
    solo = "md"
    timing = "markdup"

    @classmethod
    def kernel_items(cls, workload):
        """Figure 10 streams the QUAL column of the whole read list."""
        return [(SOLO, workload.table)]

    def empty_result(self, pid: PartitionId) -> MarkDupAccelResult:
        return MarkDupAccelResult(quality_sums=[], stats=None)

    def build_replica(self, engine, name, part, spm, base):
        pipe = build_markdup_pipeline(engine, name)
        pipe.modules[f"{name}.qual"].set_items(
            [as_ints(item) for item in part.column("QUAL")]
        )
        return pipe

    def harvest(self, pipe, run) -> MarkDupAccelResult:
        writer = pipe.modules[f"{pipe.name}.writer"]
        return MarkDupAccelResult(
            quality_sums=[int(item[0]) for item in writer.items],
            stats=run.stats,
        )


def qual_table(quals: Sequence) -> Table:
    """Per-read QUAL arrays as the one READS column the Figure 10
    pipeline streams."""
    return Table(READS_SCHEMA.subset(["QUAL"]), {"QUAL": quals}, len(quals))


def run_quality_sums(
    quals: Sequence, memory_config: Optional[MemoryConfig] = None
) -> MarkDupAccelResult:
    """Simulate the quality-sum pipeline over per-read QUAL arrays."""
    return MarkdupWaveDriver(memory_config).run_one(qual_table(quals))


def accelerated_mark_duplicates(
    reads: Sequence[AlignedRead],
    memory_config: Optional[MemoryConfig] = None,
) -> MarkDuplicatesResult:
    """The full accelerated stage: hardware quality sums + host selection.

    The quality sums are computed in read-list order and handed to the
    host-side algorithm exactly as the paper's system does.
    """
    accel = run_quality_sums([read.qual for read in reads], memory_config)
    return mark_duplicates(reads, quality_sums=accel.quality_sums)
