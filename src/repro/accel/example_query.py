"""The paper's worked example: count matching bases per read (Figures 4-7).

The SQL of Figure 4 asks, for every read in partition P, how many of its
base pairs match the reference.  Figure 7 composes the hardware pipeline:

  five memory readers (POS, ENDPOS, CIGAR, SEQ, REFS.SEQ), an SPM holding
  the reference partition (loaded by an SPM Updater), an SPM Reader
  streaming each read's reference interval, ReadToBases, an inner Joiner
  keyed on position, a Filter comparing read base to reference base, a
  COUNT Reducer, and a Memory Writer.

:class:`ExampleQueryWaveDriver` is that pipeline as a stage (N replicas of
it behind one memory system are the Figure 8 ablation),
:func:`run_example_query` one replica of it;
:func:`count_matching_bases_sw` is the software reference semantics the
simulation is checked against (and what the SQL executor produces for the
Figure 4 query).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..genomics.cigar import decode_elements
from ..hw.engine import Engine
from ..hw.memory import MemoryConfig
from ..hw.modules import Filter, MemoryWriter, Reducer
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


def count_matching_bases_sw(partition: Table, ref_row: dict) -> List[int]:
    """Software reference: per-read count of bases equal to the reference."""
    ref_seq = ref_row["SEQ"]
    offset = int(ref_row["REFPOS"])
    counts = []
    for row in partition.rows():
        cigar = decode_elements(row["CIGAR"])
        seq = row["SEQ"]
        matches = 0
        for op, ref_pos, read_index in cigar.walk(int(row["POS"])):
            if op != "M":
                continue
            if int(seq[read_index]) == int(ref_seq[ref_pos - offset]):
                matches += 1
        counts.append(matches)
    return counts


def build_example_pipeline(
    engine: Engine, name: str, spm: Scratchpad, base: int
) -> Pipeline:
    """Wire one Figure 7 pipeline replica into ``engine``.

    Returns the pipeline; the caller feeds the reader streams
    (:func:`~repro.accel.common.feed_read_streams`) and reads results
    from the ``<name>.writer`` module's collected items.
    """
    pipe = Pipeline(name, engine)
    joiner = join_reads_to_reference(pipe, spm, base, "inner")
    match_filter = pipe.add(
        Filter(f"{name}.match", field="base", op="==", other_field="ref")
    )
    counter = pipe.add(Reducer(f"{name}.count", op="count", field="base"))
    writer = pipe.add(MemoryWriter(f"{name}.writer", engine.memory, elem_size=4))

    engine.connect(joiner, match_filter)
    engine.connect(match_filter, counter)
    engine.connect(counter, writer)
    return pipe


@dataclass
class ExampleQueryResult:
    """Per-read match counts plus simulation statistics.

    ``run`` is ``None`` for partitions the scheduler never simulated.
    """

    counts: List[int]
    run: Optional[AcceleratorRun]


@dataclass
class ExampleQueryWaveDriver(WaveDriver):
    """Waves of Figure 7 match-count replicas."""

    reference: PartitionedReference
    memory_config: Optional[MemoryConfig] = None
    mode: Optional[str] = None

    stage = "example"
    solo = "ex"
    uses_reference = True

    def empty_result(self, pid: PartitionId) -> ExampleQueryResult:
        return ExampleQueryResult(counts=[], run=None)

    def build_replica(self, engine, name, part, spm, base):
        pipe = build_example_pipeline(engine, name, spm, base)
        feed_read_streams(pipe, part)
        return pipe

    def harvest(self, pipe, run) -> ExampleQueryResult:
        writer = pipe.modules[f"{pipe.name}.writer"]
        return ExampleQueryResult(
            counts=[int(item[0]) for item in writer.items], run=run
        )


def run_example_query(
    partition: Table,
    ref_row: dict,
    memory_config: Optional[MemoryConfig] = None,
) -> ExampleQueryResult:
    """Simulate the Figure 7 pipeline on one partition."""
    driver = ExampleQueryWaveDriver(solo_reference(ref_row), memory_config)
    return driver.run_one(partition)
