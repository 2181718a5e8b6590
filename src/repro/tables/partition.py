"""Partitioning of READS and REF by (chromosome, position).

Section III-B: both tables are pre-partitioned so a read can find its
reference fragment by partition ID (PID).  The nth read partition of a
chromosome holds reads whose POS falls in ``[(n-1)*PSIZE, n*PSIZE]``; the
matching reference partition holds positions ``[(n-1)*PSIZE,
n*PSIZE + LEN]`` so reads straddling the boundary still see their full
reference span.  The paper uses PSIZE = 1 Mbp; it is configurable here so
laptop-scale workloads keep a realistic number of partitions.

For BQSR the reads are additionally partitioned by read group
(Section IV-D); :func:`partition_reads_by_group` implements that refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from ..genomics.reference import ReferenceGenome
from .genomic_tables import REF_SCHEMA, reference_to_table
from .table import Table


@dataclass(frozen=True)
class PartitionId:
    """A partition identifier: chromosome + segment index (+ read group for
    BQSR-style partitioning; -1 when unused)."""

    chrom: int
    segment: int
    read_group: int = -1

    def __post_init__(self) -> None:
        # keys every result and reference dict: hash the fields once
        object.__setattr__(
            self, "_hash", hash((self.chrom, self.segment, self.read_group))
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self.read_group >= 0:
            return f"chr{self.chrom}:{self.segment}:rg{self.read_group}"
        return f"chr{self.chrom}:{self.segment}"


class PartitionedReads:
    """READS split into per-PID tables."""

    def __init__(self, psize: int, partitions: Dict[PartitionId, Table]):
        self.psize = psize
        self._partitions = dict(partitions)

    @property
    def pids(self) -> List[PartitionId]:
        """All partition ids, ordered by (chrom, segment, read group)."""
        return sorted(
            self._partitions,
            key=lambda p: (p.chrom, p.segment, p.read_group),
        )

    def __getitem__(self, pid: PartitionId) -> Table:
        return self._partitions[pid]

    def __len__(self) -> int:
        return len(self._partitions)

    def __iter__(self) -> Iterator[Tuple[PartitionId, Table]]:
        for pid in self.pids:
            yield pid, self._partitions[pid]

    def total_rows(self) -> int:
        """Total reads across all partitions."""
        return sum(table.num_rows for table in self._partitions.values())


def partition_reads(reads: Table, psize: int) -> PartitionedReads:
    """Partition a READS table by (CHR, POS // PSIZE)."""
    if psize <= 0:
        raise ValueError("psize must be positive")
    chroms = np.asarray(reads.column("CHR"))
    positions = np.asarray(reads.column("POS"))
    segments = positions // psize
    buckets: Dict[PartitionId, List[int]] = {}
    for index in range(reads.num_rows):
        pid = PartitionId(int(chroms[index]), int(segments[index]))
        buckets.setdefault(pid, []).append(index)
    partitions = {pid: reads.take(rows) for pid, rows in buckets.items()}
    return PartitionedReads(psize, partitions)


def partition_reads_by_group(reads: Table, psize: int) -> PartitionedReads:
    """Partition READS by (CHR, POS // PSIZE, RG) — the BQSR refinement."""
    if psize <= 0:
        raise ValueError("psize must be positive")
    chroms = np.asarray(reads.column("CHR"))
    positions = np.asarray(reads.column("POS"))
    groups = np.asarray(reads.column("RG"))
    segments = positions // psize
    buckets: Dict[PartitionId, List[int]] = {}
    for index in range(reads.num_rows):
        pid = PartitionId(int(chroms[index]), int(segments[index]), int(groups[index]))
        buckets.setdefault(pid, []).append(index)
    partitions = {pid: reads.take(rows) for pid, rows in buckets.items()}
    return PartitionedReads(psize, partitions)


class PartitionedReference:
    """REF split so that partition (chrom, n) serves read partition
    (chrom, n) directly, per the paper's PID correspondence."""

    def __init__(self, psize: int, overlap: int, partitions: Dict[Tuple[int, int], dict]):
        self.psize = psize
        self.overlap = overlap
        self._partitions = dict(partitions)

    def lookup(self, pid: PartitionId) -> dict:
        """REF row (as a dict) for a read partition's PID."""
        return self._partitions[(pid.chrom, pid.segment)]

    def __contains__(self, pid: PartitionId) -> bool:
        return (pid.chrom, pid.segment) in self._partitions

    def only(self, pids: Iterable[PartitionId]) -> "PartitionedReference":
        """The same reference cut to the rows serving ``pids``."""
        return PartitionedReference(self.psize, self.overlap, {
            (pid.chrom, pid.segment): self.lookup(pid) for pid in pids
        })

    def __len__(self) -> int:
        return len(self._partitions)


def partition_reference(
    genome: ReferenceGenome, psize: int, overlap: int
) -> PartitionedReference:
    """Build the partitioned REF table from a genome (Section III-B)."""
    table = reference_to_table(genome, psize, overlap)
    partitions: Dict[Tuple[int, int], dict] = {}
    for row in table.rows():
        key = (int(row["CHR"]), int(row["REFPOS"]) // psize)
        partitions[key] = row
    return PartitionedReference(psize, overlap, partitions)


def reference_row_table(ref_row: dict) -> Table:
    """Wrap one REF partition row back into a single-row Table (the
    ``ReferenceRow`` table of the Figure 4 query)."""
    return Table.from_rows(REF_SCHEMA, [{
        "CHR": ref_row["CHR"],
        "REFPOS": ref_row["REFPOS"],
        "SEQ": ref_row["SEQ"],
        "IS_SNP": ref_row["IS_SNP"],
    }])
