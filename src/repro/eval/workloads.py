"""Standard synthetic workloads for the evaluation harness.

The paper evaluates on NA12878 (~700 M reads, 151 bp) against GRCh38 with
dbSNP138 sites.  The reproduction's workloads are laptop-scale synthetic
equivalents (see DESIGN.md): a GRCh38-proportioned genome, Illumina-like
reads with PCR duplicates and lane structure, and the paper's partitioning
scheme.  Timing experiments measure cycles-per-base on these workloads and
extrapolate to paper scale through :mod:`repro.perf`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..genomics.read import AlignedRead
from ..genomics.reference import CHROMOSOMES, ReferenceGenome
from ..genomics.simulator import ReadSimulator, SimulatorConfig
from ..tables.genomic_tables import reads_to_table
from ..tables.partition import (
    PartitionedReads,
    PartitionedReference,
    partition_reads,
    partition_reads_by_group,
    partition_reference,
)
from ..tables.table import Table


@dataclass
class Workload:
    """A fully prepared evaluation workload."""

    genome: ReferenceGenome
    reads: List[AlignedRead]
    table: Table
    partitions: PartitionedReads
    group_partitions: PartitionedReads
    reference: PartitionedReference
    read_length: int
    psize: int
    overlap: int

    @property
    def n_reads(self) -> int:
        """Total reads in the workload."""
        return len(self.reads)

    def reads_on_chromosome(self, chrom: int) -> int:
        """Read count aligned to one chromosome."""
        return sum(1 for read in self.reads if read.chrom == chrom)


def make_workload(
    n_reads: int = 400,
    read_length: int = 100,
    genome_scale: float = 2e-6,
    psize: int = 4000,
    snp_rate: float = 0.002,
    read_groups: int = 4,
    seed: int = 7,
    chromosomes=None,
    duplicate_rate: float = 0.15,
) -> Workload:
    """Build the standard synthetic workload.

    Defaults give a few hundred reads across all 24 GRCh38-proportioned
    chromosomes with several partitions per chromosome — small enough for
    cycle simulation, structured enough to exercise every code path.
    """
    genome = ReferenceGenome.grch38_like(
        scale=genome_scale,
        snp_rate=snp_rate,
        seed=seed,
        chromosomes=chromosomes or CHROMOSOMES,
    )
    config = SimulatorConfig(
        read_length=read_length,
        read_groups=read_groups,
        duplicate_rate=duplicate_rate,
        seed=seed + 1,
    )
    simulator = ReadSimulator(genome, config)
    reads = simulator.simulate(n_reads)
    table = reads_to_table(reads)
    overlap = read_length + 3 * config.max_indel_length + 8
    return Workload(
        genome=genome,
        reads=reads,
        table=table,
        partitions=partition_reads(table, psize),
        group_partitions=partition_reads_by_group(table, psize),
        reference=partition_reference(genome, psize, overlap),
        read_length=read_length,
        psize=psize,
        overlap=overlap,
    )
