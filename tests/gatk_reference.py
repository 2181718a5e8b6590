"""The per-base walks of the GATK baseline, kept as the reference for its
array passes (``repro.gatk.bqsr`` and ``repro.gatk.metadata``).

Each function is the baseline's loop as it stood before the array form
replaced it: one ``Cigar.walk`` step, one dictionary or table access per
base.  Tests hold the array forms to these bit for bit.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.gatk.bqsr import CovariateTables, RecalibrationModel, context_of, cycle_of
from repro.gatk.metadata import MdBuilder, ReadMetadata
from repro.genomics.read import AlignedRead
from repro.genomics.reference import ReferenceGenome


def walk_covariate_tables(
    reads: Sequence[AlignedRead], genome: ReferenceGenome, read_length: int
) -> Dict[int, CovariateTables]:
    """``build_covariate_tables``, one base at a time."""
    tables: Dict[int, CovariateTables] = {}
    for read in reads:
        table = tables.get(read.read_group)
        if table is None:
            table = tables[read.read_group] = CovariateTables(read_length)
        walk_accumulate_read(table, read, genome)
    return tables


def walk_accumulate_read(
    table: CovariateTables, read: AlignedRead, genome: ReferenceGenome
) -> None:
    """``accumulate_read``, one base at a time."""
    chromosome = genome[read.chrom]
    ref = chromosome.seq
    is_snp = chromosome.is_snp
    for op, ref_pos, read_index in read.cigar.walk(read.pos):
        if op != "M":
            continue
        if is_snp[ref_pos]:
            continue
        quality = int(read.qual[read_index])
        error = int(read.seq[read_index]) != int(ref[ref_pos])
        cycle = cycle_of(read, read_index, table.read_length)
        b1 = table.bin_cycle(quality, cycle)
        table.total_cycle[b1] += 1
        if error:
            table.error_cycle[b1] += 1
        context = context_of(read, read_index)
        if context >= 0:
            b2 = table.bin_context(quality, context)
            table.total_context[b2] += 1
            if error:
                table.error_context[b2] += 1


def walk_read_metadata(read: AlignedRead, ref, ref_offset: int = 0) -> ReadMetadata:
    """``compute_read_metadata_fragment``, one base at a time (``ref``
    holds the reference from position ``ref_offset`` on)."""
    nm = 0
    uq = 0
    md = MdBuilder()
    for op, ref_pos, read_index in read.cigar.walk(read.pos):
        if op == "M":
            ref_base = int(ref[ref_pos - ref_offset])
            read_base = int(read.seq[read_index])
            if read_base == ref_base:
                md.match()
            else:
                md.mismatch(ref_base)
                nm += 1
                uq += int(read.qual[read_index])
        elif op == "I":
            nm += 1
        elif op == "D":
            md.deletion(int(ref[ref_pos - ref_offset]))
            nm += 1
    return ReadMetadata(nm=nm, md=md.finish(), uq=uq)


def walk_apply_recalibration(
    reads: Sequence[AlignedRead], models: Dict[int, RecalibrationModel]
) -> int:
    """``apply_recalibration``, one ``RecalibrationModel.recalibrate``
    call per base."""
    changed = 0
    for read in reads:
        model = models.get(read.read_group)
        if model is None:
            continue
        new_qual = read.qual.copy()
        for index in range(len(read.seq)):
            quality = int(read.qual[index])
            cycle = cycle_of(read, index, model.read_length)
            context = context_of(read, index)
            new_qual[index] = model.recalibrate(quality, cycle, context)
        changed += int((new_qual != read.qual).sum())
        read.qual = new_qual
    return changed
