"""Aligned read records.

An aligned read (paper Section II, "Genomic Read Data") carries the
chromosome it aligned to, the leftmost reference position, the base-pair
sequence, the per-base quality scores, the CIGAR alignment metadata, and a
handful of flags/metadata fields.  This module defines the in-memory record
used by the software baseline (:mod:`repro.gatk`) and converted to/from the
columnar READS table (:mod:`repro.tables.genomic_tables`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .cigar import Cigar
from .sequences import decode_sequence

#: SAM-style bit flags (the subset the preprocessing stages consult).
FLAG_PAIRED = 0x1
FLAG_PROPER_PAIR = 0x2
FLAG_UNMAPPED = 0x4
FLAG_MATE_UNMAPPED = 0x8
FLAG_REVERSE = 0x10
FLAG_MATE_REVERSE = 0x20
FLAG_FIRST_IN_PAIR = 0x40
FLAG_SECOND_IN_PAIR = 0x80
FLAG_SECONDARY = 0x100
FLAG_DUPLICATE = 0x400


@dataclass
class AlignedRead:
    """A single aligned read.

    Attributes mirror the READS table of Table I plus the SAM-style fields
    the GATK4 preprocessing stages need (flags, read group, mate info, and
    the NM/MD/UQ tags filled in by the metadata-update stage).
    """

    name: str
    chrom: int
    pos: int
    cigar: Cigar
    seq: np.ndarray
    qual: np.ndarray
    flags: int = 0
    mapq: int = 60
    read_group: int = 0
    mate_chrom: int = -1
    mate_pos: int = -1
    tags: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.seq = np.asarray(self.seq, dtype=np.uint8)
        self.qual = np.asarray(self.qual, dtype=np.uint8)
        if len(self.seq) != len(self.qual):
            raise ValueError("SEQ and QUAL must have equal length")
        if self.cigar.read_length() != len(self.seq):
            raise ValueError(
                f"CIGAR {self.cigar} describes {self.cigar.read_length()} bases "
                f"but SEQ has {len(self.seq)}"
            )

    # -- derived positions ---------------------------------------------------

    @property
    def end_pos(self) -> int:
        """Rightmost reference position covered (inclusive); ENDPOS in
        Table I."""
        return self.pos + self.cigar.reference_length() - 1

    @property
    def is_reverse(self) -> bool:
        """True when the read aligned to the reverse strand."""
        return bool(self.flags & FLAG_REVERSE)

    @property
    def is_paired(self) -> bool:
        """True for paired-end reads."""
        return bool(self.flags & FLAG_PAIRED)

    @property
    def is_duplicate(self) -> bool:
        """True once the mark-duplicates stage flagged this read."""
        return bool(self.flags & FLAG_DUPLICATE)

    def set_duplicate(self, value: bool = True) -> None:
        """Set or clear the duplicate flag."""
        if value:
            self.flags |= FLAG_DUPLICATE
        else:
            self.flags &= ~FLAG_DUPLICATE

    def unclipped_5prime(self) -> int:
        """The unclipped 5' coordinate used as the mark-duplicates key
        (Section IV-B): clip-adjusted start for forward reads, clip-adjusted
        end for reverse reads."""
        if self.is_reverse:
            return self.cigar.unclipped_end(self.pos)
        return self.cigar.unclipped_start(self.pos)

    # -- conveniences ----------------------------------------------------------

    @property
    def seq_str(self) -> str:
        """The base-pair sequence decoded to a string."""
        return decode_sequence(self.seq)

    @property
    def qual_str(self) -> str:
        """The base qualities as Phred+33 text (SAM/FASTQ QUAL), in one
        bytes operation: each score widened to a UTF-16 code unit, so
        every ``uint8`` score maps to ``chr(score + 33)``."""
        return (self.qual.astype(np.uint16) + 33).tobytes().decode("utf-16-le")

    def quality_sum(self) -> int:
        """Sum of all base quality scores; the quantity the mark-duplicates
        accelerator computes (Figure 10)."""
        return int(np.sum(self.qual, dtype=np.int64))

    def __repr__(self) -> str:
        return (
            f"AlignedRead({self.name!r}, chr={self.chrom}, pos={self.pos}, "
            f"cigar={self.cigar}, len={len(self.seq)})"
        )


def pair_key(read: AlignedRead, mate: Optional[AlignedRead] = None) -> tuple:
    """Mark-duplicates key for a read or a read pair.

    Footnote 1 of the paper: for paired-end data, the per-read unclipped 5'
    keys are concatenated to form the pair key.  Orientation is included the
    way Picard does, since two pairs only duplicate each other when their
    strands agree as well.
    """
    if mate is None:
        return (read.chrom, read.unclipped_5prime(), read.is_reverse)
    first = (read.chrom, read.unclipped_5prime(), read.is_reverse)
    second = (mate.chrom, mate.unclipped_5prime(), mate.is_reverse)
    return tuple(sorted([first, second]))
