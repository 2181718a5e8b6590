"""Minimal SAM-style text serialization for aligned reads.

Real pipelines exchange reads as SAM/BAM.  This module provides a small,
dependency-free text round-trip so examples can persist simulated data and
so the metadata-update stage's NM/MD/UQ tags appear in the familiar
``TAG:TYPE:VALUE`` form.  Only the fields the reproduction uses are encoded.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, TextIO

import numpy as np

from ..errors import InputError
from .cigar import Cigar
from .read import AlignedRead
from .reference import ReferenceGenome, chromosome_id, chromosome_name
from .sequences import encode_sequence

_HEADER_PREFIX = "@"


def _field(column: str, text: str, high: int) -> int:
    """The integer in ``text``, refused outside the SAM spec's
    ``0..high`` for ``column``."""
    value = int(text)
    if not 0 <= value <= high:
        raise InputError(f"{column} must be in 0..{high}, got {value}")
    return value


def _encode_tags(read: AlignedRead) -> List[str]:
    fields = [f"RG:Z:lane{read.read_group}"]
    for tag in ("NM", "UQ"):
        if tag in read.tags:
            fields.append(f"{tag}:i:{read.tags[tag]}")
    if "MD" in read.tags:
        fields.append(f"MD:Z:{read.tags['MD']}")
    return fields


def format_read(read: AlignedRead) -> str:
    """One SAM-style line for a read."""
    columns = [
        read.name,
        str(read.flags),
        chromosome_name(read.chrom),
        str(read.pos + 1),  # SAM is 1-based
        str(read.mapq),
        str(read.cigar),
        "=" if read.mate_chrom == read.chrom and read.is_paired else "*",
        str(read.mate_pos + 1) if read.mate_pos >= 0 else "0",
        "0",
        read.seq_str,
        read.qual_str,
    ]
    columns.extend(_encode_tags(read))
    return "\t".join(columns)


def parse_read(line: str) -> AlignedRead:
    """Parse one line produced by :func:`format_read`; a field outside
    the SAM spec's range (FLAG 0..65535, MAPQ 0..255, QUAL ``!``..``~``)
    or the READS table's (read group 0..255) is refused."""
    columns = line.rstrip("\n").split("\t")
    if len(columns) < 11:
        raise ValueError(f"malformed SAM line: {line!r}")
    name, flags, chrom, pos, mapq, cigar, _rnext, pnext, _tlen, seq, quals = columns[:11]
    if quals and not ("!" <= min(quals) and max(quals) <= "~"):
        bad = next(ch for ch in quals if not "!" <= ch <= "~")
        raise InputError(f"QUAL must be characters '!'..'~', got {bad!r}")
    read = AlignedRead(
        name=name,
        chrom=chromosome_id(chrom),
        pos=int(pos) - 1,
        cigar=Cigar.parse(cigar),
        seq=encode_sequence(seq),
        # checked '!'..'~' above, so ASCII and at least 33
        qual=np.frombuffer(quals.encode("ascii"), dtype=np.uint8) - 33,
        flags=_field("FLAG", flags, 0xFFFF),
        mapq=_field("MAPQ", mapq, 255),
        mate_pos=int(pnext) - 1,
    )
    for field in columns[11:]:
        tag, typ, value = field.split(":", 2)
        if tag == "RG":
            read.read_group = _field("RG", value.replace("lane", "") or "0", 255)
        elif typ == "i":
            read.tags[tag] = int(value)
        else:
            read.tags[tag] = value
    return read


def write_sam(handle: TextIO, reads: Iterable[AlignedRead],
              genome: Optional[ReferenceGenome] = None) -> int:
    """Write reads (and an @SQ header if a genome is given); returns the
    number of read lines written."""
    if genome is not None:
        for chrom in genome.chromosomes:
            handle.write(
                f"@SQ\tSN:{chromosome_name(chrom)}\tLN:{genome.length(chrom)}\n"
            )
    count = 0
    for read in reads:
        handle.write(format_read(read) + "\n")
        count += 1
    return count


def read_sam(handle: TextIO) -> List[AlignedRead]:
    """Parse all read lines from a SAM-style stream, skipping headers."""
    reads = []
    for line in handle:
        if not line.strip() or line.startswith(_HEADER_PREFIX):
            continue
        reads.append(parse_read(line))
    return reads
