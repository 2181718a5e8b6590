"""The READS and REF tables of Genesis (Table I) and conversions.

``READS``: CHR uint8, POS uint32, ENDPOS uint32, CIGAR uint16[], SEQ uint8[],
QUAL uint8[] — plus the auxiliary columns the preprocessing stages consult
(FLAGS, RG, and a stable ROWID for joining results back).

``REF``: CHR uint8, REFPOS uint32, SEQ uint8[], IS_SNP bool[] — one row per
reference *segment* of PSIZE base pairs (plus a LEN-sized overlap tail so
reads that straddle a partition boundary still find their reference bases,
exactly as the paper's partitioning prescribes in Section III-B).
"""

from __future__ import annotations

from typing import List, Sequence


from ..genomics.cigar import decode_elements, encode_elements
from ..genomics.read import AlignedRead
from ..genomics.reference import ReferenceGenome
from .schema import Schema
from .table import Table

#: Schema of the READS table (Table I plus bookkeeping columns).
READS_SCHEMA = Schema.of(
    ROWID="int64",
    CHR="uint8",
    POS="uint32",
    ENDPOS="uint32",
    CIGAR="uint16[]",
    SEQ="uint8[]",
    QUAL="uint8[]",
    FLAGS="uint32",
    RG="uint8",
)

#: Schema of the REF table (Table I).
REF_SCHEMA = Schema.of(
    CHR="uint8",
    REFPOS="uint32",
    SEQ="uint8[]",
    IS_SNP="bool[]",
)


def reads_to_table(reads: Sequence[AlignedRead]) -> Table:
    """Convert aligned reads into the columnar READS table."""
    rows = []
    for rowid, read in enumerate(reads):
        rows.append({
            "ROWID": rowid,
            "CHR": read.chrom,
            "POS": read.pos,
            "ENDPOS": read.end_pos,
            "CIGAR": encode_elements(read.cigar),
            "SEQ": read.seq,
            "QUAL": read.qual,
            "FLAGS": read.flags,
            "RG": read.read_group,
        })
    return Table.from_rows(READS_SCHEMA, rows)


def table_to_reads(table: Table) -> List[AlignedRead]:
    """Convert a READS table back to :class:`AlignedRead` records.

    Read names are synthesized from ROWID; the preprocessing stages never
    consult names, only coordinates, CIGARs, sequences, and flags.
    """
    reads = []
    for row in table.rows():
        reads.append(AlignedRead(
            name=f"row{row['ROWID']}",
            chrom=int(row["CHR"]),
            pos=int(row["POS"]),
            cigar=decode_elements(row["CIGAR"]),
            seq=row["SEQ"],
            qual=row["QUAL"],
            flags=int(row["FLAGS"]),
            read_group=int(row["RG"]),
        ))
    return reads


def reference_to_table(genome: ReferenceGenome, psize: int, overlap: int) -> Table:
    """Fragment a reference genome into the REF table.

    Each row covers positions ``[n*psize, (n+1)*psize + overlap)`` of one
    chromosome: PSIZE bases plus a LEN-sized overlap so any read starting
    inside the segment finds its whole reference span in the same row
    (Section III-B: segments hold positions up to ``n*PSIZE + LEN``).
    """
    if psize <= 0 or overlap < 0:
        raise ValueError("psize must be positive and overlap non-negative")
    rows = []
    for chrom in genome.chromosomes:
        length = genome.length(chrom)
        for start in range(0, length, psize):
            end = min(length, start + psize + overlap)
            rows.append({
                "CHR": chrom,
                "REFPOS": start,
                "SEQ": genome.fetch(chrom, start, end),
                "IS_SNP": genome.fetch_snp(chrom, start, end),
            })
    return Table.from_rows(REF_SCHEMA, rows)


def table_bytes(table: Table, names: Sequence[str] = None) -> int:
    """Total payload bytes of the given columns (all columns by default).

    This is the quantity the runtime's transfer model charges when a column
    is shipped over PCIe to the accelerator (Section III-E / V-B).
    """
    names = list(names) if names is not None else list(table.schema.names)
    total = 0
    for name in names:
        spec = table.schema[name]
        data = table.column(name)
        if spec.is_array:
            total += sum(len(array) for array in data) * spec.element_size
        else:
            total += len(data) * spec.element_size
    return total


def count_bases(table: Table) -> int:
    """Total number of read base pairs in a READS table."""
    return int(sum(len(seq) for seq in table.column("SEQ")))


def _check_reads_schema(table: Table) -> None:
    for name in ("CHR", "POS", "ENDPOS", "CIGAR", "SEQ", "QUAL"):
        if name not in table.schema:
            raise ValueError(f"not a READS table: missing column {name}")


def validate_reads_table(table: Table) -> None:
    """Sanity-check READS invariants: ENDPOS consistency with CIGAR and
    SEQ/QUAL length agreement.  Raises ``ValueError`` on violation."""
    _check_reads_schema(table)
    for row in table.rows():
        cigar = decode_elements(row["CIGAR"])
        if len(row["SEQ"]) != len(row["QUAL"]):
            raise ValueError(f"row {row.get('ROWID')}: SEQ/QUAL length mismatch")
        if cigar.read_length() != len(row["SEQ"]):
            raise ValueError(f"row {row.get('ROWID')}: CIGAR/SEQ length mismatch")
        end = int(row["POS"]) + cigar.reference_length() - 1
        if end != int(row["ENDPOS"]):
            raise ValueError(f"row {row.get('ROWID')}: ENDPOS inconsistent")
