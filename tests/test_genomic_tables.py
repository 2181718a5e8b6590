"""Unit tests for the READS/REF tables (Table I)."""

import numpy as np
import pytest

from repro.tables.genomic_tables import (
    READS_SCHEMA,
    REF_SCHEMA,
    count_bases,
    reads_to_table,
    reference_to_table,
    table_bytes,
    table_to_reads,
    validate_reads_table,
)


def test_reads_schema_matches_table1():
    # Table I column types.
    assert READS_SCHEMA["CHR"].kind == "uint8"
    assert READS_SCHEMA["POS"].kind == "uint32"
    assert READS_SCHEMA["ENDPOS"].kind == "uint32"
    assert READS_SCHEMA["CIGAR"].kind == "uint16[]"
    assert READS_SCHEMA["SEQ"].kind == "uint8[]"
    assert READS_SCHEMA["QUAL"].kind == "uint8[]"


def test_ref_schema_matches_table1():
    assert REF_SCHEMA["CHR"].kind == "uint8"
    assert REF_SCHEMA["REFPOS"].kind == "uint32"
    assert REF_SCHEMA["SEQ"].kind == "uint8[]"
    assert REF_SCHEMA["IS_SNP"].kind == "bool[]"


def test_reads_roundtrip(small_reads):
    table = reads_to_table(small_reads)
    assert table.num_rows == len(small_reads)
    back = table_to_reads(table)
    for original, roundtrip in zip(small_reads, back):
        assert roundtrip.chrom == original.chrom
        assert roundtrip.pos == original.pos
        assert roundtrip.cigar == original.cigar
        assert np.array_equal(roundtrip.seq, original.seq)
        assert np.array_equal(roundtrip.qual, original.qual)
        assert roundtrip.flags == original.flags
        assert roundtrip.read_group == original.read_group


def test_endpos_column(small_reads):
    table = reads_to_table(small_reads)
    for read, endpos in zip(small_reads, table.column("ENDPOS")):
        assert int(endpos) == read.end_pos


def test_validate_accepts_good_table(small_reads):
    validate_reads_table(reads_to_table(small_reads))


def test_validate_rejects_bad_endpos(small_reads):
    table = reads_to_table(small_reads)
    table.column("ENDPOS")[0] += 1
    with pytest.raises(ValueError):
        validate_reads_table(table)


def test_reference_to_table_partitions(small_genome):
    table = reference_to_table(small_genome, psize=1000, overlap=100)
    assert table.num_rows == 5  # 5000 bp / 1000
    first = table.row(0)
    assert first["REFPOS"] == 0
    assert len(first["SEQ"]) == 1100  # psize + overlap
    last = table.row(4)
    assert last["REFPOS"] == 4000
    assert len(last["SEQ"]) == 1000  # clipped at the chromosome end


def test_reference_rows_cover_genome(small_genome):
    table = reference_to_table(small_genome, psize=1000, overlap=100)
    covered = 0
    for row in table.rows():
        covered += min(1000, len(row["SEQ"]))
    assert covered == small_genome.total_length()


def test_reference_overlap_content(small_genome):
    table = reference_to_table(small_genome, psize=1000, overlap=50)
    first = table.row(0)
    second = table.row(1)
    # The overlap tail of row 0 equals the head of row 1.
    assert np.array_equal(first["SEQ"][1000:1050], second["SEQ"][:50])


def test_reference_validation():
    with pytest.raises(ValueError):
        reference_to_table(None, psize=0, overlap=1)


def test_table_bytes(small_reads):
    table = reads_to_table(small_reads)
    qual_bytes = table_bytes(table, ["QUAL"])
    assert qual_bytes == sum(len(r.qual) for r in small_reads)
    pos_bytes = table_bytes(table, ["POS"])
    assert pos_bytes == 4 * len(small_reads)
    assert table_bytes(table) > qual_bytes + pos_bytes


def test_count_bases(small_reads):
    table = reads_to_table(small_reads)
    assert count_bases(table) == sum(len(r.seq) for r in small_reads)
