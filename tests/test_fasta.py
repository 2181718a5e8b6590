"""Tests for FASTA/FASTQ I/O."""

import io

import numpy as np
import pytest

from repro.genomics.fasta import (
    read_fasta,
    read_fastq,
    write_fasta,
    write_fastq,
)
from repro.genomics.reference import ReferenceGenome


def test_fasta_roundtrip(two_chrom_genome):
    buffer = io.StringIO()
    count = write_fasta(buffer, two_chrom_genome)
    assert count == 2
    buffer.seek(0)
    back = read_fasta(buffer)
    assert back.chromosomes == two_chrom_genome.chromosomes
    for chrom in back.chromosomes:
        assert np.array_equal(back[chrom].seq, two_chrom_genome[chrom].seq)


def test_fasta_line_wrapping(small_genome):
    buffer = io.StringIO()
    write_fasta(buffer, small_genome)
    for line in buffer.getvalue().splitlines():
        assert len(line) <= 70


def test_fasta_chromosome_names():
    genome = ReferenceGenome.random({23: 100, 24: 100}, seed=1)
    buffer = io.StringIO()
    write_fasta(buffer, genome)
    text = buffer.getvalue()
    assert ">chrX" in text and ">chrY" in text
    buffer.seek(0)
    assert read_fasta(buffer).chromosomes == [23, 24]


def test_fasta_synthetic_snp_bitmap(small_genome):
    buffer = io.StringIO()
    write_fasta(buffer, small_genome)
    buffer.seek(0)
    back = read_fasta(buffer, snp_rate=0.05, seed=3)
    rate = back[1].is_snp.mean()
    assert 0.02 < rate < 0.09


def test_fastq_roundtrip(small_reads):
    buffer = io.StringIO()
    count = write_fastq(buffer, small_reads)
    assert count == len(small_reads)
    buffer.seek(0)
    records = read_fastq(buffer)
    assert len(records) == len(small_reads)
    for read, (name, seq, qual) in zip(small_reads, records):
        assert name == read.name
        assert np.array_equal(seq, read.seq)
        assert np.array_equal(qual, read.qual)


def test_fastq_malformed():
    with pytest.raises(ValueError):
        read_fastq(io.StringIO("@r1\nACGT\n+\n"))  # not a multiple of 4
    with pytest.raises(ValueError):
        read_fastq(io.StringIO("r1\nACGT\n+\n!!!!\n"))  # missing @
    with pytest.raises(ValueError):
        read_fastq(io.StringIO("@r1\nACGT\n+\n!!!\n"))  # length mismatch
