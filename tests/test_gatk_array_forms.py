"""The GATK baseline's array passes against its per-base walks.

Covariate tables, NM/MD/UQ and recalibrated QUAL are each computed one
CIGAR run or one table lookup at a time in ``repro.gatk``; the per-base
loops they replaced live in ``gatk_reference`` and must agree bit for
bit on every read drawn here.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatk_reference import (
    walk_accumulate_read,
    walk_apply_recalibration,
    walk_covariate_tables,
    walk_read_metadata,
)
from repro.errors import InputError
from repro.gatk.bqsr import (
    BLOCK_READS,
    MAX_QUALITY,
    CovariateTables,
    accumulate_read,
    apply_recalibration,
    build_covariate_tables,
    fit_recalibration_model,
)
from repro.gatk.metadata import compute_read_metadata, compute_read_metadata_fragment
from repro.genomics.cigar import Cigar, CigarElement
from repro.genomics.read import FLAG_REVERSE, AlignedRead
from repro.genomics.reference import Chromosome, ReferenceGenome
from repro.genomics.sequences import N_CODE

CHROM_LENGTHS = {1: 90, 2: 40}


@st.composite
def bodies(draw):
    """CIGAR bodies: M runs between I/D runs of 1-6 bases, D·I·D and
    other non-canonical neighbours included, or no M base at all."""
    if draw(st.integers(0, 9)) == 0:
        return [
            (draw(st.integers(1, 6)), draw(st.sampled_from("ID")))
            for _ in range(draw(st.integers(1, 3)))
        ]
    body = [(draw(st.integers(1, 25)), "M")]
    for _ in range(draw(st.integers(0, 4))):
        gap = draw(st.sampled_from(["I", "D", "DID", "ID", "DI"]))
        body += [(draw(st.integers(1, 6)), op) for op in gap]
        body.append((draw(st.integers(1, 25)), "M"))
    return body


@st.composite
def genome_and_reads(draw):
    """A two-chromosome genome with N bases and SNP sites, and 1-8 reads
    on it: soft clips at both ends, reverse strands, N bases, 1-3 read
    groups, some reads ending on their chromosome's last base."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    snp_rate = draw(st.sampled_from([0.0, 0.1, 0.5]))
    chromosomes = []
    for chrom, length in CHROM_LENGTHS.items():
        seq = rng.integers(0, 4, length).astype(np.uint8)
        seq[rng.random(length) < 0.03] = N_CODE
        chromosomes.append(Chromosome(chrom, seq, rng.random(length) < snp_rate))
    genome = ReferenceGenome(chromosomes)
    groups = draw(st.sampled_from([[0], [0, 5], [3, 1, 2]]))
    reads = []
    for index in range(draw(st.integers(1, 8))):
        pairs = draw(bodies())
        for end in (0, len(pairs) + 1):
            if draw(st.booleans()):
                pairs.insert(end, (draw(st.integers(1, 5)), "S"))
        cigar = Cigar([CigarElement(n, op) for n, op in pairs])
        chrom = draw(st.sampled_from(sorted(CHROM_LENGTHS)))
        last_start = CHROM_LENGTHS[chrom] - cigar.reference_length()
        if last_start < 0:
            continue
        pos = last_start if draw(st.booleans()) else draw(st.integers(0, last_start))
        n = cigar.read_length()
        seq = rng.integers(0, 4, n).astype(np.uint8)
        seq[rng.random(n) < 0.05] = N_CODE
        reads.append(AlignedRead(
            name=f"r{index}", chrom=chrom, pos=pos, cigar=cigar, seq=seq,
            qual=rng.integers(0, MAX_QUALITY, n).astype(np.uint8),
            flags=FLAG_REVERSE if draw(st.booleans()) else 0,
            read_group=draw(st.sampled_from(groups)),
        ))
    return genome, reads


def assert_tables_equal(got, want):
    assert list(got) == list(want)
    for group, table in want.items():
        assert got[group].read_length == table.read_length
        for name in ("total_cycle", "error_cycle", "total_context", "error_context"):
            assert np.array_equal(getattr(got[group], name), getattr(table, name))


@given(genome_and_reads(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_array_forms_match_the_per_base_walks(drawn, extra_length):
    genome, reads = drawn
    read_length = max([len(read.seq) for read in reads], default=1) + extra_length

    tables = build_covariate_tables(reads, genome, read_length)
    assert_tables_equal(tables, walk_covariate_tables(reads, genome, read_length))
    for read in reads:
        one, walked = CovariateTables(read_length), CovariateTables(read_length)
        accumulate_read(one, read, genome)
        walk_accumulate_read(walked, read, genome)
        assert_tables_equal({0: one}, {0: walked})

    for read in reads:
        ref = genome[read.chrom].seq
        assert compute_read_metadata(read, genome) == walk_read_metadata(read, ref)
        start = read.pos - (read.pos > 0)
        fragment = ref[start:read.pos + read.cigar.reference_length() + 1]
        assert compute_read_metadata_fragment(read, fragment, start) == (
            walk_read_metadata(read, fragment, start)
        )

    models = {group: fit_recalibration_model(t) for group, t in tables.items()}
    models.pop(next(iter(models), None), None)  # a group with no model is left alone
    high = np.array([64, 93, 255, 7, 150], dtype=np.uint8)
    for read in reads:  # every uint8 quality is looked up, not just the binned ones
        read.qual[::3] = np.resize(high, len(read.qual[::3]))
    walked = copy.deepcopy(reads)
    assert apply_recalibration(reads, models) == walk_apply_recalibration(
        walked, models
    )
    for read, want in zip(reads, walked):
        assert read.qual.dtype == np.uint8
        assert np.array_equal(read.qual, want.qual)


def test_blocks_of_reads_count_as_one_pass():
    """More reads than one block, all in one group, and reads of other
    groups between them."""
    rng = np.random.default_rng(3)
    seq = rng.integers(0, 4, 400).astype(np.uint8)
    genome = ReferenceGenome([Chromosome(1, seq, rng.random(400) < 0.05)])
    reads = [
        AlignedRead(
            name=f"r{i}", chrom=1, pos=int(rng.integers(0, 380)),
            cigar=Cigar.parse("2S6M1D4M1I3M"), seq=rng.integers(0, 4, 16),
            qual=rng.integers(2, 42, 16), flags=FLAG_REVERSE * (i % 2),
            read_group=int(i % 7 == 0),
        )
        for i in range(3 * BLOCK_READS + 5)
    ]
    assert_tables_equal(
        build_covariate_tables(reads, genome, 16),
        walk_covariate_tables(reads, genome, 16),
    )


def test_cycles_past_the_model_take_no_cycle_delta():
    """A read longer than the model's read length looks up cycles past
    its cycle deltas, as the per-base walk's ``dict.get`` does."""
    genome = ReferenceGenome([Chromosome(1, np.zeros(40, np.uint8), np.zeros(40, bool))])
    rng = np.random.default_rng(8)
    train = [
        AlignedRead(name="t", chrom=1, pos=p, cigar=Cigar.parse("4M"),
                    seq=rng.integers(0, 2, 4), qual=np.full(4, 20), flags=f)
        for p in range(0, 30, 3) for f in (0, FLAG_REVERSE)
    ]
    model = fit_recalibration_model(build_covariate_tables(train, genome, 4)[0])
    assert model.cycle_delta
    reads = [
        AlignedRead(name="long", chrom=1, pos=0, cigar=Cigar.parse("9M"),
                    seq=rng.integers(0, 4, 9), qual=np.full(9, 20), flags=f)
        for f in (0, FLAG_REVERSE)
    ]
    walked = copy.deepcopy(reads)
    apply_recalibration(reads, {0: model})
    walk_apply_recalibration(walked, {0: model})
    for read, want in zip(reads, walked):
        assert np.array_equal(read.qual, want.qual)


@pytest.mark.parametrize("quality", [MAX_QUALITY, 93])
def test_qualities_past_the_tables_are_refused(quality):
    """Q >= MAX_QUALITY has no row in the covariate tables: the array
    pass refuses it, naming the read and the quality, where ``bincount``
    would silently grow the tables."""
    genome = ReferenceGenome([Chromosome(1, np.zeros(10, np.uint8), np.zeros(10, bool))])
    qual = np.full(4, 30, dtype=np.uint8)
    qual[2] = quality
    read = AlignedRead(name="high", chrom=1, pos=0, cigar=Cigar.parse("4M"),
                       seq=np.zeros(4, np.uint8), qual=qual)
    with pytest.raises(InputError, match=rf"'high'.*quality {quality}\b"):
        build_covariate_tables([read], genome, 4)
    table = CovariateTables(4)
    with pytest.raises(InputError, match=rf"'high'.*quality {quality}\b"):
        accumulate_read(table, read, genome)
    assert table.observations() == 0


def test_a_snp_site_quality_is_not_binned_so_not_refused():
    """The refusal covers what would be counted: a high quality at a
    known SNP site is filtered first, as the per-base walk skips it."""
    snp = np.zeros(10, bool)
    snp[1] = True
    genome = ReferenceGenome([Chromosome(1, np.zeros(10, np.uint8), snp)])
    read = AlignedRead(name="snp", chrom=1, pos=0, cigar=Cigar.parse("3M"),
                       seq=np.zeros(3, np.uint8), qual=[30, 93, 30])
    table = build_covariate_tables([read], genome, 3)[0]
    assert table.observations() == 2


@pytest.mark.parametrize("start", [3, 5])
def test_a_fragment_that_misses_the_read_is_refused(start):
    """A reference fragment must hold every position the read aligns to:
    one that starts after the read (a negative index the per-base walk
    read from the fragment's end) or ends before it is refused."""
    ref = np.zeros(20, np.uint8)
    read = AlignedRead(name="r", chrom=1, pos=4, cigar=Cigar.parse("3M2D3M"),
                       seq=np.zeros(6, np.uint8), qual=np.full(6, 30))
    fragment = ref[start:start + 8]  # positions start .. start + 7; read spans 4..11
    with pytest.raises(IndexError, match="lie outside"):
        compute_read_metadata_fragment(read, fragment, start)
