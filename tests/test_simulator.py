"""Unit tests for the Illumina-like read simulator.

The simulator draws a read's clean stretches of aligned bases in array
passes; ``simulator_reference.WalkSimulator`` takes the same draws one at a
time and must agree with it bit for bit, generator state included.
"""

import dataclasses
import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InputError
from repro.eval.workloads import make_workload
from repro.genomics.read import pair_key
from repro.genomics.reference import ReferenceGenome
from repro.genomics.sam import write_sam
from repro.genomics.simulator import ReadSimulator, SimulatorConfig
from simulator_reference import WalkSimulator


@pytest.fixture(scope="module")
def genome():
    return ReferenceGenome.random({1: 8000, 2: 4000}, seed=42)


def test_reads_have_machine_length(genome):
    sim = ReadSimulator(genome, SimulatorConfig(seed=1, read_length=75))
    for read in sim.simulate(50):
        assert len(read.seq) == 75
        assert len(read.qual) == 75
        assert read.cigar.read_length() == 75


def test_reads_sorted_by_coordinate(genome):
    sim = ReadSimulator(genome, SimulatorConfig(seed=2))
    reads = sim.simulate(60)
    keys = [(r.chrom, r.pos) for r in reads]
    assert keys == sorted(keys)


def test_deterministic_with_seed(genome):
    a = ReadSimulator(genome, SimulatorConfig(seed=3)).simulate(30)
    b = ReadSimulator(genome, SimulatorConfig(seed=3)).simulate(30)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.pos == rb.pos
        assert str(ra.cigar) == str(rb.cigar)
        assert np.array_equal(ra.seq, rb.seq)


def test_duplicates_share_key(genome):
    sim = ReadSimulator(genome, SimulatorConfig(seed=4, duplicate_rate=1.0))
    reads = sim.simulate(20)
    keys = [pair_key(r) for r in reads]
    # With duplicate_rate=1 every fragment spawns at least one duplicate.
    assert len(set(keys)) < len(keys)


def test_no_duplicates_when_rate_zero(genome):
    sim = ReadSimulator(
        genome, SimulatorConfig(seed=5, duplicate_rate=0.0, soft_clip_rate=0.0)
    )
    reads = sim.simulate(40)
    assert len(reads) == 40


def test_quality_range(genome):
    sim = ReadSimulator(genome, SimulatorConfig(seed=6))
    for read in sim.simulate(30):
        assert read.qual.min() >= 2
        assert read.qual.max() <= 41


def test_read_groups_assigned(genome):
    sim = ReadSimulator(genome, SimulatorConfig(seed=7, read_groups=3))
    groups = {read.read_group for read in sim.simulate(60)}
    assert groups <= {0, 1, 2}
    assert len(groups) > 1


def test_alignment_is_consistent_with_reference(genome):
    """With zero error rates, every M base must equal the reference."""
    config = SimulatorConfig(
        seed=8, substitution_rate=0.0, insertion_rate=0.0,
        deletion_rate=0.0, soft_clip_rate=0.0, duplicate_rate=0.0,
    )
    sim = ReadSimulator(genome, config)
    for read in sim.simulate(30):
        ref = genome[read.chrom].seq
        for op, ref_pos, read_index in read.cigar.walk(read.pos):
            assert op == "M"
            assert int(read.seq[read_index]) == int(ref[ref_pos])


def test_indels_present_at_high_rate(genome):
    config = SimulatorConfig(seed=9, insertion_rate=0.05, deletion_rate=0.05)
    sim = ReadSimulator(genome, config)
    ops = set()
    for read in sim.simulate(30):
        ops.update(element.op for element in read.cigar)
    assert "I" in ops and "D" in ops


def test_soft_clips_present(genome):
    config = SimulatorConfig(seed=10, soft_clip_rate=1.0)
    sim = ReadSimulator(genome, config)
    assert any(
        read.cigar.leading_soft_clip() or read.cigar.trailing_soft_clip()
        for read in sim.simulate(20)
    )


def test_cigar_canonical(genome):
    sim = ReadSimulator(genome, SimulatorConfig(seed=11))
    for read in sim.simulate(50):
        assert read.cigar.is_canonical(), str(read.cigar)


def test_paired_reads(genome):
    sim = ReadSimulator(genome, SimulatorConfig(seed=12, paired=True))
    reads = sim.simulate_pairs(15)
    assert len(reads) == 30
    by_name = {}
    for read in reads:
        by_name.setdefault(read.name, []).append(read)
    for name, pair in by_name.items():
        assert len(pair) == 2
        assert pair[0].is_paired and pair[1].is_paired
        strands = sorted(r.is_reverse for r in pair)
        assert strands == [False, True]


def test_chromosome_restriction(genome):
    sim = ReadSimulator(genome, SimulatorConfig(seed=13))
    assert all(r.chrom == 2 for r in sim.simulate(20, chrom=2))


def test_unknown_chromosome_rejected(genome):
    sim = ReadSimulator(genome, SimulatorConfig(seed=14))
    with pytest.raises(KeyError):
        sim.simulate(5, chrom=99)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulatorConfig(read_length=2)
    with pytest.raises(ValueError):
        SimulatorConfig(substitution_rate=1.5)


@pytest.mark.parametrize(
    "field", ["max_indel_length", "max_soft_clip", "max_duplicates"]
)
@pytest.mark.parametrize("value", [0, -1])
def test_config_refuses_lengths_below_one(field, value):
    with pytest.raises(InputError, match=field):
        SimulatorConfig(**{field: value})


def test_config_refuses_negative_quality_spread():
    with pytest.raises(InputError, match="quality_spread"):
        SimulatorConfig(quality_spread=-1)
    SimulatorConfig(quality_spread=0)


def test_short_read_keeps_an_aligned_base():
    """Clips drawn for a read no longer than two clips are clamped: the read
    keeps its length and at least one M base."""
    genome = ReferenceGenome.random({1: 3000}, seed=2)
    config = SimulatorConfig(read_length=8, soft_clip_rate=1.0, max_soft_clip=8, seed=5)
    reads = ReadSimulator(genome, config).simulate(200)
    for read in reads:
        assert len(read.seq) == 8 and read.cigar.read_length() == 8
        assert any(element.op == "M" for element in read.cigar), str(read.cigar)
        assert read.cigar.is_canonical(), str(read.cigar)
    assert any(str(read.cigar).startswith("7S") for read in reads)


def test_short_read_at_default_clip_rate():
    genome = ReferenceGenome.grch38_like(scale=1e-3, seed=3, chromosomes=(20, 21))
    config = SimulatorConfig(read_length=10, seed=4)
    reads = ReadSimulator(genome, config).simulate(5000)
    assert all(len(read.seq) == 10 for read in reads)
    assert all(any(e.op == "M" for e in read.cigar) for read in reads)


def test_pairs_refuse_a_chromosome_no_longer_than_a_read():
    """A mate would start before the chromosome's first base."""
    genome = ReferenceGenome.random({1: 150}, seed=1)
    sim = ReadSimulator(genome, SimulatorConfig(read_length=150, seed=2))
    with pytest.raises(InputError, match="too short for read pairs"):
        sim.simulate_pairs(1)
    genome = ReferenceGenome.random({1: 151}, seed=1)
    config = SimulatorConfig(read_length=150, seed=2)
    reads = ReadSimulator(genome, config).simulate_pairs(4)
    assert min(read.pos for read in reads) == 0


@pytest.mark.parametrize("rates", [
    dict(deletion_rate=0.3), dict(insertion_rate=0.3), dict(deletion_rate=1.0),
])
def test_adjacent_indels_merge(rates):
    """A deletion after a deletion (an insertion after an insertion)
    lengthens the element before it: every CIGAR stays canonical."""
    genome = ReferenceGenome.random({1: 5000}, seed=1)
    config = SimulatorConfig(read_length=30, seed=0, **rates)
    for read in ReadSimulator(genome, config).simulate(50):
        assert read.cigar.is_canonical(), str(read.cigar)


# -- the array form against the per-base walk ----------------------------------

RATES = st.one_of(
    st.sampled_from([0.0, 0.0005, 0.002, 0.01, 0.05, 0.2, 1.0]),
    st.floats(0.0, 0.12),
)


@st.composite
def simulations(draw):
    """A genome whose chromosomes a read can run off the end of, a config
    over the whole knob space, and one call: single-end or paired, with or
    without a chromosome restriction."""
    read_length = draw(st.one_of(st.integers(8, 24), st.integers(8, 250)))
    method = draw(st.sampled_from(["simulate", "simulate_pairs"]))
    # A single read starts at least a read's length from the end; a pair's
    # fragment is clamped to the chromosome, so its mate can start anywhere.
    shortest = 2 * read_length if method == "simulate" else read_length
    lengths = {
        chrom: shortest + draw(st.integers(1, 500)) for chrom in (1, 2)
    }
    genome = ReferenceGenome.random(lengths, seed=draw(st.integers(0, 99)))
    config = SimulatorConfig(
        read_length=read_length,
        substitution_rate=draw(RATES),
        insertion_rate=draw(RATES),
        deletion_rate=draw(RATES),
        max_indel_length=draw(st.integers(1, 6)),
        soft_clip_rate=draw(st.sampled_from([0.0, 0.05, 1.0])),
        max_soft_clip=draw(st.integers(1, 10)),
        duplicate_rate=draw(st.sampled_from([0.0, 0.15, 1.0])),
        max_duplicates=draw(st.integers(1, 4)),
        read_groups=draw(st.integers(1, 255)),
        quality_spread=draw(st.integers(0, 8)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    chrom = draw(st.sampled_from([None, 1, 2]))
    return genome, config, method, draw(st.integers(1, 12)), chrom


def assert_same_reads(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in dataclasses.fields(b):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(y, np.ndarray):
                assert x.dtype == y.dtype, field.name
                assert x.tobytes() == y.tobytes(), (field.name, b.name)
            else:
                assert x == y, (field.name, b.name, x, y)
        assert str(a.cigar) == str(b.cigar)


@given(simulations())
@settings(max_examples=200, deadline=None)
def test_array_form_is_the_walk(case):
    genome, config, method, n, chrom = case
    array, walk = ReadSimulator(genome, config), WalkSimulator(genome, config)
    got = getattr(array, method)(n, chrom=chrom)
    want = getattr(walk, method)(n, chrom=chrom)
    assert_same_reads(got, want)
    assert array._rng.bit_generator.state == walk._rng.bit_generator.state


def test_array_form_is_the_walk_at_the_defaults():
    genome = ReferenceGenome.grch38_like(scale=1e-3, seed=3, chromosomes=(20, 21))
    for read_length in (80, 151):
        config = SimulatorConfig(read_length=read_length, seed=11)
        array, walk = ReadSimulator(genome, config), WalkSimulator(genome, config)
        assert_same_reads(array.simulate(300), walk.simulate(300))
        assert_same_reads(array.simulate_pairs(100), walk.simulate_pairs(100))
        assert array._rng.bit_generator.state == walk._rng.bit_generator.state


# -- every seeded data set keeps its bytes --------------------------------------

def _sam_digest(reads, genome) -> str:
    handle = io.StringIO()
    write_sam(handle, reads, genome)
    return hashlib.sha256(handle.getvalue().encode()).hexdigest()


#: SAM-text digests of the benchmark's read layouts (``e2e_bench``'s
#: ``_simulate`` before its per-seed jitter), recorded from the per-base walk.
LAYOUT_DIGESTS = {
    "sql_fast": ((1e-3, 4000, 80),
                 "268703a5842b3deb927bcea041fc3bc72b747e543b2e5748801b873f4ec18a43"),
    "preprocess": ((1e-4, 64, 24),
                   "06fc74a6643f69985ff7f76470dc10d84f23579b792ae528e2b252f8df6e1be1"),
    "serve_mixed": ((4.5e-5, 120, 24),
                    "6e1ac9355967585481eb502ffcf16eb61f8c3f14206e47bb4f3599b20ed1cb12"),
}


def test_make_workload_keeps_its_bytes():
    workload = make_workload()
    assert _sam_digest(workload.reads, workload.genome) == (
        "c59066770996c6601085f1be466d7794b6380aa4ca7d69b27de2f9093c6e559b"
    )


@pytest.mark.parametrize("name", sorted(LAYOUT_DIGESTS))
def test_benchmark_layouts_keep_their_bytes(name):
    (scale, n_reads, read_length), digest = LAYOUT_DIGESTS[name]
    genome = ReferenceGenome.grch38_like(
        scale=scale, snp_rate=0.002, seed=2024, chromosomes=(20, 21)
    )
    reads = ReadSimulator(genome, SimulatorConfig(
        read_length=read_length, read_groups=4, duplicate_rate=0.15, seed=2025,
    )).simulate(n_reads)
    assert _sam_digest(reads, genome) == digest
