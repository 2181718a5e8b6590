"""Integration tests: the Figure 11 metadata-update accelerator."""


from repro.accel.metadata import run_metadata_update
from repro.gatk.metadata import compute_read_metadata
from repro.tables.genomic_tables import table_to_reads


def partition_expected(part, genome):
    return [compute_read_metadata(read, genome) for read in table_to_reads(part)]


def test_nm_md_uq_bit_identical(workload):
    """The central correctness claim: the simulated Figure 11 pipeline
    produces exactly the GATK-style NM/MD/UQ on every read."""
    checked = 0
    for pid, part in workload.partitions:
        if part.num_rows == 0:
            continue
        ref_row = workload.reference.lookup(pid)
        result = run_metadata_update(part, ref_row)
        expected = partition_expected(part, workload.genome)
        assert result.nm == [m.nm for m in expected], str(pid)
        assert result.md == [m.md for m in expected], str(pid)
        assert result.uq == [m.uq for m in expected], str(pid)
        checked += part.num_rows
    assert checked == workload.n_reads


def test_result_lengths_match_partition(workload):
    pid, part = next((p, t) for p, t in workload.partitions if t.num_rows > 0)
    result = run_metadata_update(part, workload.reference.lookup(pid))
    assert len(result.nm) == part.num_rows
    assert len(result.md) == part.num_rows
    assert len(result.uq) == part.num_rows


def test_spm_load_phase_accounted(workload):
    pid, part = next((p, t) for p, t in workload.partitions if t.num_rows > 0)
    ref_row = workload.reference.lookup(pid)
    result = run_metadata_update(part, ref_row)
    assert result.run.load_stats is not None
    # The SPM load streams the whole reference partition row.
    assert result.run.load_stats.cycles >= len(ref_row["SEQ"])
    assert result.run.total_cycles > result.run.stats.cycles


def test_uq_never_exceeds_quality_sum(workload):
    pid, part = next((p, t) for p, t in workload.partitions if t.num_rows > 0)
    result = run_metadata_update(part, workload.reference.lookup(pid))
    for uq, qual in zip(result.uq, part.column("QUAL")):
        assert 0 <= uq <= int(qual.sum())


def test_uq_sums_past_one_byte(tmp_path):
    """UQ sums the byte-wide QUAL column in the Reducer's 32-bit
    accumulator: a 151M read mismatching at every base, all Q40, has UQ
    151 x 40 = 6040 (not 6040 mod 256) through ``repro preprocess``, the
    simulated pipeline in both engine modes, the GATK oracle and both SQL
    backends."""
    import dataclasses

    import numpy as np

    from repro.cli import main
    from repro.genomics import ReadSimulator, ReferenceGenome, SimulatorConfig
    from repro.genomics.fasta import write_fasta
    from repro.genomics.sam import write_sam
    from repro.gatk.sql_driver import sql_update_metadata
    from repro.accel import MetadataWaveDriver
    from repro.accel.common import solo_reference
    from repro.sql.backends import available_backends
    from repro.tables.genomic_tables import reads_to_table
    from repro.tables.partition import partition_reads, partition_reference

    genome = ReferenceGenome.random({21: 1000}, seed=1)
    simulated = ReadSimulator(
        genome, SimulatorConfig(read_length=151, seed=2)
    ).simulate(20)
    read = next(r for r in simulated if str(r.cigar) == "151M")
    ref = genome.fetch(read.chrom, read.pos, read.pos + 151)
    read = dataclasses.replace(
        read, seq=(ref + 1) % 4, qual=np.full(151, 40, dtype=np.uint8),
    )
    want = 151 * 40

    assert compute_read_metadata(read, genome).uq == want
    partitions = partition_reads(reads_to_table([read]), 4000)
    reference = partition_reference(genome, 4000, 151 + 3 * 10 + 8)
    for backend in available_backends():
        got = sql_update_metadata(partitions, reference, 151, backend=backend)
        assert got[0].uq == want, backend
    (pid, part), = [(p, t) for p, t in partitions if t.num_rows]
    for mode in ("dense", "maxplus"):
        result = MetadataWaveDriver(
            solo_reference(reference.lookup(pid)), mode=mode
        ).run_one(part)
        assert result.run.stats.mode == mode
        assert result.uq == [want], mode

    fasta, sam, out = (tmp_path / name for name in ("g.fa", "r.sam", "o.sam"))
    with open(fasta, "w") as handle:
        write_fasta(handle, genome)
    with open(sam, "w") as handle:
        write_sam(handle, [read], genome)
    assert main([
        "--no-ledger", "preprocess", "--fasta", str(fasta), "--sam", str(sam),
        "--out", str(out),
    ]) == 0
    assert f"UQ:i:{want}" in out.read_text()
