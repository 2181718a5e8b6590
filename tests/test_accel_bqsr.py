"""Integration tests: the Figure 12 BQSR covariate-table accelerator."""

import dataclasses

import numpy as np
import pytest

from hw_harness import MODES
from repro.accel.bqsr import merge_partition_results, run_bqsr_partition
from repro.eval.workloads import make_workload
from repro.gatk.bqsr import build_covariate_tables
from repro.hw.engine import Engine
from repro.tables.genomic_tables import reads_to_table
from repro.tables.partition import partition_reads_by_group


def accumulate_hw(workload, group_partitions=None):
    by_group = {}
    for pid, part in group_partitions or workload.group_partitions:
        if part.num_rows == 0:
            continue
        result = run_bqsr_partition(
            part, workload.reference.lookup(pid), workload.read_length
        )
        by_group.setdefault(pid.read_group, []).append(result)
    return merge_partition_results(by_group, workload.read_length)


def assert_tables_equal(hw, sw):
    assert set(hw) == set(sw)
    for read_group, expected in sw.items():
        got = hw[read_group]
        assert np.array_equal(got.total_cycle, expected.total_cycle)
        assert np.array_equal(got.error_cycle, expected.error_cycle)
        assert np.array_equal(got.total_context, expected.total_context)
        assert np.array_equal(got.error_context, expected.error_context)


def test_covariate_tables_bit_identical(workload):
    """All four count buffers must match the software baseline exactly,
    for every read group."""
    hw = accumulate_hw(workload)
    sw = build_covariate_tables(workload.reads, workload.genome, workload.read_length)
    assert_tables_equal(hw, sw)


@pytest.mark.parametrize("mode", MODES)
def test_a_dinucleotide_holding_an_n_has_no_context(monkeypatch, mode):
    """A base called N (code 4) gives neither itself nor the base after
    it a context, as ``gatk.bqsr.context_of`` has it: reads with an N at
    the second base and mid-read bin the same on the card as in the
    oracle, on all four tables (the simulator never calls an N)."""
    monkeypatch.setattr(Engine, "default_mode", mode)
    workload = make_workload(n_reads=20, read_length=24, seed=3)
    reads = []
    for index, read in enumerate(workload.reads):
        seq = read.seq.copy()
        seq[1 if index % 2 else len(seq) // 2] = 4
        reads.append(dataclasses.replace(read, seq=seq))
    sw = build_covariate_tables(reads, workload.genome, workload.read_length)
    untouched = build_covariate_tables(
        workload.reads, workload.genome, workload.read_length
    )
    assert sum(t.total_context.sum() for t in sw.values()) < sum(
        t.total_context.sum() for t in untouched.values()
    )
    parts = partition_reads_by_group(reads_to_table(reads), 4000)
    assert_tables_equal(accumulate_hw(workload, parts), sw)


def test_errors_never_exceed_totals(workload):
    pid, part = next(
        (p, t) for p, t in workload.group_partitions if t.num_rows > 0
    )
    result = run_bqsr_partition(
        part, workload.reference.lookup(pid), workload.read_length
    )
    assert np.all(result.error_cycle <= result.total_cycle)
    assert np.all(result.error_context <= result.total_context)


def test_drain_phase_streams_all_spms(workload):
    pid, part = next(
        (p, t) for p, t in workload.group_partitions if t.num_rows > 0
    )
    result = run_bqsr_partition(
        part, workload.reference.lookup(pid), workload.read_length, drain=True
    )
    _spm_words = (
        len(result.total_cycle) + len(result.total_context)
        + len(result.error_cycle) + len(result.error_context)
    )
    # Four drain readers run concurrently; the drain takes at least as
    # long as the largest SPM.
    assert result.drain_stats.cycles >= len(result.total_cycle)
    assert result.drain_stats.flits_by_module["drain0"] == len(result.total_cycle)


def test_rmw_hazards_occur_but_counts_stay_exact(workload):
    """Consecutive same-bin bases trip the interlock; correctness must be
    unaffected (the whole point of the hazard logic)."""
    total_stalls = 0
    for pid, part in workload.group_partitions:
        if part.num_rows == 0:
            continue
        result = run_bqsr_partition(
            part, workload.reference.lookup(pid), workload.read_length,
            drain=False,
        )
        total_stalls += result.hazard_stalls
    assert total_stalls > 0  # hazards genuinely exercised


def test_snp_sites_excluded_in_hw(workload):
    hw = accumulate_hw(workload)
    # Count M bases at non-SNP sites in software terms.
    expected_obs = 0
    for read in workload.reads:
        chromosome = workload.genome[read.chrom]
        for op, ref_pos, _ in read.cigar.walk(read.pos):
            if op == "M" and not chromosome.is_snp[ref_pos]:
                expected_obs += 1
    assert sum(t.observations() for t in hw.values()) == expected_obs
