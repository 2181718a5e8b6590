"""Integration tests: the Figure 10 mark-duplicates accelerator."""

import numpy as np

from repro.accel.markdup import accelerated_mark_duplicates, run_quality_sums
from repro.gatk.markdup import mark_duplicates
from repro.tables.genomic_tables import reads_to_table


def test_quality_sums_match_software(small_reads):
    result = run_quality_sums([read.qual for read in small_reads])
    expected = [read.quality_sum() for read in small_reads]
    assert result.quality_sums == expected


def test_quality_sums_from_table(small_reads):
    table = reads_to_table(small_reads)
    result = run_quality_sums(table.column("QUAL"))
    assert result.quality_sums == [r.quality_sum() for r in small_reads]


def test_accelerated_stage_equals_software(small_reads):
    hw = accelerated_mark_duplicates(small_reads)
    sw = mark_duplicates(small_reads)
    assert hw.duplicate_indices == sw.duplicate_indices
    assert hw.duplicate_sets == sw.duplicate_sets
    assert [r.name for r in hw.sorted_reads] == [r.name for r in sw.sorted_reads]


def test_empty_qual_arrays():
    result = run_quality_sums([[], [5, 5]])
    assert result.quality_sums == [0, 10]


def test_throughput_one_quality_per_cycle(small_reads):
    quals = [read.qual for read in small_reads]
    total = sum(len(q) for q in quals)
    result = run_quality_sums(quals)
    assert result.stats.cycles < total * 1.5 + 100


def test_large_sums_no_overflow():
    quals = [np.full(1000, 41, dtype=np.uint8)]
    result = run_quality_sums(quals)
    assert result.quality_sums == [41_000]
