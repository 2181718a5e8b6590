"""Differential fuzzing: randomized read workloads, asserted
bit-identical to the pure-Python ``gatk`` reference implementations.

Each workload is generated from a fixed seed so every run (and every CI
machine) fuzzes the same inputs; add cases to ``FUZZ_CASES`` to widen the
net.  The parameters vary read length, duplicate pressure, genome size,
and partition size so the pipelines see item framing, SPM residency, and
partition shapes the curated fixtures do not.  ``tests/test_lattice.py``
draws every stage's waves over these workloads against its oracle; here
are the stand-alone pipelines: the whole mark-duplicates pass (duplicate
sets and sort order, which no wave computes), metadata per partition,
and BQSR's per-partition tables merged by read group.
"""

from __future__ import annotations

import numpy as np
import pytest

from hw_harness import ANSWERS, assert_matches_oracle
from repro.accel.bqsr import merge_partition_results, run_bqsr_partition
from repro.accel.markdup import accelerated_mark_duplicates, run_quality_sums
from repro.accel.metadata import run_metadata_update
from repro.eval.workloads import make_workload
from repro.gatk.bqsr import build_covariate_tables
from repro.gatk.markdup import mark_duplicates

#: (seed, n_reads, read_length, duplicate_rate, genome_scale, psize).
FUZZ_CASES = [
    (1301, 70, 40, 0.30, 1.0e-6, 1500),
    (1302, 90, 75, 0.05, 2.5e-6, 4000),
    (1303, 50, 60, 0.50, 8.0e-7, 900),
]


def fuzz_args(case):
    """The ``make_workload`` arguments of one ``FUZZ_CASES`` row."""
    seed, n_reads, read_length, dup_rate, scale, psize = case
    return dict(
        n_reads=n_reads,
        read_length=read_length,
        duplicate_rate=dup_rate,
        genome_scale=scale,
        psize=psize,
        chromosomes=(20, 21),
        seed=seed,
    )


@pytest.fixture(scope="module", params=FUZZ_CASES, ids=lambda c: f"seed{c[0]}")
def fuzz_workload(request):
    return make_workload(**fuzz_args(request.param))


def test_fuzz_markdup_bit_identical(fuzz_workload):
    """Hardware mark-duplicates equals the GATK-style reference on every
    fuzzed workload: same duplicate indices, sets, and sort order."""
    hw = accelerated_mark_duplicates(fuzz_workload.reads)
    sw = mark_duplicates(fuzz_workload.reads)
    assert hw.duplicate_indices == sw.duplicate_indices
    assert hw.duplicate_sets == sw.duplicate_sets
    assert [r.name for r in hw.sorted_reads] == [r.name for r in sw.sorted_reads]
    # The quality-sum pipeline alone also matches a plain software sum.
    quals = [read.qual for read in fuzz_workload.reads]
    result = run_quality_sums(quals)
    assert result.quality_sums == [read.quality_sum() for read in fuzz_workload.reads]


def test_fuzz_metadata_bit_identical(fuzz_workload):
    """The Figure 11 pipeline, run stand-alone per partition, reproduces
    NM/MD/UQ exactly on every read of every fuzzed workload."""
    results = {
        pid: run_metadata_update(part, fuzz_workload.reference.lookup(pid))
        for pid, part in fuzz_workload.partitions
        if part.num_rows
    }
    assert assert_matches_oracle("metadata", fuzz_workload, results) == len(results)
    assert sum(len(result.nm) for result in results.values()) == fuzz_workload.n_reads


def test_fuzz_bqsr_bit_identical(fuzz_workload):
    """The Figure 12 pipeline's per-partition tables, merged by read
    group, equal the software baseline over the whole read set."""
    by_group = {}
    for pid, part in fuzz_workload.group_partitions:
        if part.num_rows == 0:
            continue
        result = run_bqsr_partition(
            part,
            fuzz_workload.reference.lookup(pid),
            fuzz_workload.read_length,
        )
        by_group.setdefault(pid.read_group, []).append(result)
    hw = merge_partition_results(by_group, fuzz_workload.read_length)
    sw = build_covariate_tables(
        fuzz_workload.reads, fuzz_workload.genome, fuzz_workload.read_length
    )
    assert set(hw) == set(sw)
    for read_group, expected in sw.items():
        for name in ANSWERS["bqsr"][:4]:
            assert np.array_equal(
                getattr(hw[read_group], name), getattr(expected, name)
            ), (read_group, name)
