"""The SQL-driven stage drivers against the pure-Python gatk oracles.

Every test runs on BOTH execution backends (``reference`` and ``fast``)
via the module-wide ``backend`` fixture: the drivers must be
bit-identical to :mod:`repro.gatk` regardless of which backend executes
the plans.  A seeded fuzz case widens the inputs beyond the curated
workload (high duplicate pressure, short reads, small partitions).
"""

from __future__ import annotations

import collections
import copy

import numpy as np
import pytest

from repro.eval.workloads import make_workload
from repro.gatk.bqsr import build_covariate_tables
from repro.gatk.markdup import mark_duplicates
from repro.gatk.metadata import compute_read_metadata
from repro.gatk.sql_driver import (
    BQSR_SCRIPT,
    _quality_sums,
    sql_build_covariate_tables,
    sql_mark_duplicates,
    sql_update_metadata,
)
from repro.genomics.cigar import Cigar
from repro.genomics.read import AlignedRead
from repro.obs.registry import MetricsRegistry
from repro.sql import fast_backend
from repro.sql.backends import EXPLODED_READS_SCHEMA
from repro.sql.executor import Executor
from repro.sql.prepared import prepare
from repro.tables.partition import reference_row_table
from repro.tables.table import Table


@pytest.fixture(params=["reference", "fast"])
def backend(request):
    return request.param


#: (seed, n_reads, read_length, duplicate_rate, genome_scale, psize).
DRIVER_FUZZ_CASES = [
    (2401, 80, 50, 0.40, 1.2e-6, 1200),
    (2402, 60, 70, 0.10, 2.0e-6, 3000),
]


@pytest.fixture(
    scope="module",
    params=DRIVER_FUZZ_CASES,
    ids=lambda case: f"seed{case[0]}",
)
def fuzz_workload(request):
    seed, n_reads, read_length, dup_rate, scale, psize = request.param
    return make_workload(
        n_reads=n_reads,
        read_length=read_length,
        duplicate_rate=dup_rate,
        genome_scale=scale,
        psize=psize,
        chromosomes=(20, 21),
        seed=seed,
    )


def assert_markdup_identical(workload, backend):
    got = sql_mark_duplicates(copy.deepcopy(workload.reads), backend=backend)
    expected = mark_duplicates(workload.reads)
    assert [r.name for r in got.sorted_reads] == [
        r.name for r in expected.sorted_reads
    ]
    assert got.duplicate_indices == expected.duplicate_indices
    assert got.duplicate_sets == expected.duplicate_sets
    assert [r.is_duplicate for r in got.sorted_reads] == [
        r.is_duplicate for r in expected.sorted_reads
    ]


def assert_metadata_identical(workload, backend):
    got = sql_update_metadata(
        workload.partitions, workload.reference, workload.read_length,
        backend=backend,
    )
    assert sorted(got) == list(range(workload.n_reads))
    for rowid, read in enumerate(workload.reads):
        expected = compute_read_metadata(read, workload.genome)
        assert got[rowid].nm == expected.nm, read.name
        assert got[rowid].md == expected.md, read.name
        assert got[rowid].uq == expected.uq, read.name


def assert_bqsr_identical(workload, backend, metrics=None):
    got = sql_build_covariate_tables(
        workload.group_partitions, workload.reference, workload.read_length,
        backend=backend, metrics=metrics,
    )
    expected = build_covariate_tables(
        workload.reads, workload.genome, workload.read_length
    )
    assert set(got) == set(expected)
    for read_group, tables in expected.items():
        assert np.array_equal(got[read_group].total_cycle, tables.total_cycle)
        assert np.array_equal(got[read_group].error_cycle, tables.error_cycle)
        assert np.array_equal(
            got[read_group].total_context, tables.total_context
        )
        assert np.array_equal(
            got[read_group].error_context, tables.error_context
        )


def test_markdup_matches_oracle(workload, backend):
    """SQL mark-duplicates ≡ the gatk oracle: same sort order, duplicate
    indices, set count, and flags."""
    assert_markdup_identical(workload, backend)


def test_markdup_empty_input(backend):
    result = sql_mark_duplicates([], backend=backend)
    assert result.sorted_reads == []
    assert result.duplicate_indices == []
    assert result.duplicate_sets == 0


def test_metadata_matches_oracle(workload, backend):
    """SQL metadata update ≡ compute_read_metadata on every read:
    NM, MD, and UQ bit-identical."""
    assert_metadata_identical(workload, backend)


def test_bqsr_matches_oracle(workload, backend):
    """SQL covariate construction ≡ build_covariate_tables per read
    group: all four SPM arrays identical."""
    assert_bqsr_identical(workload, backend)


def test_fuzz_drivers_match_oracles(fuzz_workload, backend):
    """All three drivers stay bit-identical on seeded fuzz workloads."""
    assert_markdup_identical(fuzz_workload, backend)
    assert_metadata_identical(fuzz_workload, backend)
    assert_bqsr_identical(fuzz_workload, backend)


def test_quality_sums_match_the_per_read_sum(workload):
    """The markdup driver's one-pass quality sums ≡ one
    ``AlignedRead.quality_sum`` per read, empty and all-Q255 reads
    included (uint8 bytes, int64 sums)."""
    def read(qual):
        return AlignedRead(
            "r", 20, 0, Cigar.parse(f"{len(qual)}M") if qual else Cigar([]),
            np.zeros(len(qual), dtype=np.uint8), np.asarray(qual, np.uint8),
        )

    reads = [read([]), *workload.reads[:20], read([255] * 300), read([])]
    assert _quality_sums(reads) == [r.quality_sum() for r in reads]
    assert _quality_sums([]) == []


class TimingCounts(MetricsRegistry):
    """A registry that also counts how often each operator was timed."""

    def __init__(self):
        super().__init__()
        self.timed = collections.Counter()

    def counter(self, name, **labels):
        if name == "sql_operator_seconds":
            self.timed[labels["op"]] += 1
        return super().counter(name, **labels)


@pytest.mark.parametrize("read_groups", [4, 1])
def test_bqsr_reference_side_runs_once_per_reference_partition(
    read_groups, backend
):
    """The ``ReferenceRow``-only statements of the BQSR script (two
    PosExplodes and their join) run once per (chrom, segment), however
    many read groups share it — and the tables still match the oracle,
    both when groups share a reference partition and when each
    reference partition has a single group."""
    wl = make_workload(
        n_reads=60, read_length=50, chromosomes=(20, 21),
        genome_scale=1.2e-6, psize=1500, read_groups=read_groups, seed=311,
    )
    group_pids = wl.group_partitions.pids
    reference_pids = {(pid.chrom, pid.segment) for pid in group_pids}
    if read_groups == 1:
        assert len(group_pids) == len(reference_pids)
    else:
        assert len(group_pids) > len(reference_pids) > 1

    metrics = TimingCounts()
    assert_bqsr_identical(wl, backend, metrics=metrics)
    assert metrics.timed["pos_explode"] == 2 * len(reference_pids)
    assert metrics.timed["explode_reads"] == len(group_pids)


def test_executors_sharing_a_prepared_script_stay_independent(backend):
    """One prepared BQSR script, two executors with their own catalog
    and ``@NCYC``: each result depends on its executor alone."""
    script = prepare(BQSR_SCRIPT)
    ref_row = reference_row_table({
        "CHR": 1, "REFPOS": 0, "SEQ": np.array([0, 1, 2, 3], dtype=np.uint8),
        "IS_SNP": np.zeros(4, dtype=bool),
    })

    def bins(n_cycles, quals):
        ex = Executor(backend=backend)
        ex.register_table("ReferenceRow", ref_row)
        ex.register_table("Bases", Table.from_columns(
            EXPLODED_READS_SCHEMA,
            READID=[0, 0], POS=[1, 2], OP=[0, 0], SEQ=[1, 0],
            QUAL=quals, CYC=[0, 1], CTX=[-1, 4],
        ))
        ex.set_variable("NCYC", n_cycles)
        ex.execute_script(script)
        return (
            ex.tables["CycleBins"].column("B1").tolist(),
            ex.tables["CycleBins"].column("E").tolist(),
        )

    assert prepare(BQSR_SCRIPT) is script
    assert bins(10, [30, 30]) == ([300, 301], [0, 1])
    assert bins(100, [20, 7]) == ([2000, 701], [0, 1])
    assert bins(10, [30, 30]) == ([300, 301], [0, 1])


def _excluded_by_slot_rule(plan, child: Table) -> bool:
    """The slot rule, restated over a GROUP BY's input: multi-column or
    bool keys, or a key span wider than ``DENSE_SPAN_PER_ROW`` × rows."""
    if len(plan.keys) > 1:
        return True
    keys = np.asarray(child.column(plan.keys[0].column))
    if keys.dtype == np.bool_:
        return True
    span = int(keys.max()) - int(keys.min()) + 1
    return span > fast_backend.DENSE_SPAN_PER_ROW * len(keys)


def test_fast_backend_sorts_only_the_group_bys_the_slot_rule_excludes(
    workload, monkeypatch
):
    """While the three stage scripts run on the fast backend, no JOIN
    reaches the sort kernel, and the GROUP BYs that do are exactly the
    ones the slot rule excludes."""
    sorted_calls = collections.Counter()
    for kernel in ("_sort_matches", "_sort_groups"):
        def counted(*args, _kernel=kernel, _real=getattr(fast_backend, kernel)):
            sorted_calls[_kernel] += 1
            return _real(*args)
        monkeypatch.setattr(fast_backend, kernel, counted)
    excluded = collections.Counter()
    group_by = fast_backend.VectorizedBackend._group_by_fast

    def watched_group_by(self, executor, plan, child):
        if child.num_rows:
            excluded[_excluded_by_slot_rule(plan, child)] += 1
        return group_by(self, executor, plan, child)

    monkeypatch.setattr(
        fast_backend.VectorizedBackend, "_group_by_fast", watched_group_by
    )
    metrics = TimingCounts()
    sql_mark_duplicates(
        copy.deepcopy(workload.reads), backend="fast", metrics=metrics
    )
    sql_update_metadata(
        workload.partitions, workload.reference, workload.read_length,
        backend="fast", metrics=metrics,
    )
    assert_bqsr_identical(workload, "fast", metrics=metrics)

    assert metrics.timed["join"] > 0
    assert sorted_calls["_sort_matches"] == 0
    assert excluded[False] > excluded[True] > 0
    assert sorted_calls["_sort_groups"] == excluded[True]
