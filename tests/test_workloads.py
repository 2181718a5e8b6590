"""Tests for the evaluation workload builder."""

from repro.eval.workloads import make_workload


def test_default_workload_structure(workload):
    assert workload.n_reads >= 80
    assert workload.partitions.total_rows() == workload.n_reads
    assert workload.group_partitions.total_rows() == workload.n_reads


def test_all_partitions_have_reference(workload):
    for pid, _part in workload.partitions:
        assert pid in workload.reference
    for pid, _part in workload.group_partitions:
        assert pid in workload.reference


def test_overlap_covers_read_span(workload):
    for pid, part in workload.partitions:
        row = workload.reference.lookup(pid)
        limit = int(row["REFPOS"]) + len(row["SEQ"])
        for endpos in part.column("ENDPOS").tolist():
            assert endpos < limit


def test_workload_determinism():
    a = make_workload(n_reads=30, read_length=40, chromosomes=(21,), seed=9)
    b = make_workload(n_reads=30, read_length=40, chromosomes=(21,), seed=9)
    assert [r.pos for r in a.reads] == [r.pos for r in b.reads]
