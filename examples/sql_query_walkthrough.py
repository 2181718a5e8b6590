#!/usr/bin/env python
"""The Figure 4 walk-through: one genomic analysis written as extended SQL,
executed in software, lowered to a logical plan, and finally run on the
simulated, hand-wired Figure 7 pipeline.

Run:  python examples/sql_query_walkthrough.py
"""

from repro.accel.example_query import count_matching_bases_sw, run_example_query
from repro.eval import make_workload
from repro.sql import FIGURE4_QUERY, build_plan, describe, parse_query
from repro.sql.queries import run_figure4_query


def main() -> None:
    workload = make_workload(n_reads=60, read_length=60, chromosomes=(21,),
                             seed=4)
    pid, part = max(
        ((p, t) for p, t in workload.partitions),
        key=lambda item: item[1].num_rows,
    )
    print(f"target partition: {pid} with {part.num_rows} reads\n")

    # 1. The query as the paper writes it (Figure 4).
    print("=== the extended-SQL script (Figure 4) ===")
    print(FIGURE4_QUERY.strip()[:600], "...\n")

    # 2. The logical plan of the fused inner-loop query (Section III-A).
    inner_query = parse_query("""
        SELECT SUM(AlignedRead.SEQ == RelevantReference.SEQ)
        FROM (
            ReadExplode (SingleRead.POS, SingleRead.CIGAR, SingleRead.SEQ)
            FROM SingleRead
        )
        INNER JOIN (SELECT * FROM RelevantReference LIMIT @roff, @rlen)
        ON AlignedRead.POS = RelevantReference.POS
    """)
    plan = build_plan(inner_query)
    print("=== logical query plan ===")
    print(describe(plan), "\n")

    # 3. Execute three ways and agree.
    sql_counts = run_figure4_query(workload.partitions, workload.reference, pid)
    sw_counts = count_matching_bases_sw(part, workload.reference.lookup(pid))
    hw = run_example_query(part, workload.reference.lookup(pid))
    assert sql_counts == sw_counts == hw.counts
    print("=== execution ===")
    print(f"SQL executor:       {sql_counts[:8]}...")
    print(f"software reference: {sw_counts[:8]}...")
    print(f"HW pipeline (sim):  {hw.counts[:8]}...")
    print(f"pipeline took {hw.run.stats.cycles} cycles "
          f"(+{hw.run.load_stats.cycles} for the reference SPM load)")
    print("\nall three paths agree")


if __name__ == "__main__":
    main()
