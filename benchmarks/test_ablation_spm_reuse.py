"""Ablation: on-chip SPM data reuse (Section III-D's allocation hint).

Genesis maps the reference partition to an SPM so every read's interval is
served on chip.  Without the SPM, each read would re-stream its reference
span from memory.  This ablation measures the actual SPM read traffic of
the metadata pipeline and compares it with the off-chip bytes a no-SPM
design would need, quantifying the reuse the paper's design exploits.
"""

from repro.accel.metadata import run_metadata_update
from repro.tables.genomic_tables import count_bases


def _measure(workload):
    total_spm_reads = 0
    total_span = 0
    spm_load_words = 0
    memory_bytes = 0
    for pid, part in workload.partitions:
        if part.num_rows == 0:
            continue
        ref_row = workload.reference.lookup(pid)
        result = run_metadata_update(part, ref_row)
        total_spm_reads += result.run.ref_spm_reads
        spm_load_words += len(ref_row["SEQ"])
        memory_bytes += result.run.stats.memory_bytes
        starts = part.column("POS").tolist()
        ends = part.column("ENDPOS").tolist()
        total_span += sum(e - s + 1 for s, e in zip(starts, ends))
    return {
        "spm_reads": total_spm_reads,
        "spm_load_words": spm_load_words,
        "no_spm_bytes": total_span,  # 1 byte/base if re-streamed from DRAM
        "memory_bytes": memory_bytes,
    }


def test_ablation_spm_reuse(benchmark, report, small_bench_workload):
    result = benchmark(_measure, small_bench_workload)

    # The SPM serves every per-read interval on chip...
    assert result["spm_reads"] >= result["no_spm_bytes"]
    # ...after loading each reference word exactly once from memory.
    reuse = result["spm_reads"] / max(1, result["spm_load_words"])
    assert reuse > 1.0  # coverage > 1x means genuine reuse

    report("Ablation - SPM reference reuse (metadata pipeline)", [
        f"reference words loaded into SPM once: {result['spm_load_words']}",
        f"on-chip SPM reads served: {result['spm_reads']}",
        f"reuse factor: {reuse:.2f}x (grows linearly with coverage depth; "
        "NA12878 at ~34x coverage reuses each word ~34x)",
        f"off-chip bytes a no-SPM design would stream: {result['no_spm_bytes']}",
    ])
