#!/usr/bin/env python
"""End-to-end secondary analysis: from raw reads to a VCF.

The full flow of Section IV-A with the Genesis accelerators doing the
data-manipulation work:

1. simulate a donor genome carrying known SNVs and sequence it;
2. preprocess: Figure 10 mark-duplicates accelerator, Figure 11
   metadata-update accelerator (NM/MD/UQ tags), Figure 12 BQSR
   covariate construction + host quality update;
3. determine active regions with the Section IV-E pipeline;
4. call variants with the pileup genotyper and write a VCF;
5. confirm calls against the injected truth using the hardware
   callset intersection (the VQSR join).

Run:  python examples/variant_discovery.py
"""

import io

from repro.accel import (
    accelerated_active_regions,
    accelerated_mark_duplicates,
    merge_partition_results,
    run_bqsr_partition,
    run_metadata_update,
)
from repro.accel.callset_ops import run_callset_intersection
from repro.gatk import apply_recalibration, fit_recalibration_model
from repro.genomics import ReadSimulator, ReferenceGenome, SimulatorConfig
from repro.tables import (
    partition_reads,
    partition_reads_by_group,
    partition_reference,
    reads_to_table,
)
from repro.variants import call_variants, inject_true_variants, write_vcf

READ_LENGTH = 80
PSIZE = 4000


def main() -> None:
    # 1. The sample: a donor genome with injected SNVs.
    # snp_rate models the dbSNP known-sites density; injected variants land
    # mostly on those sites, so BQSR can mask them (as it does in reality).
    reference = ReferenceGenome.random({1: 9000, 2: 6000}, snp_rate=0.004,
                                       seed=301)
    donor, truth = inject_true_variants(reference, rate=1.5e-3, seed=302)
    config = SimulatorConfig(
        seed=303, read_length=READ_LENGTH, substitution_rate=0.002,
        duplicate_rate=0.2, read_groups=2,
        insertion_rate=0.0, deletion_rate=0.0,
    )
    reads = ReadSimulator(donor, config).simulate(3600)
    print(f"sequenced {len(reads)} reads from a donor with "
          f"{len(truth)} injected SNVs")

    reference_parts = partition_reference(reference, PSIZE, READ_LENGTH + 20)

    # 2a. Mark duplicates (Figure 10 accelerator + host selection).
    markdup = accelerated_mark_duplicates(reads)
    survivors = [r for r in markdup.sorted_reads if not r.is_duplicate]
    print(f"mark duplicates: {markdup.num_duplicates} flagged, "
          f"{len(survivors)} survive")

    # 2b. Metadata update (Figure 11 accelerator).
    table = reads_to_table(markdup.sorted_reads)
    tagged = 0
    for pid, part in partition_reads(table, PSIZE):
        if part.num_rows == 0:
            continue
        result = run_metadata_update(part, reference_parts.lookup(pid))
        for rowid, nm, md, uq in zip(
            part.column("ROWID").tolist(), result.nm, result.md, result.uq
        ):
            read = markdup.sorted_reads[rowid]
            read.tags.update(NM=nm, MD=md, UQ=uq)
            tagged += 1
    print(f"metadata update: NM/MD/UQ attached to {tagged} reads")

    # 2c. BQSR: covariate tables in hardware, quality update on the host.
    by_group = {}
    for pid, part in partition_reads_by_group(reads_to_table(survivors), PSIZE):
        if part.num_rows == 0:
            continue
        result = run_bqsr_partition(
            part, reference_parts.lookup(pid), READ_LENGTH
        )
        by_group.setdefault(pid.read_group, []).append(result)
    tables = merge_partition_results(by_group, READ_LENGTH)
    models = {rg: fit_recalibration_model(t) for rg, t in tables.items()}
    changed = apply_recalibration(survivors, models)
    print(f"BQSR: {sum(t.observations() for t in tables.values())} "
          f"observations binned, {changed} base qualities recalibrated")

    # 3. Active regions (Section IV-E pipeline).
    survivor_parts = partition_reads(reads_to_table(survivors), PSIZE)
    regions = accelerated_active_regions(
        survivor_parts, reference_parts, reference
    )
    n_regions = sum(len(r) for r in regions.values())
    print(f"active regions: {n_regions} candidate windows")

    # 4. Variant calling + VCF.
    calls = call_variants(survivors, reference)
    vcf = io.StringIO()
    write_vcf(vcf, calls)
    print(f"\ncalled {len(calls)} variants; VCF head:")
    for line in vcf.getvalue().splitlines()[:6]:
        print("  " + line)

    # 5. Score against truth with the hardware callset join.
    metrics = calls.concordance(truth.snvs())
    confirmed = run_callset_intersection(calls, truth)
    print(f"\nconcordance vs injected truth: "
          f"precision {metrics['precision']:.2f}, "
          f"recall {metrics['recall']:.2f}, F1 {metrics['f1']:.2f}")
    print(f"hardware callset intersection confirms "
          f"{len(confirmed.callset)} true positives")
    # Most injected variants should fall inside active regions.
    in_region = 0
    for variant in calls:
        for region in regions.get(variant.chrom, []):
            if region.start <= variant.pos <= region.end:
                in_region += 1
                break
    print(f"{in_region}/{len(calls)} called variants lie inside "
          "accelerator-determined active regions")


if __name__ == "__main__":
    main()
