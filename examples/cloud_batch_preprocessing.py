#!/usr/bin/env python
"""Cloud batch preprocessing: the paper's deployment story, served.

A sequencing center preprocesses a batch of patient genomes on a shared
Genesis deployment.  Each patient is a *tenant* of the multi-tenant job
service (DESIGN.md §3.8): the batch submits every patient's
mark-duplicates stage through :class:`repro.serve.JobService`, which
time-multiplexes the simulated accelerator cards across patients under
weighted-fair queueing and reports per-tenant latency in virtual
cycles.  The service's outputs are bit-identical to running each stage
directly, so the duplicate flags downstream are exactly the GATK
baseline's.

The second half projects the batch to whole-genome scale and compares
the f1.2xlarge deployment against the r5.4xlarge software baseline —
the Figure 13 / Table III analysis, end to end.

Run:  python examples/cloud_batch_preprocessing.py
"""

from repro.accel import MarkdupWaveDriver
from repro.eval import make_workload
from repro.eval.experiments import measure_cycles_per_base
from repro.gatk import mark_duplicates
from repro.perf import (
    F1_2XLARGE,
    PAPER_READS,
    R5_4XLARGE,
    model_stage,
    table3_row,
)
from repro.serve import JobService, JobSpec

PATIENTS = 3


def main() -> None:
    print(f"=== serving a batch of {PATIENTS} patients ===")
    # The batch front end: one workload per patient, one shared service.
    patients = {
        f"patient{index:03d}": make_workload(
            n_reads=90, read_length=70, chromosomes=(20,), seed=100 + index
        )
        for index in range(PATIENTS)
    }
    service = JobService(devices=2, workers=1, quota=4, max_backlog=16)
    tickets = {}
    for offset, (name, workload) in enumerate(patients.items()):
        ticket = service.submit(
            JobSpec(
                tenant=name,
                driver=MarkdupWaveDriver(),
                partitions=list(workload.partitions),
                n_pipelines=2,
            )
        )
        tickets[name] = ticket
        print(f"{name}: submitted job {ticket.job_id} "
              f"({ticket.waves_total} waves)")

    summary = service.run_until_idle()

    # Harvest per-tenant: the ROWID column joins the per-partition
    # quality sums back to each patient's read order, and the GATK
    # criterion flags duplicates from the service-computed sums.
    for name, workload in patients.items():
        results = service.results(tickets[name].job_id)
        sums_by_rowid = {}
        for (pid, part) in workload.partitions:
            for rowid, qsum in zip(
                part.column("ROWID").tolist(), results[pid].quality_sums
            ):
                sums_by_rowid[rowid] = qsum
        sums = [sums_by_rowid[index] for index in range(len(workload.reads))]
        flagged = mark_duplicates(workload.reads, quality_sums=sums)
        status = service.status(tickets[name].job_id)
        print(f"{name}: {len(workload.reads)} reads, "
              f"{flagged.num_duplicates} duplicates flagged, "
              f"latency {status.latency_cycles} cycles on the service "
              "clock")

    tenant_lines = summary.render().splitlines()
    print("\n".join(line for line in tenant_lines if "tenant" in line))

    # Project to whole-genome scale with simulation-measured cycle rates.
    print("\n=== whole-genome projection (700M reads, Figure 13) ===")
    sample = next(iter(patients.values()))
    total_accel_hours = 0.0
    total_sw_hours = 0.0
    for stage in ("markdup", "metadata", "bqsr_table"):
        cpb = measure_cycles_per_base(stage, sample).cycles_per_base
        timing = model_stage(stage, PAPER_READS, 151, cpb)
        total_accel_hours += timing.total_seconds / 3600
        total_sw_hours += timing.cpu_seconds / 3600
        row = table3_row(timing.speedup)
        print(f"{stage}: {timing.speedup:.1f}x speedup, "
              f"{row['cost_reduction']:.1f}x cheaper, "
              f"{row['performance_per_dollar']:.0f}x perf/$")

    sw_cost = R5_4XLARGE.cost_of(total_sw_hours * 3600)
    accel_cost = F1_2XLARGE.cost_of(total_accel_hours * 3600)
    print("\nper genome, the three data-manipulation stages:")
    print(f"  software on {R5_4XLARGE.name}: {total_sw_hours:.1f} h, "
          f"${sw_cost:.2f}")
    print(f"  Genesis on {F1_2XLARGE.name}:  {total_accel_hours:.2f} h, "
          f"${accel_cost:.2f}")
    print(f"  -> {total_sw_hours / total_accel_hours:.1f}x faster, "
          f"{sw_cost / accel_cost:.1f}x cheaper "
          "(the paper's 'roughly 140 minutes saved per genome')")


if __name__ == "__main__":
    main()
