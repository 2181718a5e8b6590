"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate``    — synthesize a reference (FASTA) and reads (SAM/FASTQ);
* ``preprocess``  — run the accelerated GATK4-style preprocessing over a
  SAM file against a FASTA reference, writing the tagged SAM;
* ``call``        — call variants from a preprocessed SAM, writing VCF;
* ``reproduce``   — print the paper-vs-measured headline numbers;
* ``profile``     — solve one accelerator stage's wave on a synthetic
  workload, print the cycle-attribution report derived from the solution
  plus the bottleneck-analysis summary, and optionally save a
  Chrome-trace timeline and JSON/CSV dumps;
* ``analyze``     — re-run the bottleneck analysis over a saved
  ``profile --out`` JSON report, with ``--sharding`` report the
  per-device utilization / steal counts / device-count what-if of the
  latest sharded run in the ledger, with ``--storage`` report the
  latest storage-filtered run (pruned fraction, PCIe bytes saved, and
  the filtered-fraction × PCIe-generation what-if sweep), or with
  ``--critical-path`` decompose each served job's latency into
  queue-wait / transfer / spm-load / kernel / fault-penalty / drain
  cycles;
* ``serve``       — run the multi-tenant job service over a simulated
  arrival trace; ``--trace`` exports the merged fleet
  chrome://tracing timeline.

Global flags: ``-v``/``--quiet``/``--log-json`` control the structured
logger, ``--ledger``/``--no-ledger`` the run ledger every command
records itself into (default ``.repro/ledger.jsonl``).

Everything is laptop-scale and offline; see README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack
from typing import List, Optional

from .accel.stages import PAPER_STAGES, TIMED_STAGES
from .errors import InputError, ReproError, check_writable, refusing
from .genomics.fasta import read_fasta, write_fasta, write_fastq
from .genomics.reference import ReferenceGenome, chromosome_name
from .genomics.sam import read_sam, write_sam
from .genomics.simulator import MIN_READ_LENGTH, ReadSimulator, SimulatorConfig
from .obs import (
    analyze_report,
    critical_path_from_ledger,
    report_from_dict,
    sharding_report_from_ledger,
    storage_report_from_ledger,
    write_chrome_trace,
    write_fleet_trace,
    write_report_csv,
    write_report_json,
)
from .obs.ledger import RunLedger, RunManifest, record_event, run_context
from .obs.log import configure_logging, get_logger

#: Stages ``profile`` knows how to drive: the paper's, under their
#: stage-table and timing-model names (``bqsr`` / ``bqsr_table``).
PROFILE_STAGES = tuple(dict.fromkeys(PAPER_STAGES + TIMED_STAGES))


def _check_outputs(*paths: Optional[str], make_parent: bool = False) -> None:
    """Refuse, before any work, an output path given that cannot be
    written (``make_parent`` creates its directory)."""
    for path in filter(None, paths):
        check_writable(path, make_parent=make_parent)


def _positive(number):
    """An argparse ``type=`` accepting only ``number(text) > 0``."""
    def parse(text: str):
        value = number(text)  # a ValueError is argparse's "invalid value"
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value
    parse.__name__ = f"positive {number.__name__}"
    return parse


def _nonnegative(number):
    """An argparse ``type=`` accepting only ``number(text) >= 0``."""
    def parse(text: str):
        value = number(text)
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"must not be negative, got {text}"
            )
        return value
    parse.__name__ = f"non-negative {number.__name__}"
    return parse


def _at_least(floor: int):
    """An argparse ``type=`` accepting only integers ``>= floor``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(
                f"must be at least {floor}, got {text}"
            )
        return value
    parse.__name__ = f"integer >= {floor}"
    return parse


def _fault_spec(text: str) -> str:
    """An argparse ``type=`` for ``--inject-faults``: the spec text,
    refused here when the plan does not parse (an unknown kind or site,
    a count below one...)."""
    from .faults import FaultPlan

    try:
        FaultPlan.from_spec(text)
    except InputError as error:
        raise argparse.ArgumentTypeError(str(error))
    return text


def _split_stages(text: str) -> tuple:
    return tuple(stage.strip() for stage in text.split(",") if stage.strip())


def _stage_mix(text: str) -> str:
    """An argparse ``type=`` for ``serve --stages``: the comma-separated
    text, refused when it names no stage or an unknown one."""
    from .serve.trace import SERVE_STAGES

    stages = _split_stages(text)
    unknown = [stage for stage in stages if stage not in SERVE_STAGES]
    if unknown or not stages:
        raise argparse.ArgumentTypeError(
            f"unknown stage(s) {', '.join(unknown) or text!r} "
            f"(choose from {', '.join(SERVE_STAGES)})"
        )
    return text


def _parse_file(path: str, parse):
    """``parse`` over the file at ``path``, refused when the file cannot
    be opened (``cannot read``) or does not parse (``cannot parse``)."""
    try:
        handle = open(path)
    except OSError as error:
        raise InputError(f"cannot read {path}: {error.strerror}") from None
    with handle, refusing(f"cannot parse {path}"):
        return parse(handle)


def _read_inputs(fasta: str, sam: str, **fasta_options):
    """The ``(genome, reads)`` of a FASTA + SAM pair, refused when either
    cannot be read or parsed, or a read is aligned off the genome (an
    absent chromosome, or a reference span that leaves its contig)."""
    genome = _parse_file(fasta, lambda handle: read_fasta(handle, **fasta_options))
    reads = _parse_file(sam, read_sam)
    for read in reads:
        if (
            read.chrom not in genome
            or read.pos < 0
            or read.end_pos >= genome.length(read.chrom)
        ):
            raise InputError(
                f"{sam}: read {read.name} at "
                f"{chromosome_name(read.chrom)}:{read.pos + 1} lies outside "
                "the reference"
            )
    return genome, reads


def _overlap_needed(reads, psize: int) -> int:
    """The smallest ``--overlap`` whose REF rows hold every read's whole
    reference span: how far a read's last base lies past the end of the
    ``psize`` segment its first base falls in."""
    return max(
        [0] + [read.end_pos + 1 - (read.pos // psize + 1) * psize
               for read in reads]
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    _check_outputs(args.fasta, args.sam, args.fastq)
    config = SimulatorConfig(
        read_length=args.read_length, seed=args.seed + 1,
        duplicate_rate=args.duplicate_rate,
    )
    genome = ReferenceGenome.grch38_like(
        scale=args.scale, snp_rate=args.snp_rate, seed=args.seed,
        chromosomes=tuple(args.chromosomes) if args.chromosomes else (20, 21),
    )
    reads = ReadSimulator(genome, config).simulate(args.reads)
    with open(args.fasta, "w") as handle:
        write_fasta(handle, genome)
    with open(args.sam, "w") as handle:
        write_sam(handle, reads, genome)
    if args.fastq:
        with open(args.fastq, "w") as handle:
            write_fastq(handle, reads)
    print(f"wrote {args.fasta} ({genome.total_length()} bp) and "
          f"{args.sam} ({len(reads)} reads)")
    return 0


def _cmd_preprocess(args: argparse.Namespace) -> int:
    from .accel.markdup import accelerated_mark_duplicates
    from .accel.metadata import MetadataWaveDriver
    from .accel.scheduler import SpmImageCache
    from .accel.sharding import run_sharded
    from .faults import RetryPolicy
    from .tables.genomic_tables import reads_to_table
    from .tables.partition import partition_reads, partition_reference

    _check_outputs(args.out)
    genome, reads = _read_inputs(
        args.fasta, args.sam, snp_rate=args.snp_rate, seed=7
    )
    needed = _overlap_needed(reads, args.psize)
    if args.overlap < needed:
        raise InputError(
            f"--overlap {args.overlap} is too short for {args.sam}: "
            f"a read reaches {needed} bases past its {args.psize}-base "
            f"partition (use --overlap {needed} or more)"
        )
    markdup = accelerated_mark_duplicates(reads)
    print(f"mark duplicates: {markdup.num_duplicates} flagged")

    table = reads_to_table(markdup.sorted_reads)
    reference = partition_reference(genome, args.psize, args.overlap)
    partitions = partition_reads(table, args.psize)
    storage = None
    if args.storage_filter:
        from .storage import plan_storage_filter

        storage = plan_storage_filter(partitions, reference)
        print(storage.describe())
    spm_cache = SpmImageCache()
    fault_plan = None
    if args.inject_faults:
        from .faults import FaultPlan

        fault_plan = FaultPlan.from_spec(
            args.inject_faults, seed=args.fault_seed
        )
        for line in fault_plan.describe():
            print(f"fault plan: {line}")
    results, stats = run_sharded(
        MetadataWaveDriver(reference=reference),
        partitions,
        args.pipelines,
        devices=args.devices,
        workers=args.workers,
        spm_cache=spm_cache,
        fault_plan=fault_plan,
        retry_policy=RetryPolicy(max_retries=args.max_retries),
        wave_timeout=args.wave_timeout,
        storage=storage,
    )
    tagged = 0
    for pid, part in partitions:
        result = results[pid]
        for rowid, nm, md, uq in zip(
            part.column("ROWID").tolist(), result.nm, result.md, result.uq
        ):
            markdup.sorted_reads[rowid].tags.update(NM=nm, MD=md, UQ=uq)
            tagged += 1
    print(
        f"metadata update: {tagged} reads tagged "
        f"({stats.waves} waves x {args.pipelines} pipelines, "
        f"devices={stats.devices}, workers={stats.workers}, "
        f"{stats.cycles_including_load} cycles, "
        f"spm cache {stats.spm_cache_hits} hits / "
        f"{stats.spm_cache_misses} misses)"
    )
    if stats.devices > 1:
        utilization = stats.device_utilization()
        for device, device_stats in enumerate(stats.per_device):
            print(
                f"  device {device}: {device_stats.waves} waves, "
                f"{device_stats.total_cycles} cycles "
                f"({utilization[device]:.0%} of critical path), "
                f"steals in/out {device_stats.steals_in}/"
                f"{device_stats.steals_out}"
            )
        if stats.steal_count:
            print(
                f"  work stealing: {stats.steal_count} wave(s) migrated "
                "(plan-time, results unchanged)"
            )
    if stats.workers > 1:
        for worker in sorted(stats.per_worker):
            tally = stats.per_worker[worker]
            print(
                f"  {worker}: {tally.waves} waves, {tally.cycles} cycles, "
                f"{tally.elapsed_seconds:.3f}s host"
            )
    if fault_plan is not None:
        kinds = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(stats.faults_by_kind.items())
        ) or "none"
        print(
            f"resilience: survived {stats.faults_injected} injected "
            f"fault(s) ({kinds}); {stats.retries} retried, "
            f"{stats.watchdog_timeouts} watchdog timeout(s), "
            f"{stats.serial_fallback_waves} serial-fallback wave(s), "
            f"{stats.pool_restarts} pool restart(s)"
        )
    with open(args.out, "w") as handle:
        write_sam(handle, markdup.sorted_reads, genome)
    print(f"wrote {args.out}")
    return 0


def _cmd_call(args: argparse.Namespace) -> int:
    from .variants.caller import CallerConfig, call_variants
    from .variants.vcf import write_vcf

    _check_outputs(args.out)
    config = CallerConfig(min_depth=args.min_depth)
    genome, reads = _read_inputs(args.fasta, args.sam)
    calls = call_variants(reads, genome, config)
    with open(args.out, "w") as handle:
        write_vcf(handle, calls)
    print(f"called {len(calls)} variants -> {args.out}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .eval.experiments import PAPER_TARGETS, measure_cycles_per_base
    from .eval.workloads import make_workload
    from .perf import PAPER_READS, model_stage

    workload = make_workload(
        n_reads=args.reads, read_length=80, chromosomes=(20,),
        genome_scale=4.5e-5, psize=4000, seed=9,
    )
    print("stage        speedup   paper")
    for stage in TIMED_STAGES:
        cpb = measure_cycles_per_base(stage, workload).cycles_per_base
        timing = model_stage(stage, PAPER_READS, 151, cpb)
        print(f"{stage:<12} {timing.speedup:6.2f}x  "
              f"{PAPER_TARGETS['speedup'][stage]}x")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .eval.experiments import profile_stage
    from .eval.workloads import make_workload

    if args.stage not in PROFILE_STAGES:
        raise InputError(
            f"unknown stage {args.stage!r} "
            f"(choose from {', '.join(PROFILE_STAGES)})"
        )
    _check_outputs(args.trace, args.out, args.csv, make_parent=True)
    log = get_logger("cli")
    workload = make_workload(
        n_reads=args.reads, read_length=80, chromosomes=(20,),
        genome_scale=4.5e-5, psize=4000, seed=args.seed,
    )
    report = profile_stage(args.stage, workload)
    print(report.render())
    analysis = analyze_report(report)
    print(analysis.render())
    record_event(
        "profile.report", stage=args.stage, cycles=report.cycles,
        mode=report.mode, root_bottleneck=analysis.root_bottleneck,
    )
    log.info(
        "profiled %s: %d cycles, root bottleneck %s",
        args.stage, report.cycles, analysis.root_bottleneck,
        extra={"stage": args.stage},
    )
    if args.trace:
        write_chrome_trace(report, args.trace)
        print(f"wrote chrome trace -> {args.trace} "
              "(load in chrome://tracing or ui.perfetto.dev)")
    if args.out:
        write_report_json(report, args.out)
        print(f"wrote report json -> {args.out}")
    if args.csv:
        write_report_csv(report, args.csv)
        print(f"wrote report csv -> {args.csv}")
    return 0


#: ``analyze --FLAG`` over the ledger: the report builder, and the
#: recorder of the ``analyze.FLAG`` event a report ends in.
LEDGER_REPORTS = {
    "critical_path": (
        critical_path_from_ledger,
        lambda report: record_event(
            "analyze.critical_path", run_id=report.run_id,
            jobs=len(report.jobs),
        ),
    ),
    "sharding": (
        sharding_report_from_ledger,
        lambda report: record_event(
            "analyze.sharding", stage=report.stage, devices=report.devices,
            steals=report.steals,
        ),
    ),
    "storage": (
        storage_report_from_ledger,
        lambda report: record_event(
            "analyze.storage", stage=report.stage,
            filtered_fraction=report.filtered_fraction,
            saved_nbytes=report.saved_nbytes,
        ),
    ),
}


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    if args.job is not None and not args.critical_path:
        raise InputError("--job narrows --critical-path only")
    for flag, (builder, record) in LEDGER_REPORTS.items():
        if getattr(args, flag):
            options = {} if args.job is None else {"job_id": args.job}
            report = builder(RunLedger(args.ledger), **options)
            print(report.render())
            record(report)
            return 0
    if not args.report:
        raise InputError(
            "pass a profile REPORT_JSON, --sharding, --storage, "
            "or --critical-path"
        )
    with refusing(f"cannot read {args.report}", OSError):
        handle = open(args.report)
    with handle, refusing(f"{args.report} is not JSON"):
        data = json.load(handle)
    with refusing(args.report):
        report = report_from_dict(data)
    analysis = analyze_report(report, min_stall_share=args.min_stall_share)
    print(analysis.render())
    record_event(
        "analyze.report", source=args.report,
        root_bottleneck=analysis.root_bottleneck,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .accel.sharding import record_storage_run
    from .eval.workloads import make_workload
    from .faults import FaultPlan, RetryPolicy
    from .serve import ArrivalTrace, JobService, trace_jobs

    _check_outputs(args.trace, make_parent=True)
    workload = make_workload(
        n_reads=args.reads,
        read_length=args.read_length,
        chromosomes=(20, 21),
        genome_scale=4.5e-5,
        psize=args.psize,
        seed=args.seed,
    )
    trace = ArrivalTrace.generate(
        tenants=args.tenants,
        jobs=args.jobs,
        seed=args.seed,
        stages=_split_stages(args.stages),
        mean_gap_cycles=args.mean_gap,
    )
    fault_plan = None
    if args.inject_faults:
        fault_plan = FaultPlan.from_spec(
            args.inject_faults, seed=args.fault_seed
        )
        for line in fault_plan.describe():
            print(f"fault plan: {line}")
    storage = None
    if args.storage_filter:
        from .storage import plan_storage_filter

        # Plan over the by-position AND by-read-group partitionings so
        # every stage in the trace mix (bqsr shards by read group) finds
        # its chunks; reference lookup ignores the read-group axis.
        storage = plan_storage_filter(
            list(workload.partitions) + list(workload.group_partitions),
            workload.reference,
        )
        print(storage.describe())
    service = JobService(
        devices=args.devices,
        workers=args.workers,
        max_backlog=args.backlog,
        quota=args.quota,
        fault_plan=fault_plan,
        retry_policy=RetryPolicy(max_retries=args.max_retries),
        storage=storage,
    )
    for at_cycles, spec in trace_jobs(
        trace, workload, n_pipelines=args.pipelines
    ):
        service.schedule(spec, at_cycles=at_cycles)
    if args.drain_at is not None:
        service.run(max_dispatches=args.drain_at)
        checkpoint = service.drain()
        print(
            f"serve: drained at clock {checkpoint.clock} "
            f"({checkpoint.open_jobs} open job(s) requeued); resuming"
        )
        service = JobService.resume(checkpoint)
    summary = service.run_until_idle()
    print(summary.render())
    if storage is not None:
        record_storage_run(
            storage, service.pool.config,
            dict(
                raw_nbytes=storage.raw_nbytes,
                nbytes=storage.survivor_nbytes,
                pruned_rows=storage.pruned_rows,
                scan_seconds=storage.scan_seconds,
            ),
            kernel_seconds=sum(summary.device_busy_seconds),
            transfer_seconds=sum(summary.device_transfer_seconds),
            stage="serve", devices=args.devices,
        )
    if args.trace:
        spans = service.spans()
        write_fleet_trace(spans, args.trace)
        print(
            f"wrote fleet chrome trace -> {args.trace} "
            f"({len(spans)} spans; load in chrome://tracing "
            "or ui.perfetto.dev)"
        )
    record_event(
        "serve.run",
        tenants=args.tenants, jobs=args.jobs,
        devices=args.devices, workers=args.workers,
        clock_cycles=summary.clock_cycles,
        completed=summary.jobs_completed,
        rejected=summary.jobs_rejected,
        failed=summary.jobs_failed,
    )
    return 0 if summary.jobs_failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Genesis (ISCA 2020) reproduction command-line tools",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="debug-level logging",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="warnings and errors only",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit JSON-lines log records (run-id and worker-id stamped)",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="run-ledger file (default .repro/ledger.jsonl)",
    )
    parser.add_argument(
        "--no-ledger", action="store_true",
        help="do not record this run in the ledger",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="synthesize a workload")
    simulate.add_argument("--fasta", required=True)
    simulate.add_argument("--sam", required=True)
    simulate.add_argument("--fastq", default=None)
    simulate.add_argument("--reads", type=_positive(int), default=500)
    simulate.add_argument(
        "--read-length", type=_at_least(MIN_READ_LENGTH), default=100
    )
    simulate.add_argument("--scale", type=_positive(float), default=4.5e-5)
    simulate.add_argument("--snp-rate", type=float, default=0.001)
    simulate.add_argument("--duplicate-rate", type=float, default=0.15)
    simulate.add_argument("--seed", type=_nonnegative(int), default=0)
    simulate.add_argument("--chromosomes", type=int, nargs="*", default=None)
    simulate.set_defaults(func=_cmd_simulate)

    preprocess = commands.add_parser(
        "preprocess", help="accelerated GATK4-style preprocessing"
    )
    preprocess.add_argument("--fasta", required=True)
    preprocess.add_argument("--sam", required=True)
    preprocess.add_argument("--out", required=True)
    preprocess.add_argument("--psize", type=_positive(int), default=4000)
    preprocess.add_argument(
        "--overlap", type=_nonnegative(int), default=200
    )
    preprocess.add_argument("--snp-rate", type=float, default=0.001)
    preprocess.add_argument(
        "--pipelines", type=_positive(int), default=4,
        help="pipeline replicas per wave (the paper's 16x replication)",
    )
    preprocess.add_argument(
        "--workers", type=_positive(int), default=1,
        help="host worker processes the waves fan out over (per device)",
    )
    preprocess.add_argument(
        "--devices", type=_positive(int), default=1,
        help="shard the waves over this many simulated accelerator cards "
             "(bit-identical results at any count)",
    )
    preprocess.add_argument(
        "--inject-faults", type=_fault_spec,
        default=None, metavar="SPEC",
        help="fault plan to inject, e.g. "
             "'worker_crash:2,transfer_error@scheduler.wave+2' "
             "(KIND[:COUNT][@SITE][+ATTEMPTS][~SPREAD], comma-separated; "
             "every fault is a failed wave attempt at scheduler.wave, "
             "the one site)",
    )
    preprocess.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed deriving the injected fault sites (same seed + spec "
             "=> same faults)",
    )
    preprocess.add_argument(
        "--max-retries", type=_nonnegative(int), default=2,
        help="retry budget per wave item before degradation",
    )
    preprocess.add_argument(
        "--wave-timeout", type=_positive(float), default=None,
        metavar="SECONDS",
        help="watchdog deadline around each parallel wave",
    )
    preprocess.add_argument(
        "--storage-filter", action="store_true",
        help="prune exactly-matching reads inside the modelled SSD so "
             "only survivor bytes cross PCIe (results bit-identical; "
             "see `repro analyze --storage`)",
    )
    preprocess.set_defaults(func=_cmd_preprocess)

    call = commands.add_parser("call", help="pileup variant calling")
    call.add_argument("--fasta", required=True)
    call.add_argument("--sam", required=True)
    call.add_argument("--out", required=True)
    call.add_argument("--min-depth", type=int, default=4)
    call.set_defaults(func=_cmd_call)

    reproduce = commands.add_parser(
        "reproduce", help="print paper-vs-measured speedups"
    )
    reproduce.add_argument("--reads", type=_positive(int), default=120)
    reproduce.set_defaults(func=_cmd_reproduce)

    profile = commands.add_parser(
        "profile", help="profile one accelerator stage on a demo workload"
    )
    profile.add_argument(
        "--stage", default="markdup", metavar="STAGE",
        help=f"accelerator stage ({', '.join(PROFILE_STAGES)})",
    )
    profile.add_argument("--reads", type=_positive(int), default=120)
    profile.add_argument("--seed", type=_nonnegative(int), default=9)
    profile.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a chrome://tracing JSON timeline",
    )
    profile.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the flat JSON report",
    )
    profile.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write the report as CSV rows",
    )
    profile.set_defaults(func=_cmd_profile)

    analyze = commands.add_parser(
        "analyze",
        help="bottleneck analysis over a saved profile --out JSON",
    )
    analyze.add_argument(
        "--min-stall-share", type=float, default=0.01,
        help="drop stall chains below this fraction of the run",
    )
    source = analyze.add_mutually_exclusive_group()
    source.add_argument("report", metavar="REPORT_JSON", nargs="?")
    source.add_argument(
        "--sharding", action="store_true",
        help="report per-device utilization, steal counts, and the "
             "device-count what-if of the latest sharded run in the ledger",
    )
    source.add_argument(
        "--critical-path", action="store_true",
        help="walk the latest served run in the ledger and decompose each "
             "job's latency into queue-wait / transfer / spm-load / kernel "
             "/ fault-penalty / drain cycles (sums exactly to the latency)",
    )
    source.add_argument(
        "--storage", action="store_true",
        help="report the latest storage-filtered run in the ledger: "
             "pruned fraction, bytes kept off PCIe, and the "
             "filtered-fraction x PCIe-generation what-if sweep",
    )
    analyze.add_argument(
        "--job", type=int, default=None, metavar="JOB_ID",
        help="narrow --critical-path to one job id (with it only)",
    )
    analyze.set_defaults(func=_cmd_analyze)

    serve = commands.add_parser(
        "serve",
        help="multi-tenant job service over a simulated arrival trace",
    )
    serve.add_argument(
        "--tenants", type=_positive(int), default=8,
        help="simulated tenants submitting jobs",
    )
    serve.add_argument(
        "--jobs", type=_nonnegative(int), default=32,
        help="jobs in the seeded arrival trace",
    )
    serve.add_argument(
        "--stages", type=_stage_mix, default="markdup,metadata,bqsr",
        help="comma-separated stage mix the trace draws from",
    )
    serve.add_argument("--reads", type=_positive(int), default=120)
    serve.add_argument(
        "--read-length", type=_at_least(MIN_READ_LENGTH), default=60
    )
    serve.add_argument("--psize", type=_positive(int), default=1000)
    serve.add_argument(
        "--pipelines", type=_positive(int), default=2,
        help="pipeline replicas per wave",
    )
    serve.add_argument(
        "--devices", type=_positive(int), default=2,
        help="simulated accelerator cards the dispatcher time-multiplexes",
    )
    serve.add_argument(
        "--workers", type=_positive(int), default=1,
        help="host worker processes a dispatch round fans out over "
             "(virtual timeline is identical at any count)",
    )
    serve.add_argument(
        "--quota", type=_positive(int), default=8,
        help="max open jobs per tenant before admission rejects",
    )
    serve.add_argument(
        "--backlog", type=_positive(int), default=64,
        help="max open jobs service-wide before admission rejects",
    )
    serve.add_argument(
        "--mean-gap", type=_nonnegative(int), default=50_000,
        metavar="CYCLES",
        help="mean inter-arrival gap of the trace, in virtual cycles",
    )
    serve.add_argument("--seed", type=_nonnegative(int), default=0)
    serve.add_argument(
        "--drain-at", type=_nonnegative(int), default=None,
        metavar="DISPATCHES",
        help="drain after this many dispatches (0: before the first), then "
             "resume from the checkpoint (exercises the graceful-restart "
             "path)",
    )
    serve.add_argument(
        "--inject-faults", type=_fault_spec,
        default=None, metavar="SPEC",
        help="fault plan, e.g. 'worker_crash,transfer_error:2@scheduler.wave+2' "
             "(every fault is a failed wave attempt at scheduler.wave, "
             "the one site; a retry's backoff costs penalty cycles on the "
             "virtual clock)",
    )
    serve.add_argument("--fault-seed", type=int, default=0)
    serve.add_argument(
        "--max-retries", type=_nonnegative(int), default=2,
        help="retry budget per wave before the job fails",
    )
    serve.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write the merged fleet chrome://tracing JSON (one lane per "
             "device, tenant-colored job tracks)",
    )
    serve.add_argument(
        "--storage-filter", action="store_true",
        help="serve from the modelled in-SSD filter: wave transfers "
             "charge survivor bytes only (virtual timelines shrink, "
             "results bit-identical)",
    )
    serve.set_defaults(func=_cmd_serve)
    return parser


def _manifest_for(args: argparse.Namespace) -> RunManifest:
    """The ledger manifest of one CLI invocation."""
    skipped = {
        "func", "command", "verbose", "quiet", "log_json", "ledger",
        "no_ledger",
    }
    config = {
        key: value for key, value in vars(args).items() if key not in skipped
    }
    return RunManifest(
        workload=args.command,
        config=config,
        seed=getattr(args, "seed", None),
        pipelines=getattr(args, "pipelines", None),
        workers=getattr(args, "workers", None),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: configure logging, open the run ledger context,
    run the subcommand.

    Returns the exit status: 0 when the command did its work, and
    otherwise what ended it.  A :class:`~repro.errors.ReproError` —
    an :class:`~repro.errors.InputError` (2, a refused input) or a
    :class:`~repro.faults.RetryBudgetExceeded` (1, the run failed) — is
    reported here, and only here, as one ``error:`` line; ``serve``
    returns 1 itself when a job failed.  141 (128 + SIGPIPE, what a
    shell reports for a writer its pipe closed) means standard output
    was closed before the command finished writing — ``repro analyze
    R.json | head -5`` stops there, with no traceback."""
    args = build_parser().parse_args(argv)
    configure_logging(
        json_lines=args.log_json, verbosity=args.verbose, quiet=args.quiet,
    )
    try:
        with ExitStack() as run:
            try:
                if not args.no_ledger:
                    ledger = RunLedger(args.ledger)
                    ledger.check_writable()
                    run.enter_context(run_context(_manifest_for(args), ledger))
                code = args.func(args)
            except ReproError as error:
                print(f"error: {error}", file=sys.stderr)
                code = error.exit_code
            # Write what is buffered while the run is open: a reader that
            # closed the pipe early raises here, not at interpreter exit.
            sys.stdout.flush()
            record_event("cli.exit", code=code)
        return code
    except BrokenPipeError:
        # Nothing more can reach the reader; point stdout at devnull so
        # the interpreter's exit-time flush of the rest cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
