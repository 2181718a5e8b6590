"""Per-figure / per-table experiment drivers (the EXPERIMENTS.md index).

Every table and figure of the paper's evaluation has a driver here that
the benchmark suite calls; each returns plain data structures so benches
can both print the reproduced rows/series and assert their shape against
:data:`PAPER_TARGETS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..accel.common import SOLO
from ..accel.scheduler import WaveDriver, WaveItem
from ..accel.stages import STAGES, TIMED_STAGES, stage_named
from ..gatk.bqsr import n_cycle_values
from ..hw.engine import Engine
from ..hw.memory import MemoryConfig, MemorySystem
from ..hw.resources import ResourceVector, estimate_accelerator
from ..perf.cost import table3_row
from ..perf.cpu_model import PAPER_READS, CpuModel
from ..perf.timing import (
    StageTiming,
    model_stage,
    model_stage_pcie4,
)
from ..tables.genomic_tables import count_bases
from .workloads import Workload, make_workload

#: Published results the reproduction is compared against.
PAPER_TARGETS = {
    "speedup": {"markdup": 2.08, "metadata": 19.25, "bqsr_table": 12.59},
    "speedup_pcie4": {"metadata": 33.0, "bqsr_table": 16.4},
    "cost_reduction": {"markdup": 2.08, "metadata": 15.05, "bqsr_table": 9.84},
    "performance_per_dollar": {
        "markdup": 4.31, "metadata": 289.59, "bqsr_table": 123.92,
    },
    "pcie_fraction": {"metadata": 0.534, "bqsr_table": 0.295},
    "markdup_host_fraction": 0.9935,
    "resources": {  # Table IV: (LUTs, registers, BRAM MB)
        "markdup": (228_000, 272_000, 0.34),
        "metadata": (333_000, 424_000, 4.95),
        "bqsr_table": (502_000, 257_000, 1.69),
    },
    "fig9_fractions": {
        "alignment": 0.634, "markdup": 0.100, "metadata": 0.154,
        "bqsr_table": 0.046, "bqsr_update": 0.043,
    },
}

#: NHGRI cost-per-genome survey points (Figure 1, background; USD).
NHGRI_COST_PER_GENOME = [
    (2001, 95_263_072), (2002, 70_175_437), (2003, 53_751_684),
    (2004, 28_780_376), (2005, 13_801_124), (2006, 10_474_556),
    (2007, 7_743_398), (2008, 1_352_982), (2009, 154_714),
    (2010, 46_774), (2011, 16_712), (2012, 7_666), (2013, 5_826),
    (2014, 4_905), (2015, 3_970), (2016, 1_271), (2017, 1_121),
    (2018, 1_015), (2019, 942),
]


def figure1_sequencing_cost() -> List[Tuple[int, float]]:
    """Figure 1: cost of sequencing a genome by year (NHGRI survey)."""
    return list(NHGRI_COST_PER_GENOME)


def figure9_breakdown(
    n_reads: float = PAPER_READS, cores: int = 8
) -> Dict[str, Dict[str, float]]:
    """Figure 9: preprocessing runtime fractions, both bars."""
    model = CpuModel(cores=cores)
    plain = model.preprocessing_breakdown(n_reads, alignment_accelerated=False)
    accel = model.preprocessing_breakdown(n_reads, alignment_accelerated=True)
    return {
        "gatk4": model.fractions(plain),
        "gatk4_with_alignment_accel": model.fractions(accel),
        "seconds": plain,
    }


@dataclass
class CpbMeasurement:
    """Cycles-per-base measured by cycle simulation."""

    stage: str
    cycles: int
    bases: int

    @property
    def cycles_per_base(self) -> float:
        """Sustained cycles per base pair (excludes SPM load/drain, which
        amortize to <3% at the paper's 1 Mbp partitions)."""
        return self.cycles / self.bases if self.bases else 0.0


def _kernel_cycles(driver: WaveDriver, item: WaveItem) -> int:
    """Engine cycles of one replica of ``driver`` over ``item``."""
    _results, stats, _load_cycles = driver.run_wave([item])
    return stats.cycles


def measure_cycles_per_base(
    stage: str, workload: Workload, max_partitions: Optional[int] = 4
) -> CpbMeasurement:
    """Run the stage's accelerator on sample partitions and measure the
    sustained cycles-per-base the timing model extrapolates with."""
    row = stage_named(stage)
    driver = row.over(workload, **row.kernel)
    total_cycles = 0
    total_bases = 0
    for pid, part in row.kernel_items(workload)[:max_partitions]:
        if part.num_rows == 0:
            continue
        total_cycles += _kernel_cycles(driver, (pid, part))
        total_bases += count_bases(part)
    return CpbMeasurement(stage, total_cycles, total_bases)


def figure13(
    workload: Optional[Workload] = None,
    n_reads: float = PAPER_READS,
    read_length: int = 151,
) -> Dict[str, Dict[str, StageTiming]]:
    """Figure 13(a)/(b): speedups and runtime breakdowns at paper scale,
    with cycles-per-base measured by simulation on ``workload``."""
    workload = workload or make_workload()
    out: Dict[str, Dict[str, StageTiming]] = {"pcie3": {}, "pcie4": {}}
    for stage in TIMED_STAGES:
        cpb = measure_cycles_per_base(stage, workload).cycles_per_base
        out["pcie3"][stage] = model_stage(stage, n_reads, read_length, cpb)
        out["pcie4"][stage] = model_stage_pcie4(stage, n_reads, read_length, cpb)
    return out


def figure13_per_chromosome(
    workload: Workload,
    stage: str,
    n_reads: float = PAPER_READS,
    read_length: int = 151,
) -> Dict[int, float]:
    """Figure 13(c)/(d): per-chromosome speedups.

    Each chromosome's workload share scales the paper-scale read count;
    cycles-per-base is measured per chromosome, so partition-fill effects
    produce the chromosome-to-chromosome variation the figure shows.
    """
    row = stage_named(stage)
    driver = row.over(workload, **row.kernel)
    per_chrom: Dict[int, Tuple[int, int]] = {}
    for pid, part in row.items(workload):
        if part.num_rows == 0:
            continue
        cycles = _kernel_cycles(driver, (pid, part))
        prev_cycles, prev_bases = per_chrom.get(pid.chrom, (0, 0))
        per_chrom[pid.chrom] = (prev_cycles + cycles, prev_bases + count_bases(part))

    total_reads = workload.n_reads
    speedups: Dict[int, float] = {}
    for chrom, (cycles, bases) in sorted(per_chrom.items()):
        share = workload.reads_on_chromosome(chrom) / total_reads
        timing = model_stage(stage, n_reads * share, read_length, cycles / bases)
        speedups[chrom] = timing.speedup
    return speedups


def table3(timings: Dict[str, StageTiming]) -> Dict[str, Dict[str, float]]:
    """Table III rows derived from the Figure 13 speedups."""
    return {stage: table3_row(timing.speedup) for stage, timing in timings.items()}


# -- Table IV -----------------------------------------------------------------------

#: Paper-scale SPM capacities in bytes, per pipeline (see EXPERIMENTS.md):
#: metadata holds a 1 Mbp reference partition at 2 bits/base; BQSR holds a
#: 256 Kbp (read-group-sliced) partition at 3 bits/base plus the four
#: 2-byte count buffers for 64 quality bins.
_METADATA_SPM = [(1_000_000 + 151) // 4]
_BQSR_SPM = [
    (256_000 * 3) // 8,
    2 * 64 * n_cycle_values(151),
    2 * 64 * n_cycle_values(151),
    2 * 64 * 16,
    2 * 64 * 16,
]


def _census(build, *args) -> Dict[str, int]:
    engine = Engine(MemorySystem())
    pipe = build(engine, "cen", *args)
    return pipe.module_census()


def table4_estimates() -> Dict[str, ResourceVector]:
    """Table IV: modelled FPGA resource usage of the three accelerators
    (module census from the actually-built pipelines, SPM capacities at
    paper scale, pipeline counts from Section V-A)."""
    from ..accel.bqsr import BqsrSpms, build_bqsr_pipeline
    from ..accel.markdup import build_markdup_pipeline
    from ..accel.metadata import build_metadata_pipeline
    from ..hw.spm import Scratchpad

    dummy_ref = Scratchpad("cen_ref", 8)
    markdup_census = _census(build_markdup_pipeline)
    metadata_census = _census(build_metadata_pipeline, dummy_ref, 0)
    bqsr_census = _census(
        build_bqsr_pipeline, dummy_ref, 0, BqsrSpms.allocate(8), 151
    )
    # The reference-SPM load path (reader + updater) replicates with every
    # pipeline in hardware; add it to the SPM-using censuses.
    for census in (metadata_census, bqsr_census):
        census["MemoryReader"] = census.get("MemoryReader", 0) + 1
        census["SpmUpdater"] = census.get("SpmUpdater", 0) + 1
    return {
        "markdup": estimate_accelerator(markdup_census, [], 16, reducer_lanes=64),
        "metadata": estimate_accelerator(metadata_census, _METADATA_SPM, 16),
        "bqsr_table": estimate_accelerator(bqsr_census, _BQSR_SPM, 8),
    }


# -- Profiling -----------------------------------------------------------------------


def profile_stage(
    stage: str,
    workload: Optional[Workload] = None,
    memory_config: Optional[MemoryConfig] = None,
):
    """Profile one representative run of an accelerated stage.

    Runs one replica of the stage's driver with a
    :class:`repro.obs.Profiler` attached and returns the validated
    :class:`~repro.obs.profile.ProfileReport` — the queryable per-module
    / queue / memory-channel breakdown Figure 9-style bottleneck analysis
    needs — derived from the solved wave.
    """
    from ..obs import Profiler

    workload = workload or make_workload()
    row = stage_named(stage)
    driver = row.over(workload, memory_config=memory_config, **row.kernel)
    pid, part = next(
        item for item in row.kernel_items(workload) if item[1].num_rows > 0
    )
    profiler = Profiler(name=stage)
    driver.run_wave([(pid, part)], probe=profiler)
    extra = {"stage": stage}
    if pid is not SOLO:
        extra["partition"] = str(pid)
    extra["reads"] = part.num_rows
    report = profiler.report(extra=extra)
    report.validate()
    return report


# -- Figure 8 ------------------------------------------------------------------------


def figure8_scaling(
    workload: Optional[Workload] = None,
    pipeline_counts: Tuple[int, ...] = (1, 2, 4, 8),
    memory_config: Optional[MemoryConfig] = None,
) -> Dict[int, float]:
    """Figure 8 ablation: aggregate throughput (bases/cycle) of N replicated
    example-query pipelines sharing one memory system.

    With a deliberately narrow memory configuration the knee where
    arbitration saturates the channels becomes visible at small N.
    """
    workload = workload or make_workload(n_reads=120, read_length=60,
                                         chromosomes=(20,), seed=3)
    memory_config = memory_config or MemoryConfig(channels=1, access_bytes=8)
    parts = [(pid, part) for pid, part in workload.partitions if part.num_rows > 0]
    driver = STAGES["example"].over(workload, memory_config=memory_config)
    throughput: Dict[int, float] = {}
    for n in pipeline_counts:
        wave = [parts[index % len(parts)] for index in range(n)]
        _results, stats, _load_cycles = driver.run_wave(wave)
        total_bases = sum(count_bases(part) for _pid, part in wave)
        throughput[n] = total_bases / stats.cycles
    return throughput
