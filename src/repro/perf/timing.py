"""Accelerated-system timing model (Figure 13).

The wall-clock of one accelerated stage decomposes, as in Figure 13(b),
into three serial components:

* **HW** — accelerator compute: ``total_cycles / (clock * n_pipelines)``.
  Cycles-per-base comes from the cycle-level dataflow simulation
  (measured on sample partitions and extrapolated, justified because
  every pipeline is fully pipelined at one base per cycle plus small
  per-read overheads).
* **PCIe** — host<->device communication: column bytes over the measured
  7 GB/s link, scaled by a per-stage DMA *efficiency factor* (the
  mark-duplicates stage streams one huge contiguous column at near-peak
  bandwidth; metadata update ships many small per-partition column
  transfers and achieves a fraction of peak; BQSR batches per read group
  in between).  The three factors are calibrated once against the
  Figure 13(b) breakdown and documented in EXPERIMENTS.md.
* **Host** — the un-accelerated software remainder (duplicate-set
  selection for mark duplicates, tag attachment for metadata update,
  table merging + quality update for BQSR), modelled as a calibrated
  fraction of the software stage time.

The PCIe 4.0 what-if (Section V-B) scales only the PCIe component by the
bandwidth ratio, which is exactly how the paper derives its 33x / 16.4x
projections.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..constants import CLOCK_HZ, PCIE3_BANDWIDTH, PCIE4_BANDWIDTH
from .cpu_model import CpuModel


@dataclass(frozen=True)
class StageCalibration:
    """Per-stage constants of the timing model."""

    name: str
    cpu_stage: str
    n_pipelines: int
    dma_efficiency: float
    host_fraction: float
    bytes_per_read: float
    default_cycles_per_base: float


#: Mark duplicates (Figure 10): QUAL column only, one contiguous stream.
MARKDUP_CAL = StageCalibration(
    name="markdup",
    cpu_stage="markdup",
    n_pipelines=16,
    dma_efficiency=1.0,
    host_fraction=0.4775,
    bytes_per_read=151,  # QUAL only
    default_cycles_per_base=1.05,
)

#: Metadata update (Figure 11): five READS columns in, NM/MD/UQ out,
#: shipped per 1 Mbp partition (thousands of small DMA bursts).
METADATA_CAL = StageCalibration(
    name="metadata",
    cpu_stage="metadata",
    n_pipelines=16,
    dma_efficiency=0.22,
    host_fraction=0.0191,
    bytes_per_read=350,  # POS+ENDPOS+CIGAR+SEQ+QUAL in, NM/MD/UQ out
    default_cycles_per_base=1.15,
)

#: BQSR covariate construction (Figure 12): same columns per read-group
#: batch, covariate tables drained out.
BQSR_CAL = StageCalibration(
    name="bqsr_table",
    cpu_stage="bqsr_table",
    n_pipelines=8,
    dma_efficiency=0.85,
    host_fraction=0.0249,
    bytes_per_read=340,
    default_cycles_per_base=1.10,
)

CALIBRATIONS: Dict[str, StageCalibration] = {
    cal.name: cal for cal in (MARKDUP_CAL, METADATA_CAL, BQSR_CAL)
}


@dataclass
class StageTiming:
    """The modelled timing of one accelerated stage."""

    stage: str
    hw_seconds: float
    pcie_seconds: float
    host_seconds: float
    cpu_seconds: float

    @property
    def total_seconds(self) -> float:
        """Accelerated stage wall-clock (serial components, Fig. 13(b))."""
        return self.hw_seconds + self.pcie_seconds + self.host_seconds

    @property
    def speedup(self) -> float:
        """Speedup over the software baseline (Figure 13(a))."""
        return self.cpu_seconds / self.total_seconds

    def breakdown(self) -> Dict[str, float]:
        """Runtime fractions of the accelerated stage (Figure 13(b))."""
        total = self.total_seconds
        return {
            "hw": self.hw_seconds / total,
            "pcie": self.pcie_seconds / total,
            "host": self.host_seconds / total,
        }


def model_stage(
    stage: str,
    n_reads: float,
    read_length: int,
    cycles_per_base: Optional[float] = None,
    pcie_bandwidth: float = PCIE3_BANDWIDTH,
    cpu: Optional[CpuModel] = None,
    calibration: Optional[StageCalibration] = None,
) -> StageTiming:
    """Model one accelerated stage over a workload of ``n_reads`` reads.

    ``cycles_per_base`` should come from the dataflow simulation (see
    :func:`repro.eval.experiments.measure_cycles_per_base`); the
    calibration default is used when omitted.
    """
    cal = calibration or CALIBRATIONS[stage]
    cpu = cpu or CpuModel()
    cpb = cycles_per_base if cycles_per_base is not None else cal.default_cycles_per_base
    total_bases = n_reads * read_length
    hw = total_bases * cpb / (CLOCK_HZ * cal.n_pipelines)
    pcie = (n_reads * cal.bytes_per_read) / (pcie_bandwidth * cal.dma_efficiency)
    cpu_seconds = cpu.stage_seconds(cal.cpu_stage, n_reads)
    host = cal.host_fraction * cpu_seconds
    return StageTiming(
        stage=stage,
        hw_seconds=hw,
        pcie_seconds=pcie,
        host_seconds=host,
        cpu_seconds=cpu_seconds,
    )


def model_stage_pcie4(stage: str, n_reads: float, read_length: int,
                      cycles_per_base: Optional[float] = None) -> StageTiming:
    """The PCIe 4.0 what-if of Section V-B."""
    return model_stage(
        stage, n_reads, read_length, cycles_per_base,
        pcie_bandwidth=PCIE4_BANDWIDTH,
    )


def with_pipelines(calibration: StageCalibration, n: int) -> StageCalibration:
    """A calibration with a different pipeline count (scaling ablations)."""
    if n < 1:
        raise ValueError("need at least one pipeline")
    return replace(calibration, n_pipelines=n)
