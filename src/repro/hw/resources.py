"""FPGA resource model (Table IV).

We cannot synthesize bitstreams, so resource usage is modelled additively:
every module instance costs a fixed number of CLB LUTs and registers
(constants calibrated once against Table IV and documented in DESIGN.md),
scratchpads cost BRAM by capacity, and a fixed *shell* overhead models the
AWS F1 interface logic (DMA, PCIe, DDR controllers) present in every
design.  The model's purpose is to reproduce the *shape* of Table IV —
which accelerator is LUT-heavy, which is BRAM-heavy, and roughly how much
of the VU9P each consumes — not exact post-route numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

#: Xilinx VU9P capacities as reported in Table IV.
VU9P_LUTS = 895_000
VU9P_REGISTERS = 1_790_000
VU9P_BRAM_BYTES = int(7.56 * 1024 * 1024)


@dataclass(frozen=True)
class ResourceVector:
    """LUT / register / BRAM consumption."""

    luts: int = 0
    registers: int = 0
    bram_bytes: int = 0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.luts + other.luts,
            self.registers + other.registers,
            self.bram_bytes + other.bram_bytes,
        )

    def scaled(self, factor: int) -> "ResourceVector":
        """This vector times an instance count."""
        return ResourceVector(
            self.luts * factor, self.registers * factor, self.bram_bytes * factor
        )

    def utilization(self) -> Dict[str, float]:
        """Fraction of the VU9P consumed, per resource class."""
        return {
            "luts": self.luts / VU9P_LUTS,
            "registers": self.registers / VU9P_REGISTERS,
            "bram": self.bram_bytes / VU9P_BRAM_BYTES,
        }


#: Per-module-instance costs (calibrated against Table IV; see DESIGN.md
#: and EXPERIMENTS.md).  Reducers additionally pay per reduction-tree lane
#: (the mark-duplicates Reducer consumes a whole 64 B memory line per
#: cycle, hence 64 lanes; stream-granularity reducers use 1).
MODULE_COSTS: Dict[str, ResourceVector] = {
    "MemoryReader": ResourceVector(500, 800, 4096),
    "MemoryWriter": ResourceVector(400, 650, 2048),
    "Reducer": ResourceVector(400, 700, 0),
    "Filter": ResourceVector(350, 500, 0),
    "Joiner": ResourceVector(1_000, 1_500, 0),
    "StreamAlu": ResourceVector(450, 650, 0),
    "Fork": ResourceVector(150, 250, 0),
    "ReadToBases": ResourceVector(1_500, 2_200, 0),
    "MdGen": ResourceVector(1_000, 1_500, 0),
    # BinIDGen computes two bin IDs per cycle with integer multipliers and
    # reverse-cycle arithmetic — by far the widest datapath in any pipeline.
    "BinIdGen": ResourceVector(12_000, 9_000, 0),
    # The SPM Updater's RMW mode carries the three-stage hazard CAM and the
    # banked update port (Section III-C), dominating its area.
    "SpmUpdater": ResourceVector(2_500, 2_600, 0),
    "SpmReader": ResourceVector(500, 800, 0),
    # The active-region pipeline's custom module (Section IV-E).
    "AnchorInsertions": ResourceVector(400, 600, 0),
}

#: Extra cost per reduction-tree lane beyond the first.
REDUCER_LANE_COST = ResourceVector(70, 110, 0)

#: Per-queue cost (the hardware FIFOs between modules).
QUEUE_COST = ResourceVector(60, 160, 0)

#: Fixed shell overhead (PCIe/DMA/DDR controllers of the F1 shell).
SHELL_COST = ResourceVector(125_000, 140_000, 256 * 1024)

#: Per-pipeline arbitration overhead (local arbiters, Figure 8).
ARBITER_COST = ResourceVector(500, 800, 0)


def estimate_pipeline(
    module_census: Mapping[str, int],
    spm_bytes: Iterable[int] = (),
    num_queues: int = None,
    reducer_lanes: int = 1,
) -> ResourceVector:
    """Resource vector of ONE pipeline replica.

    ``module_census`` maps module type name to instance count (what
    :meth:`repro.hw.pipeline.Pipeline.module_census` returns);
    ``spm_bytes`` lists each scratchpad's capacity in bytes;
    ``reducer_lanes`` sets the reduction-tree width of the pipeline's
    reducers.  When ``num_queues`` is omitted it is approximated as 1.5x
    the module count.
    """
    if reducer_lanes < 1:
        raise ValueError("reducer_lanes must be at least 1")
    total = ResourceVector()
    module_count = 0
    for type_name, count in module_census.items():
        cost = MODULE_COSTS.get(type_name)
        if cost is None:
            raise KeyError(f"no resource cost for module type {type_name}")
        total = total + cost.scaled(count)
        if type_name == "Reducer" and reducer_lanes > 1:
            total = total + REDUCER_LANE_COST.scaled((reducer_lanes - 1) * count)
        module_count += count
    if num_queues is None:
        num_queues = int(module_count * 1.5)
    total = total + QUEUE_COST.scaled(num_queues)
    total = total + ARBITER_COST
    for size in spm_bytes:
        total = total + ResourceVector(200, 300, int(size))
    return total


def estimate_accelerator(
    module_census: Mapping[str, int],
    spm_bytes: Iterable[int],
    num_pipelines: int,
    reducer_lanes: int = 1,
) -> ResourceVector:
    """Full-accelerator estimate: N replicated pipelines plus the shell."""
    pipeline = estimate_pipeline(
        module_census, spm_bytes, reducer_lanes=reducer_lanes
    )
    return pipeline.scaled(num_pipelines) + SHELL_COST
