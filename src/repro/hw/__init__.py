"""Genesis hardware library: a cycle-level dataflow simulator.

Implements the paper's hardware substrate (Section III-C/D) in simulation:
flits and streams, bounded hardware queues with back-pressure, a
cycle-driven engine, a banked memory system with two-level arbitration
(Figure 8), on-chip scratchpads with the RMW hazard interlock, the module
library of Figure 6, and an additive FPGA resource model (Table IV).
"""

from .arbiter import RoundRobinArbiter, TwoLevelArbiter
from .engine import Engine, RunStats
from .flit import DEL, INS, Flit, item_flits, scalar_flit, split_items
from .memory import ACCESS_BYTES, MemoryConfig, MemorySystem
from .module import Module, SinkModule, SourceModule
from .pipeline import Pipeline
from .queue import HardwareQueue
from .resources import (
    MODULE_COSTS,
    SHELL_COST,
    VU9P_BRAM_BYTES,
    VU9P_LUTS,
    VU9P_REGISTERS,
    ResourceVector,
    estimate_accelerator,
    estimate_pipeline,
)
from .spm import RmwInterlock, Scratchpad

__all__ = [
    "ACCESS_BYTES",
    "DEL",
    "Engine",
    "Flit",
    "HardwareQueue",
    "INS",
    "MemoryConfig",
    "MemorySystem",
    "MODULE_COSTS",
    "Module",
    "Pipeline",
    "ResourceVector",
    "RmwInterlock",
    "RoundRobinArbiter",
    "RunStats",
    "Scratchpad",
    "SHELL_COST",
    "SinkModule",
    "SourceModule",
    "TwoLevelArbiter",
    "VU9P_BRAM_BYTES",
    "VU9P_LUTS",
    "VU9P_REGISTERS",
    "estimate_accelerator",
    "estimate_pipeline",
    "item_flits",
    "scalar_flit",
    "split_items",
]
