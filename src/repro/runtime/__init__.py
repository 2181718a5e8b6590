"""Host runtime: the Genesis API of Section III-E over a modelled device.

configure_mem / run_genesis / check_genesis / wait_genesis / genesis_flush
with a virtual timeline that makes host/accelerator overlap and PCIe
transfer costs observable.
"""

from .api import (
    ColumnBinding,
    GenesisRuntime,
    Kernel,
    PipelineState,
)
from ..constants import CLOCK_HZ, PCIE3_BANDWIDTH, PCIE4_BANDWIDTH
from .device import (
    DeviceConfig,
    DevicePool,
    GenesisDevice,
    TransferRecord,
    VirtualTimeline,
)

__all__ = [
    "CLOCK_HZ",
    "ColumnBinding",
    "DeviceConfig",
    "DevicePool",
    "GenesisDevice",
    "GenesisRuntime",
    "Kernel",
    "PCIE3_BANDWIDTH",
    "PCIE4_BANDWIDTH",
    "PipelineState",
    "TransferRecord",
    "VirtualTimeline",
]

from .batch import (
    BatchJob,
    BatchOutcome,
    compare_schedules,
    run_batch_pipelined,
    run_batch_serial,
)

__all__ += [
    "BatchJob",
    "BatchOutcome",
    "compare_schedules",
    "run_batch_pipelined",
    "run_batch_serial",
]
