"""The modelled system's constants, declared once.

An import-free leaf: the device model, the timing model, the storage
filter, the ledger analyzers and the trace fold all read the same
objects from here, so none of them has to mirror a number because
importing its owner would cycle.
"""

#: Accelerator clock (Section V-A): 250 MHz.
CLOCK_HZ = 250e6

#: Measured host->FPGA DMA bandwidth on the F1 (Section V-B): ~7 GB/s.
PCIE3_BANDWIDTH = 7e9

#: The paper's PCIe 4.0 what-if bandwidth (Section V-B): 32 GB/s.
PCIE4_BANDWIDTH = 32e9

#: Modelled host->device payload per read for the PCIe transfer model
#: (sequence + qualities + alignment metadata, order-of-magnitude).
MODEL_ROW_BYTES = 128

#: Bytes a pruned read still ships over PCIe: a descriptor from which the
#: device reconstructs the read against its resident REF partition
#: (row id, reference offset, length, RG, flags).
DESCRIPTOR_BYTES = 8
