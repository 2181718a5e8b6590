"""The Genesis application-programmer interface (Section III-E).

Python counterparts of the paper's C++ host API:

* :meth:`GenesisRuntime.configure_mem` — blocking; registers one column
  with a memory reader/writer of a pipeline and copies input data to the
  accelerator memory (charging PCIe time);
* :meth:`GenesisRuntime.run_genesis` — non-blocking; simulates the
  pipeline (cycle count comes from the registered kernel) and schedules
  its completion on the virtual timeline;
* :meth:`GenesisRuntime.check_genesis` / :meth:`wait_genesis` — poll or
  block on completion;
* :meth:`GenesisRuntime.genesis_flush` — blocking; copies results back
  and returns them.

The host can interleave :meth:`host_compute` between ``run`` and ``wait``
to model the concurrent host/accelerator execution the non-blocking API
exists for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..obs.log import get_logger
from .device import DeviceConfig, GenesisDevice

_log = get_logger("runtime")

#: A kernel simulates one pipeline invocation: takes the configured input
#: columns (name -> data), returns (results dict, simulated cycles).
Kernel = Callable[[Dict[str, object]], Tuple[Dict[str, object], int]]


@dataclass
class ColumnBinding:
    """One configure_mem registration."""

    data: object
    elem_size: int
    length: int
    colname: str
    is_output: bool = False

    @property
    def nbytes(self) -> int:
        """Payload size used for the PCIe transfer model."""
        return self.elem_size * self.length


@dataclass
class PipelineState:
    """Host-visible state of one hardware pipeline."""

    kernel: Kernel
    columns: Dict[str, ColumnBinding] = field(default_factory=dict)
    results: Optional[Dict[str, object]] = None
    launched: bool = False


class GenesisRuntime:
    """Host-side manager for Genesis pipelines on one device.  Its
    API-level traffic reads off :attr:`device`: every DMA is a row of
    ``device.transfers``, occupancy is ``device.timeline``, reservations
    ``device.allocated_bytes``.  Like the paper's host API it has no
    fault model: an injected fault is a failed wave attempt
    (DESIGN.md §3.5).
    """

    def __init__(self, config: Optional[DeviceConfig] = None):
        self.device = GenesisDevice(config)
        self._pipelines: Dict[int, PipelineState] = {}

    # -- pipeline registry ---------------------------------------------------------

    def register_pipeline(self, pipeline_id: int, kernel: Kernel) -> None:
        """Bind a simulation kernel to a pipeline id (the bitstream-load
        analog; real deployments flash the FPGA image here)."""
        if pipeline_id in self._pipelines:
            raise ValueError(f"pipeline {pipeline_id} already registered")
        self._pipelines[pipeline_id] = PipelineState(kernel)

    def _state(self, pipeline_id: int) -> PipelineState:
        try:
            return self._pipelines[pipeline_id]
        except KeyError:
            raise KeyError(f"unknown pipeline {pipeline_id}") from None

    # -- the paper's five calls --------------------------------------------------------

    def configure_mem(
        self,
        data: object,
        elem_size: int,
        length: int,
        colname: str,
        pipeline_id: int,
        is_output: bool = False,
    ) -> None:
        """Blocking: register a column and copy input data to the device
        (the paper's ``configure_mem(addr, elemsize, len, colname,
        pipelineID)``).  Output columns reserve device memory but transfer
        nothing until :meth:`genesis_flush`."""
        state = self._state(pipeline_id)
        binding = ColumnBinding(data, elem_size, length, colname, is_output)
        state.columns[colname] = binding
        self.device.allocate(binding.nbytes)
        if not is_output:
            self.device.transfer(binding.nbytes, "h2d")
        _log.debug(
            "configure_mem %s: %d bytes -> pipeline %d%s",
            colname, binding.nbytes, pipeline_id,
            " (output)" if is_output else "",
            extra={"pipeline": pipeline_id, "column": colname},
        )

    def run_genesis(self, pipeline_id: int) -> None:
        """Non-blocking: start the pipeline.  The kernel simulation runs
        eagerly (we need its cycle count) but completion is scheduled on
        the virtual timeline, so ``check_genesis`` stays meaningful."""
        state = self._state(pipeline_id)
        inputs = {
            name: binding.data
            for name, binding in state.columns.items()
            if not binding.is_output
        }
        results, cycles = state.kernel(inputs)
        state.results = results
        state.launched = True
        self.device.launch(pipeline_id, cycles)
        _log.debug(
            "run_genesis pipeline %d: %d simulated cycles",
            pipeline_id, cycles, extra={"pipeline": pipeline_id},
        )

    def check_genesis(self, pipeline_id: int) -> bool:
        """Non-blocking completion poll."""
        state = self._state(pipeline_id)
        if not state.launched:
            return False
        return self.device.is_done(pipeline_id)

    def wait_genesis(self, pipeline_id: int) -> None:
        """Blocking wait for completion."""
        state = self._state(pipeline_id)
        if not state.launched:
            raise RuntimeError(f"pipeline {pipeline_id} was never launched")
        self.device.wait(pipeline_id)

    def genesis_flush(self, pipeline_id: int) -> Dict[str, object]:
        """Blocking: wait, copy results back over PCIe, return them."""
        state = self._state(pipeline_id)
        self.wait_genesis(pipeline_id)
        nbytes = sum(
            binding.nbytes
            for binding in state.columns.values()
            if binding.is_output
        )
        if nbytes:
            self.device.transfer(nbytes, "d2h")
        _log.debug(
            "genesis_flush pipeline %d: %d bytes back",
            pipeline_id, nbytes, extra={"pipeline": pipeline_id},
        )
        return state.results or {}

    # -- host-side modelling -------------------------------------------------------------

    def host_compute(self, seconds: float) -> None:
        """Model host CPU work overlapping the accelerator."""
        self.device.timeline.advance_host(seconds)

    @property
    def elapsed_seconds(self) -> float:
        """Virtual wall-clock since runtime creation."""
        return self.device.timeline.now
