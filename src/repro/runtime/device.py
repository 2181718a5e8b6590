"""Device model: FPGA card memory, PCIe link, and a virtual timeline.

The paper's host API (Section III-E) is non-blocking so the host CPU can
work while the accelerator runs.  To make that overlap observable without
real hardware, the runtime keeps a *virtual timeline* in simulated
seconds: blocking calls (``configure_mem``'s copy, ``genesis_flush``)
advance it by the PCIe transfer time, ``run_genesis`` schedules a
completion timestamp from simulated cycle counts, and host-side compute
advances it explicitly.  ``check_genesis`` then genuinely answers "has
the accelerator finished *yet*".

The card has no fault model of its own: a failed DMA or launch is a
failed attempt of the wave that issued it, injected and retried by the
wave executor (DESIGN.md §3.5), so a fault never moves this timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Sequence

from ..constants import CLOCK_HZ, MODEL_ROW_BYTES, PCIE3_BANDWIDTH
from ..obs.spans import WaveTimeline


class WaveStorage(Protocol):
    """What the device, sharding and serve layers ask of the modelled
    in-SSD filter (DESIGN.md §3.10): per-wave survivor accounting over
    ``(pid, Table)`` items plus the run-level figures the ``storage.run``
    summary reports.  :class:`~repro.storage.filter.StorageFilterPlan`
    is the product implementer; tests substitute fakes through it."""

    filtered_fraction: float
    compression_ratio: float
    internal_bandwidth: float

    def wave_nbytes(self, items: Sequence[tuple]) -> int: ...
    def wave_raw_nbytes(self, items: Sequence[tuple]) -> int: ...
    def wave_pruned_rows(self, items: Sequence[tuple]) -> int: ...
    def wave_scan_seconds(self, items: Sequence[tuple]) -> float: ...


@dataclass
class DeviceConfig:
    """Tunables of the modelled F1 card."""

    pcie_bandwidth: float = PCIE3_BANDWIDTH
    clock_hz: float = CLOCK_HZ
    fpga_memory_bytes: int = 64 * 1024 ** 3
    #: Fixed software/driver overhead charged per DMA transfer.
    transfer_setup_seconds: float = 20e-6

    def transfer_seconds(self, nbytes: int) -> float:
        """Modelled seconds one DMA of ``nbytes`` holds the PCIe link."""
        return nbytes / self.pcie_bandwidth + self.transfer_setup_seconds


@dataclass
class TransferRecord:
    """One host<->device DMA transfer."""

    direction: str  # "h2d" or "d2h"
    nbytes: int
    seconds: float


class VirtualTimeline:
    """Simulated wall-clock with separate host and device occupancy."""

    def __init__(self) -> None:
        self.now = 0.0
        self.host_busy_seconds = 0.0
        self.transfer_seconds = 0.0
        self.device_busy_seconds = 0.0

    def advance_host(self, seconds: float) -> None:
        """The host computes for ``seconds`` (accelerator may overlap)."""
        if seconds < 0:
            raise ValueError("cannot advance time backwards")
        self.now += seconds
        self.host_busy_seconds += seconds

    def advance_transfer(self, seconds: float) -> None:
        """A blocking DMA occupies the host for ``seconds``."""
        if seconds < 0:
            raise ValueError("cannot advance time backwards")
        self.now += seconds
        self.transfer_seconds += seconds

    def wait_until(self, timestamp: float) -> None:
        """Block the host until ``timestamp`` (no-op if already past)."""
        if timestamp > self.now:
            self.now = timestamp


class GenesisDevice:
    """The modelled FPGA card: tracks memory, transfers, and pipelines."""

    def __init__(self, config: Optional[DeviceConfig] = None):
        self.config = config or DeviceConfig()
        self.timeline = VirtualTimeline()
        self.transfers: list = []
        self._allocated = 0
        self._completion_at: Dict[int, float] = {}

    # -- memory & transfers --------------------------------------------------------

    def allocate(self, nbytes: int) -> None:
        """Reserve device memory (raises when the 64 GB card is full)."""
        if self._allocated + nbytes > self.config.fpga_memory_bytes:
            raise MemoryError(
                f"device memory exhausted: {self._allocated + nbytes} bytes "
                f"requested of {self.config.fpga_memory_bytes}"
            )
        self._allocated += nbytes

    def free_all(self) -> None:
        """Release all device memory."""
        self._allocated = 0

    @property
    def allocated_bytes(self) -> int:
        """Currently reserved device memory."""
        return self._allocated

    def transfer(self, nbytes: int, direction: str) -> float:
        """Perform a blocking DMA; returns its modelled seconds."""
        if direction not in ("h2d", "d2h"):
            raise ValueError(f"bad transfer direction {direction!r}")
        seconds = self.config.transfer_seconds(nbytes)
        self.transfers.append(TransferRecord(direction, nbytes, seconds))
        self.timeline.advance_transfer(seconds)
        return seconds

    # -- pipeline execution ------------------------------------------------------------

    def launch(self, pipeline_id: int, cycles: int) -> float:
        """Schedule pipeline completion ``cycles`` after *now*; returns the
        completion timestamp."""
        seconds = cycles / self.config.clock_hz
        completion = self.timeline.now + seconds
        self._completion_at[pipeline_id] = completion
        self.timeline.device_busy_seconds += seconds
        return completion

    def is_done(self, pipeline_id: int) -> bool:
        """Has the pipeline's completion timestamp passed?"""
        completion = self._completion_at.get(pipeline_id)
        if completion is None:
            return True
        return self.timeline.now >= completion

    def wait(self, pipeline_id: int) -> None:
        """Block the host until the pipeline finishes."""
        completion = self._completion_at.get(pipeline_id)
        if completion is not None:
            self.timeline.wait_until(completion)


class DevicePool:
    """N modelled cards, each with its own virtual timeline, PCIe link
    and device memory.

    The pool is the hardware side of every run: each wave of a direct
    run (:mod:`repro.accel.sharding`) or a served one is charged to its
    card (:meth:`charge_wave`), so per-device occupancy and utilization
    are observable at every topology, a lone card included.  The cards
    are fully independent — nothing in the pool is shared state.

    ``storage`` optionally attaches the modelled in-SSD filter
    (a :class:`~repro.storage.filter.StorageFilterPlan`): callers
    charging wave transfers consult :meth:`wave_nbytes` so only survivor
    bytes cross each card's PCIe link (DESIGN.md §3.10).  The pool
    itself stays byte-oriented — the plan is plan-time state, shared
    read-only across cards.
    """

    def __init__(
        self,
        devices: int = 1,
        storage: Optional[WaveStorage] = None,
    ):
        if devices < 1:
            raise ValueError("need at least one device")
        self.config = DeviceConfig()
        self.storage = storage
        self.devices = [
            GenesisDevice(config=self.config) for _ in range(devices)
        ]
        #: Each card's modelled clock, in cycles, when its last charged
        #: wave ends.
        self.free_at = [0] * devices

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self):
        return iter(self.devices)

    def wave_nbytes(self, items: list) -> int:
        """H2D bytes to charge for a wave of ``(pid, Table)`` items:
        the storage filter's survivor footprint when one is attached,
        else the raw modelled footprint, rows x :data:`MODEL_ROW_BYTES`."""
        if self.storage is not None:
            return self.storage.wave_nbytes(items)
        return sum(part.num_rows for _pid, part in items) * MODEL_ROW_BYTES

    def charge_wave(
        self,
        device: int,
        items: list,
        kernel: int,
        load: int,
        backoff_seconds: float,
        at: int,
    ) -> WaveTimeline:
        """Charge one executed wave to card ``device`` and return its
        :class:`~repro.obs.spans.WaveTimeline` — the one place a card's
        wave is charged, for direct and served runs alike.

        The wave starts at ``at`` or when the card frees up, whichever is
        later; its retry ``backoff_seconds`` is a penalty ahead of it,
        then the H2D DMA of its payload (:meth:`wave_nbytes`), the SPM
        ``load`` and ``kernel`` cycles — launch, wait.  The card's busy
        seconds count the kernel, its transfer seconds the DMA."""
        card = self.devices[device]
        seconds = card.transfer(self.wave_nbytes(items), "h2d")
        card.launch(0, kernel)  # one wave at a time on a card
        card.wait(0)
        clock_hz = self.config.clock_hz
        timeline = WaveTimeline(
            max(at, self.free_at[device]),
            penalty=int(round(backoff_seconds * clock_hz)),
            transfer=int(round(seconds * clock_hz)),
            load=load, kernel=kernel,
        )
        self.free_at[device] = timeline.end
        return timeline

    def busy_seconds(self) -> list:
        """Per-device accelerator occupancy, in device order."""
        return [d.timeline.device_busy_seconds for d in self.devices]

    def transfer_seconds(self) -> list:
        """Per-device PCIe link occupancy, in device order."""
        return [d.timeline.transfer_seconds for d in self.devices]
