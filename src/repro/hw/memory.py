"""Accelerator-side memory system model.

The AWS F1 card carries 64 GB of DDR4 across four channels; Figure 8 shows
every pipeline's memory readers/writers arbitrated through local arbiters
onto per-channel global arbiters.  This model captures the two properties
that shape Genesis performance:

* **bandwidth** — each channel services one fixed-size access (default
  64 B) per cycle, so total bandwidth is ``channels * 64 B/cycle``
  (4 x 16 GB/s at 250 MHz, the F1's DDR4 configuration);
* **latency** — a fixed response latency per request (default 40 cycles),
  hidden by the readers' prefetch buffers exactly as in the paper.

Requesters (memory reader/writer modules) register a port; each port is
assigned to a channel round-robin.  Per cycle, each channel grants one
outstanding request via a round-robin arbiter over its ports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .arbiter import RoundRobinArbiter

#: Memory access granularity in bytes (the paper's example value).
ACCESS_BYTES = 64


@dataclass(frozen=True)
class MemoryConfig:
    """Memory system parameters (defaults model the F1's 4-channel DDR4
    at a 250 MHz accelerator clock).  Immutable and hashable, so a
    configuration is itself the key of anything memoized per config."""

    channels: int = 4
    access_bytes: int = ACCESS_BYTES
    latency_cycles: int = 40

    def __post_init__(self) -> None:
        if self.channels < 1 or self.access_bytes < 1 or self.latency_cycles < 0:
            raise ValueError("invalid memory configuration")
        # keys every phase and SPM-image lookup: hash the fields once
        object.__setattr__(self, "_hash", hash(
            (self.channels, self.access_bytes, self.latency_cycles)
        ))

    def __hash__(self) -> int:
        return self._hash

    def bandwidth_bytes_per_cycle(self) -> int:
        """Aggregate bandwidth of all channels."""
        return self.channels * self.access_bytes


class MemorySystem:
    """Request-level memory model with per-channel round-robin arbitration."""

    def __init__(self, config: Optional[MemoryConfig] = None):
        self.config = config or MemoryConfig()
        self._ports: List[Tuple[int, Callable[[int], None]]] = []
        self._pending: List[Deque[int]] = []
        self._in_flight: Deque[Tuple[int, int, Callable[[int], None], int]] = deque()
        self._arbiters: List[RoundRobinArbiter] = [
            RoundRobinArbiter(f"mem.ch{c}", 1) for c in range(self.config.channels)
        ]
        self._ports_by_channel: List[List[int]] = [
            [] for _ in range(self.config.channels)
        ]
        self._pending_total = 0
        # Per-channel pending counts let tick() skip a channel without
        # rebuilding its request vector (the arbitration loop runs every
        # simulated cycle while any request is queued).
        self._pending_by_channel: List[int] = [0] * self.config.channels
        # statistics
        self.requests_served = 0
        self.bytes_transferred = 0
        self.busy_channel_cycles = 0
        self.responses_completed = 0
        #: Grants issued per channel — the profiler's per-channel
        #: utilization is grants/cycles (one access per channel-cycle).
        self.channel_grants: List[int] = [0] * self.config.channels

    # -- port registration ------------------------------------------------------

    def register_port(self, on_response: Optional[Callable[[int], None]] = None) -> int:
        """Register a requester.  ``on_response(count)`` is called when its
        read requests complete (writers pass None).  Returns the port id."""
        port = len(self._ports)
        channel = port % self.config.channels
        self._ports.append((channel, on_response))
        self._pending.append(deque())
        ports = self._ports_by_channel[channel]
        ports.append(port)
        # the channel's arbiter now fronts one more port
        self._arbiters[channel] = RoundRobinArbiter(f"mem.ch{channel}", len(ports))
        return port

    def release(self) -> None:
        """Forget every port and its callback (see
        :meth:`repro.hw.engine.Engine.release`)."""
        self._ports.clear()

    # -- request issue -----------------------------------------------------------

    def request(self, port: int, count: int = 1) -> None:
        """Enqueue ``count`` access-granularity requests from ``port``."""
        if count < 1:
            raise ValueError("count must be positive")
        self._pending[port].extend([1] * count)
        self._pending_total += count
        self._pending_by_channel[self._ports[port][0]] += count

    def pending_requests(self, port: int) -> int:
        """Requests of ``port`` not yet granted a channel slot."""
        return len(self._pending[port])

    def in_flight(self) -> int:
        """Requests granted but not yet completed."""
        return len(self._in_flight)

    # -- simulation ---------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """One cycle: each channel grants one request; complete responses
        whose latency elapsed."""
        if self._pending_total:
            pending = self._pending
            for channel, ports in enumerate(self._ports_by_channel):
                if not self._pending_by_channel[channel]:
                    continue
                requesting = [bool(pending[p]) for p in ports]
                winner = self._arbiters[channel].grant(requesting)
                if winner is None:
                    continue
                port = ports[winner]
                pending[port].popleft()
                self._pending_total -= 1
                self._pending_by_channel[channel] -= 1
                self.requests_served += 1
                self.bytes_transferred += self.config.access_bytes
                self.busy_channel_cycles += 1
                self.channel_grants[channel] += 1
                _channel, on_response = self._ports[port]
                ready_at = cycle + self.config.latency_cycles
                self._in_flight.append((ready_at, port, on_response, 1))
        in_flight = self._in_flight
        while in_flight and in_flight[0][0] <= cycle:
            _ready, _port, on_response, count = in_flight.popleft()
            self.responses_completed += 1
            if on_response is not None:
                on_response(count)

    def is_idle(self) -> bool:
        """True when no requests are pending or in flight."""
        return not self._in_flight and self._pending_total == 0

    def pending_by_port(self) -> Dict[int, int]:
        """Outstanding (ungranted) request counts per port — deadlock
        diagnostics."""
        return {
            port: len(queue)
            for port, queue in enumerate(self._pending)
            if queue
        }
