"""On-chip scratchpad memory (SPM).

Section III-C: Genesis maps frequently reused tables (the reference
partition, the BQSR count buffers) onto on-chip scratchpads.  The SPM model
provides word-addressed storage with single-cycle access plus the
read-modify-write hazard interlock the paper describes for the SPM Updater:
the update pipeline has three stages (read, modify, write) and an incoming
flit whose address matches any in-flight address must not enter the read
stage until the conflict drains.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np


class Scratchpad:
    """Word-addressed on-chip storage."""

    def __init__(self, name: str, size: int, fill: int = 0):
        if size < 1:
            raise ValueError("scratchpad size must be positive")
        self.name = name
        self.size = size
        self._data: List[int] = [fill] * size
        self._fill = fill
        #: The addresses written since every word held ``_fill`` (None
        #: once a bulk load may have changed any of them).
        self._written: Optional[Set[int]] = set()
        # statistics
        self.reads = 0
        self.writes = 0

    def read(self, address: int) -> int:
        """Read one word (single-cycle)."""
        self._check(address)
        self.reads += 1
        return self._data[address]

    def write(self, address: int, value) -> None:
        """Write one word (single-cycle)."""
        self._check(address)
        self.writes += 1
        self._data[address] = value
        if self._written is not None:
            self._written.add(address)

    def peek(self, address: int):
        """Read one word without counting it: a planned run
        (:mod:`repro.hw.maxplus`) counts its accesses when it commits."""
        self._check(address)
        return self._data[address]

    def peek_span(self, start: int, stop: int) -> List[int]:
        """Words ``start .. stop - 1``, uncounted like :meth:`peek`."""
        if start < stop:
            self._check(start)
            self._check(stop - 1)
        return self._data[start:stop]

    def commit(self, words: Dict[int, object], reads: int = 0, writes: int = 0) -> None:
        """Apply a planned run: its final ``words`` and its access counts."""
        for address, value in words.items():
            self._data[address] = value
        if self._written is not None:
            self._written.update(words)
        self.reads += reads
        self.writes += writes

    def load(self, values, offset: int = 0) -> None:
        """Bulk initialization used by tests/drivers (the hardware path
        goes through an SPM Updater in sequential-write mode).  Counts
        one write per word, like the updater would."""
        values = list(values)
        end = offset + len(values)
        if values and not 0 <= offset < end <= self.size:
            raise IndexError(
                f"{self.name}: words {offset}..{end - 1} out of range"
            )
        self._data[offset:end] = values
        self.writes += len(values)
        self._written = None

    def dump(self) -> List[int]:
        """A copy of the whole contents (drain-to-memory view)."""
        return list(self._data)

    def to_array(self, dtype=np.int64) -> np.ndarray:
        """The whole contents as a numpy array, as ``np.array(dump(),
        dtype)`` builds it; only the words written since the fill are
        read one by one."""
        if self._written is None:
            return np.array(self._data, dtype=dtype)
        array = np.full(self.size, self._fill, dtype=dtype)
        if self._written:
            addresses = list(self._written)
            array[addresses] = [self._data[address] for address in addresses]
        return array

    def clear(self, fill: int = 0) -> None:
        """Reset all words to ``fill``."""
        for index in range(self.size):
            self._data[index] = fill
        self._fill = fill
        self._written = set()

    def _check(self, address: int) -> None:
        if not 0 <= address < self.size:
            raise IndexError(f"{self.name}: address {address} out of range")

    def __len__(self) -> int:
        return self.size


class RmwInterlock:
    """The three-stage read-modify-write hazard tracker.

    ``try_enter(cycle, address)`` returns False (stall) when the address
    matches any of the updates still inside the three pipeline stages —
    i.e. entered fewer than 3 cycles ago.  On True the address is recorded
    as in flight.
    """

    STAGES = 3

    def __init__(self) -> None:
        self._in_flight: Dict[int, int] = {}
        self.hazard_stalls = 0

    def try_enter(self, cycle: int, address: int) -> bool:
        """Attempt to admit an update to ``address`` at ``cycle``."""
        self._expire(cycle)
        if address in self._in_flight:
            self.hazard_stalls += 1
            return False
        self._in_flight[address] = cycle
        return True

    def _expire(self, cycle: int) -> None:
        expired = [
            address
            for address, entered in self._in_flight.items()
            if cycle - entered >= self.STAGES
        ]
        for address in expired:
            del self._in_flight[address]

    def entries(self) -> Dict[int, int]:
        """The in-flight updates: address -> cycle it entered."""
        return dict(self._in_flight)

    def settle(self, entered: Dict[int, int], stalls: int) -> None:
        """Adopt a planned run's end state: ``entered`` maps each address
        to the cycle of its last entry (the pre-run entries included),
        ``stalls`` the hazard stalls the run counted.  Entries expire as
        of the last entry, as that ``try_enter`` would have left them."""
        if entered:
            last = max(entered.values())
            self._in_flight = {
                address: cycle for address, cycle in entered.items()
                if last - cycle < self.STAGES
            }
        self.hazard_stalls += stalls

    def pending(self) -> int:
        """Updates that may still occupy a pipeline stage — an upper
        bound, since entries are lazily expired on the next
        ``try_enter``/``busy`` call.  Expiry is keyed to cycle stamps,
        not call counts."""
        return len(self._in_flight)

    def busy(self, cycle: int) -> bool:
        """True while updates are still in the pipeline stages."""
        self._expire(cycle)
        return bool(self._in_flight)
