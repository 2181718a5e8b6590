"""The metrics registry: labelled counters, plus the histogram type.

A :class:`MetricsRegistry` is an in-process accumulator of labelled
:class:`Counter` instruments with one writer (the catalogue is
DESIGN.md §3.3, checked by ``tools/check_docs.py``): the SQL
:class:`~repro.sql.executor.Executor` charges each operator's seconds
and rows to it when a caller passes one as ``metrics=``.
:class:`Histogram` is the occupancy distribution a
:class:`~repro.obs.profile.ProfileReport` derives per queue.  Nothing on the
run path (scheduler, sharding, serve, runtime, faults) writes here —
those facts live once in the ledger and once in the stats object the
caller reads.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

#: (name, labels) -> instrument key.  Labels are sorted key=value pairs so
#: lookup order never changes identity.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def nearest_rank(total: int, q: float) -> int:
    """The 1-based nearest-rank index of percentile ``q`` in an ordered
    sample of ``total`` observations: ``max(1, ceil(q/100 * total))``.

    Deterministic, no interpolation — ties and integer samples come out
    exact, which is why both the serving SLO report and the histogram
    summaries use it."""
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    if total <= 0:
        raise ValueError("total must be positive")
    return max(1, math.ceil(q / 100.0 * total))


def nearest_rank_percentile(values: Sequence, q: float):
    """Nearest-rank percentile of ``values`` (``None`` when empty)."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), q) - 1]


def _key(name: str, labels: Dict[str, object]) -> MetricKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing tally (int or float increments)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount=1) -> None:
        """Add ``amount`` (must be >= 0)."""
        self.value += amount


class Histogram:
    """A distribution over small non-negative integers (queue depths,
    per-cycle occupancies): ``counts[v]`` is how many observations saw
    value ``v``.  ``record(value, weight)`` charges a run of identical
    observations in one call."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: List[int] = []

    def record(self, value: int, weight: int = 1) -> None:
        """Count ``weight`` observations of ``value``."""
        counts = self.counts
        if value >= len(counts):
            counts.extend([0] * (value + 1 - len(counts)))
        counts[value] += weight

    @property
    def total(self) -> int:
        """Total observations recorded."""
        return sum(self.counts)

    def mean(self) -> float:
        """Mean observed value (0.0 when empty)."""
        total = self.total
        if not total:
            return 0.0
        return sum(v * c for v, c in enumerate(self.counts)) / total

    def quantile(self, q: float) -> int:
        """The smallest value covering fraction ``q`` of observations
        (nearest-rank, shared with :func:`nearest_rank`)."""
        total = self.total
        if not total:
            return 0
        rank = nearest_rank(total, q * 100.0)
        seen = 0
        for value, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return value
        return len(self.counts) - 1


class MetricsRegistry:
    """Creates and stores counters, keyed by name + labels.

    ``counter`` is get-or-create: repeated calls with the same name and
    labels return the same instrument, so writers can publish without
    coordinating ownership.
    """

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Counter] = {}

    def counter(self, name: str, **labels) -> Counter:
        """Get or create a counter."""
        key = _key(name, labels)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def values(self, name: str) -> Dict[Tuple[Tuple[str, str], ...], Counter]:
        """Every counter registered under ``name``, keyed by labels."""
        return {
            key[1]: counter
            for key, counter in self._counters.items()
            if key[0] == name
        }

    def total(self, name: str, default=0):
        """The sum of a counter's values across every label set
        (``default`` when nothing is registered under ``name``)."""
        counters = self.values(name)
        if not counters:
            return default
        return sum(counter.value for counter in counters.values())
