"""The metrics registry: counters and histograms.

A :class:`MetricsRegistry` is an in-process accumulator with two users
(the catalogue is DESIGN.md §3.3, checked by ``tools/check_docs.py``):
the :class:`~repro.obs.profile.Profiler` samples queue occupancy into
histograms, and the SQL :class:`~repro.sql.executor.Executor` charges
each operator's seconds and rows to counters.  Nothing on the run path
(scheduler, sharding, serve, runtime, faults) writes here — those facts
live once in the ledger and once in the stats object the caller reads.

Instruments are plain Python objects with one hot method each
(``inc``/``record``); a registry created with ``enabled=False`` hands
out shared *null* instruments whose mutators are no-ops, so
instrumented code pays one attribute call and nothing else when metrics
are off.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount=1) -> None:
        """Add ``amount`` (must be >= 0)."""
        self.value += amount


class Histogram:
    """A distribution over small non-negative integers (queue depths,
    per-cycle occupancies): ``counts[v]`` is how many observations saw
    value ``v``.  ``record(value, weight)`` supports charging a run of
    identical cycles in one call (the event engine's fast-forward gap)."""

    __slots__ = ("name", "labels", "counts")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
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


class _NullInstrument:
    """Shared no-op stand-in handed out by disabled registries."""

    __slots__ = ()
    name = "<disabled>"
    labels: Dict[str, str] = {}
    value = 0
    counts: List[int] = []
    total = 0

    def inc(self, amount=1) -> None:
        pass

    def record(self, value: int, weight: int = 1) -> None:
        pass

    def mean(self) -> float:
        return 0.0

    def quantile(self, q: float) -> int:
        return 0


_NULL = _NullInstrument()


class MetricsRegistry:
    """Creates and stores instruments, keyed by name + labels.

    ``counter``/``histogram`` are get-or-create: repeated calls with the
    same name and labels return the same instrument, so writers can
    publish without coordinating ownership.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: "Dict[MetricKey, object]" = {}

    def _get(self, cls, name: str, labels: Dict[str, object]):
        if not self.enabled:
            return _NULL
        key = _key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, {k: str(v) for k, v in labels.items()})
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        """Get or create a counter."""
        return self._get(Counter, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        """Get or create a histogram."""
        return self._get(Histogram, name, labels)

    # -- queries -----------------------------------------------------------------

    def __iter__(self) -> Iterator[object]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def find(self, name: str, **labels):
        """The instrument registered under ``name`` + ``labels``, or None."""
        return self._instruments.get(_key(name, labels))

    def value(self, name: str, default=0, **labels):
        """The scalar value of a counter (``default`` when absent)."""
        instrument = self.find(name, **labels)
        if instrument is None:
            return default
        return instrument.value

    def values(self, name: str) -> Dict[Tuple[Tuple[str, str], ...], object]:
        """Every instrument registered under ``name``, keyed by labels."""
        return {
            key[1]: inst
            for key, inst in self._instruments.items()
            if key[0] == name
        }

    def total(self, name: str, default=0):
        """The sum of a counter's values across every label set
        (``default`` when nothing is registered under ``name``)."""
        instruments = self.values(name)
        if not instruments:
            return default
        return sum(inst.value for inst in instruments.values())

    def as_dict(self) -> Dict[str, object]:
        """A flat JSON-friendly snapshot: ``name{k=v,...}`` -> value
        (histograms dump their count vectors)."""
        out: Dict[str, object] = {}
        for (name, labels), inst in sorted(self._instruments.items()):
            if labels:
                rendered = ",".join(f"{k}={v}" for k, v in labels)
                key = f"{name}{{{rendered}}}"
            else:
                key = name
            if isinstance(inst, Histogram):
                out[key] = list(inst.counts)
            else:
                out[key] = inst.value
        return out


#: A registry that drops everything — the default for instrumented code
#: paths when no registry was supplied.
NULL_REGISTRY = MetricsRegistry(enabled=False)


def registry_or_null(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Normalize an optional registry argument."""
    return registry if registry is not None else NULL_REGISTRY
