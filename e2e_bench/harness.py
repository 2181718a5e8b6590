"""Measurement primitives of the end-to-end benchmark.

Nothing here knows about ``repro``: the span recorder, the self-time
arithmetic, the percentile and failed-operation rules and the
environment stamp are plain Python so ``test_harness.py`` can pin them
without running a workload.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence


# -- spans ---------------------------------------------------------------------------


@dataclass
class Span:
    """One timed call into a layer.  ``name`` is ``<layer>.<what>``;
    ``parent`` is the id of the span that was open when this one
    started (``None`` for the root); all spans of one iteration share
    ``workload``."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    workload: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span recorder owned by the harness.

    Spans are opened around the calls into each layer from the
    benchmark's own files; a disabled recorder makes :meth:`span` a
    no-op so the untraced repeats run the identical code path.  The
    duration of every :meth:`step` is kept either way: host time is
    estimated step by step (:func:`fastest_steps`).
    """

    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans: List[Span] = []
        self.steps: List[float] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span = Span(
            id=len(self.spans), name=name, start=time.perf_counter(),
            end=math.nan, parent=self._open[-1] if self._open else None,
            workload=self.workload,
        )
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield
        finally:
            self._open.pop()
            span.end = time.perf_counter()

    @contextmanager
    def step(self, name: str) -> Iterator[None]:
        """One step of a workload's timed region: a span when tracing,
        and always one more entry of ``steps`` (two clock reads)."""
        started = time.perf_counter()
        try:
            with self.span(name):
                yield
        finally:
            self.steps.append(time.perf_counter() - started)

    def seconds(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def to_json(self) -> List[dict]:
        return [asdict(span) for span in self.spans]


def covered_seconds(intervals: Iterable[Sequence[float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_seconds(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span id: the span's duration minus the part of
    that interval its child spans cover (children are clipped to the
    parent and overlapping children are counted once)."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, [])
            if child.end > span.start and child.start < span.end
        ]
        out[span.id] = span.seconds - covered_seconds(clipped)
    return out


def unattributed_frac(spans: Sequence[Span]) -> float:
    """Share of the root span no layer span covers.  Above 0.05 a layer
    is missing a span."""
    roots = [span for span in spans if span.parent is None]
    if len(roots) != 1 or roots[0].seconds <= 0:
        raise ValueError("expected exactly one non-empty root span")
    return self_seconds(spans)[roots[0].id] / roots[0].seconds


# -- percentiles and failed operations ---------------------------------------------


def nearest_rank(total: int, q: float) -> int:
    """1-based nearest-rank index of percentile ``q`` among ``total``
    ordered samples."""
    if total < 1 or not 0 < q <= 100:
        raise ValueError("need total >= 1 and 0 < q <= 100")
    return max(1, math.ceil(q / 100.0 * total))


def samples_beyond(total: int, q: float) -> int:
    """How many of ``total`` samples lie beyond percentile ``q``.  A
    percentile is reported only with at least ten samples beyond it."""
    return total - nearest_rank(total, q)


def latency_percentile(latencies: Sequence[Optional[float]], q: float) -> float:
    """Nearest-rank percentile where a missing latency (a rejected or
    failed request) counts as +inf: it misses any latency limit."""
    ordered = sorted(math.inf if v is None else v for v in latencies)
    return ordered[nearest_rank(len(ordered), q) - 1]


@dataclass
class OpTally:
    """Operations attempted and failed in one iteration."""

    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# -- samples -------------------------------------------------------------------------


def summarize(samples: Sequence[float]) -> dict:
    """Median with min/max and the sample count beside it."""
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": list(samples),
    }


def fastest_steps(iterations: Sequence[Sequence[float]]) -> float:
    """Host seconds of a timed region run several times, step by step:
    the sum over its steps of the fastest time each step took in any
    iteration.  Interference on a shared host only adds time and comes
    in bursts shorter than a second, so a step of tens of milliseconds
    meets a quiet moment in some iteration where a whole iteration of
    seconds never does.  Every iteration must be the same steps."""
    if len({len(steps) for steps in iterations}) != 1:
        raise ValueError("iterations differ in their number of steps")
    return sum(min(column) for column in zip(*iterations))


def timed_median(thunk, repeats: int) -> float:
    """Median wall seconds of ``repeats`` calls of ``thunk``."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        thunk()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child
    (``ru_maxrss`` is KiB on Linux)."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def environment(root: str) -> dict:
    """What two result files must share to be comparable."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": commit,
        "argv": list(sys.argv),
    }
