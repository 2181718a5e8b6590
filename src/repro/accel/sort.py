"""Hardware coordinate sort via a merge tree.

The mark-duplicates stage "also sorts all reads based on their starting
positions" (Section IV-B) — host-side in the paper.  This driver shows
the library covers it too: records are chunked into locally sorted runs
(the host or an insertion network provides runs), the runs stream through
a binary :class:`~repro.hw.modules.sorter.MergeUnit` tree, and the fully
ordered stream emerges at one record per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..hw.engine import Engine, RunStats
from ..hw.flit import Flit
from ..hw.memory import MemoryConfig, MemorySystem
from ..hw.module import Module
from ..hw.modules.sorter import build_merge_tree


class _RunFeeder(Module):
    """Streams one pre-framed run into a merge-tree leaf queue."""

    def __init__(self, name: str, flits: Sequence[Flit]):
        super().__init__(name)
        self._flits = list(flits)
        self._cursor = 0

    def tick(self, cycle: int) -> None:
        if self._cursor >= len(self._flits):
            return
        out = self.output()
        if not out.try_push(self._flits[self._cursor]):
            self._note_stalled(out)
            return
        self._cursor += 1
        self._note_busy()

    def is_idle(self) -> bool:
        return self._cursor >= len(self._flits)


class _RunCollector(Module):
    """Collects the merged run's payload values."""

    def __init__(self, name: str):
        super().__init__(name)
        self.keys: List[object] = []
        self.tags: List[object] = []

    def tick(self, cycle: int) -> None:
        queue = self.input()
        if queue.can_pop():
            flit = queue.pop()
            if flit.fields:
                self.keys.append(flit["key"])
                self.tags.append(flit.get("tag"))
            self._note_busy()


@dataclass
class HwSortResult:
    """Sorted keys (with carried tags) plus simulation statistics."""

    keys: List[object]
    tags: List[object]
    stats: RunStats


def _next_power_of_two(n: int) -> int:
    power = 1
    while power < n:
        power *= 2
    return max(2, power)


def run_hw_sort(
    keys: Sequence,
    tags: Optional[Sequence] = None,
    n_leaves: int = 8,
    memory_config: Optional[MemoryConfig] = None,
) -> HwSortResult:
    """Sort ``keys`` (carrying optional per-record ``tags``) through a
    merge tree with ``n_leaves`` leaves.

    Records are split round-robin into ``n_leaves`` runs, each run sorted
    locally (the host-prepared-runs model), then merged in one hardware
    pass.  Ties preserve leaf order, so equal keys keep a deterministic
    order.
    """
    n_leaves = _next_power_of_two(n_leaves)
    records: List[Tuple[object, object]] = [
        (key, tags[i] if tags is not None else None)
        for i, key in enumerate(keys)
    ]
    runs: List[List[Tuple[object, object]]] = [[] for _ in range(n_leaves)]
    for index, record in enumerate(records):
        runs[index % n_leaves].append(record)
    for run in runs:
        run.sort(key=lambda record: record[0])

    engine = Engine(MemorySystem(memory_config))
    leaf_queues, out_queue, _units = build_merge_tree(engine, "sort", n_leaves)
    for index, (queue, run) in enumerate(zip(leaf_queues, runs)):
        flits = []
        for key, tag in run:
            flits.append(Flit({"key": key, "tag": tag}))
        if flits:
            flits[-1].last = True
        else:
            flits = [Flit({}, last=True)]
        feeder = _RunFeeder(f"feed{index}", flits)
        engine.add_module(feeder)
        feeder.connect_output("out", queue)
    collector = _RunCollector("collect")
    engine.add_module(collector)
    collector.connect_input("in", out_queue)
    stats = engine.run()
    return HwSortResult(keys=collector.keys, tags=collector.tags, stats=stats)
