"""Genesis pipeline for callset set-operations (Section IV-E).

"Intersection of training/truth resource sets and callsets in Variant
Quality Score Recalibration (VQSR)" is on the paper's list of
Genesis-amenable operations — and it maps directly onto the library's
merge-Joiner: each callset is a stream of variant flits keyed by
``(chrom, pos, ref, alt)`` in coordinate order, and an inner join yields
the intersection at one variant per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..hw.engine import Engine, RunStats
from ..hw.flit import Flit
from ..hw.memory import MemoryConfig, MemorySystem
from ..hw.modules import Joiner, MemoryReader, MemoryWriter
from ..hw.pipeline import Pipeline
from ..variants.records import CallSet, Variant


def _variant_key(variant: Variant) -> Tuple[int, int, str, str]:
    return variant.key()


def _callset_flits(callset: CallSet, side: str) -> List[Flit]:
    """One item: the whole callset as keyed flits in key order."""
    ordered = sorted(callset, key=_variant_key)
    flits = [
        Flit({"key": _variant_key(variant), f"variant_{side}": variant})
        for variant in ordered
    ]
    if flits:
        flits[-1].last = True
    else:
        flits = [Flit({}, last=True)]
    return flits


@dataclass
class CallsetOpResult:
    """Result of one hardware callset operation."""

    callset: CallSet
    stats: RunStats


def run_callset_intersection(
    a: CallSet, b: CallSet, memory_config: Optional[MemoryConfig] = None
) -> CallsetOpResult:
    """Hardware intersection: inner join on the variant key."""
    engine = Engine(MemorySystem(memory_config))
    pipe = Pipeline("cs", engine)
    reader_a = pipe.add(MemoryReader("cs.a", engine.memory, elem_size=16))
    reader_b = pipe.add(MemoryReader("cs.b", engine.memory, elem_size=16))
    joiner = pipe.add(Joiner("cs.join", mode="inner", key_a="key", key_b="key"))
    writer = pipe.add(
        MemoryWriter("cs.writer", engine.memory, elem_size=16, field="variant_a")
    )
    engine.connect(reader_a, joiner, in_port="a")
    engine.connect(reader_b, joiner, in_port="b")
    engine.connect(joiner, writer)
    reader_a.set_stream(_callset_flits(a, "a"))
    reader_b.set_stream(_callset_flits(b, "b"))
    stats = engine.run()
    return CallsetOpResult(
        CallSet(writer.collected, name=f"{a.name}&{b.name}"), stats
    )
