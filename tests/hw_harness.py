"""Test harness for driving individual hardware modules.

``drive`` wires list-backed sources to a module's input ports and
collecting sinks to its output ports, runs the engine to quiescence, and
returns everything each output produced.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.hw.engine import Engine, RunStats
from repro.hw.flit import Flit
from repro.hw.module import Module


class ListSource(Module):
    """Emits a pre-loaded flit list, one flit per cycle."""

    def __init__(self, name: str, flits: Sequence[Flit]):
        super().__init__(name)
        self._flits: List[Flit] = list(flits)
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


class ListSink(Module):
    """Collects every flit it receives."""

    def __init__(self, name: str):
        super().__init__(name)
        self.collected: List[Flit] = []

    def tick(self, cycle: int) -> None:
        queue = self.input()
        if queue.can_pop():
            self.collected.append(queue.pop())
            self._note_busy()


def drive(
    module: Module,
    inputs: Dict[str, Iterable[Flit]],
    out_ports: Sequence[str] = ("out",),
    max_cycles: int = 1_000_000,
) -> Tuple[Dict[str, List[Flit]], RunStats]:
    """Run ``module`` with the given per-port input flits; returns the
    flits collected on each output port plus run statistics."""
    engine = Engine()
    engine.add_module(module)
    for port, flits in inputs.items():
        source = ListSource(f"src.{port}", list(flits))
        engine.add_module(source)
        engine.connect(source, module, in_port=port)
    sinks = {}
    for port in out_ports:
        sink = ListSink(f"sink.{port}")
        engine.add_module(sink)
        engine.connect(module, sink, out_port=port)
        sinks[port] = sink
    stats = engine.run(max_cycles=max_cycles)
    return {port: sink.collected for port, sink in sinks.items()}, stats


def values(flits: Iterable[Flit], field: str = "value") -> List[object]:
    """Payload values of the given field, skipping boundary flits."""
    return [flit[field] for flit in flits if field in flit]


def items_of(flits: Iterable[Flit], field: str = "value") -> List[List[object]]:
    """Group payload values into items using the last bits."""
    items: List[List[object]] = []
    current: List[object] = []
    for flit in flits:
        if field in flit.fields:
            current.append(flit[field])
        if flit.last:
            items.append(current)
            current = []
    if current:
        items.append(current)
    return items


def modelled_fields(stats: RunStats) -> Dict[str, object]:
    """Every RunStats field except ``wall_seconds`` — what two runs of the
    same simulation must agree on exactly, on any host."""
    fields = dict(vars(stats))
    del fields["wall_seconds"]
    return fields


def assert_same_modelled(a: Optional[RunStats], b: Optional[RunStats]) -> None:
    """Two optional RunStats are both absent or agree on every modelled
    field."""
    assert (a is None) == (b is None)
    if a is not None:
        assert modelled_fields(a) == modelled_fields(b)
