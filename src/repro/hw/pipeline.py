"""Pipeline containers: named module groups.

Section III-D: a Genesis accelerator is one dataflow pipeline, optionally
replicated N times (Figure 8) with all replicas sharing the memory system
through the arbitration fabric.  :class:`Pipeline` names and tracks the
modules of one replica; N replicas in one engine — so the shared-memory
contention is simulated for real — is
:meth:`repro.accel.scheduler.WaveDriver.run_wave`.
"""

from __future__ import annotations

from typing import Dict

from .engine import Engine
from .module import Module


class Pipeline:
    """One hardware pipeline: a named bag of modules wired into an engine."""

    def __init__(self, name: str, engine: Engine):
        self.name = name
        self.engine = engine
        self.modules: Dict[str, Module] = {}

    def add(self, module: Module) -> Module:
        """Register a module under its own name and add it to the engine."""
        if module.name in self.modules:
            raise ValueError(f"{self.name}: duplicate module {module.name}")
        self.modules[module.name] = module
        self.engine.add_module(module)
        return module

    def module_census(self) -> Dict[str, int]:
        """Count of module instances by type name (resource modelling)."""
        census: Dict[str, int] = {}
        for module in self.modules.values():
            type_name = type(module).__name__
            census[type_name] = census.get(type_name, 0) + 1
        return census
