"""The stage table: every wave-shaped accelerator, by name.

A stage is one :class:`~repro.accel.scheduler.WaveDriver` subclass living
beside its pipeline builder; the class carries its own row — the driver
over a workload (``over``), the partition list it runs on (``items``)
and, for the three GATK4 preprocessing stages the paper builds, the name
:mod:`repro.perf.timing` and ``PAPER_TARGETS`` know it by (``timing``).
The job service's trace mix, ``repro profile``, the Figure 13
calibration and the stage-table tests all read this table; adding an
accelerator is one driver subclass plus its entry here.
"""

from __future__ import annotations

from typing import Dict, Type

from .active_region import ActiveRegionWaveDriver
from .bqsr import BqsrWaveDriver
from .example_query import ExampleQueryWaveDriver
from .markdup import MarkdupWaveDriver
from .metadata import MetadataWaveDriver
from .scheduler import WaveDriver

#: Stage name -> its driver class, the paper's pipeline order first.
STAGES: Dict[str, Type[WaveDriver]] = {
    driver.stage: driver
    for driver in (
        MarkdupWaveDriver, MetadataWaveDriver, BqsrWaveDriver,
        ExampleQueryWaveDriver, ActiveRegionWaveDriver,
    )
}

#: The GATK4 preprocessing stages the paper builds and models, under
#: their names here and under the names :mod:`repro.perf.timing` has.
PAPER_STAGES = tuple(name for name, row in STAGES.items() if row.timing)
TIMED_STAGES = tuple(STAGES[name].timing for name in PAPER_STAGES)


def stage_named(name: str) -> Type[WaveDriver]:
    """The stage ``name`` refers to — by its key here or by its
    timing-model name (``bqsr`` and ``bqsr_table`` are one stage)."""
    for key, row in STAGES.items():
        if name in (key, row.timing):
            return row
    raise KeyError(f"unknown stage {name!r}")
