"""What a wave costs the host before its flits: the one-read probe.

Not a paper figure — this benchmark measures the simulator's fixed cost
per wave and per replica.  Each stage runs a wave of one replica and a
wave of two replicas, every replica holding a single 24-bp read, so
nearly all of the host time is the wave's set-up (building and wiring
the replicas, planning, compiling the timing pass, harvesting) rather
than its flits.  The SPM cache and the phase memo are warm, as they are
on a served run.  The best-of-N host milliseconds land in the
pytest-benchmark JSON (``extra_info``), reported and not asserted: the
host clock is ``e2e_bench``'s.

Run it alone with ``python benchmarks/test_wave_fixed_cost.py`` to print
the table.
"""

from __future__ import annotations

import gc
import time
from typing import Dict

from repro.accel import BqsrWaveDriver, MarkdupWaveDriver, MetadataWaveDriver
from repro.eval.workloads import make_workload

#: The stages the probe times, and the wave widths (replicas per wave).
DRIVERS = (MarkdupWaveDriver, MetadataWaveDriver, BqsrWaveDriver)
WIDTHS = (1, 2)
#: Timed runs per case (the fastest is kept) and untimed warm-up runs.
REPEATS = 30
WARMUP = 3


def _workload():
    # The serve tier's job size: 24-bp reads, several partitions.
    return make_workload(
        n_reads=120, read_length=24, genome_scale=4.5e-5, psize=1000,
        chromosomes=(20, 21), seed=2024,
    )


def one_read_waves(workload, driver_cls, width: int):
    """The driver and a wave of ``width`` replicas of one read each,
    over the stage's first non-empty partitions."""
    driver = driver_cls.over(workload)
    items = [
        (pid, part.limit(1)) for pid, part in driver_cls.items(workload)
        if part.num_rows
    ]
    return driver, items[:width]


def fixed_costs(repeats: int = REPEATS) -> Dict[str, float]:
    """Best-of-``repeats`` host milliseconds per ``<stage>_x<width>``."""
    workload = _workload()
    costs = {}
    for driver_cls in DRIVERS:
        for width in WIDTHS:
            driver, wave = one_read_waves(workload, driver_cls, width)
            for _ in range(WARMUP):
                driver.run_wave(wave)
            samples = []
            for _ in range(repeats):
                gc.collect()
                start = time.perf_counter()
                driver.run_wave(wave)
                samples.append(time.perf_counter() - start)
            costs[f"{driver_cls.stage}_x{width}"] = min(samples) * 1e3
    return costs


def test_wave_fixed_cost(benchmark, report):
    costs = {}

    def probe():
        costs.update(fixed_costs())

    benchmark.pedantic(probe, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {f"{case}_ms": round(ms, 3) for case, ms in costs.items()}
    )
    report("Wave fixed cost - one-read replicas, best host ms", [
        f"{case}: {ms:.2f} ms" for case, ms in costs.items()
    ])


if __name__ == "__main__":
    for case, ms in fixed_costs().items():
        print(f"{case:12s} {ms:6.2f} ms")
