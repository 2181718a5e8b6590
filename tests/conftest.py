"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import settings

from repro.accel import scheduler
from repro.eval.workloads import Workload, make_workload
from repro.genomics import ReadSimulator, ReferenceGenome, SimulatorConfig

# CI runs must be reproducible commit-over-commit: derandomize pins every
# hypothesis example sequence to the test body, so a red CI bisects to a
# code change rather than a lucky draw.  Local runs keep full randomness.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(autouse=True)
def no_pool_outlives_a_test():
    """The wave executor keeps its process pool between runs; a test
    starts without one, as every test did when each run built its own —
    so whatever a test patches before its first pooled run is what its
    workers fork with."""
    yield
    scheduler.drop_kept_pool()


@pytest.fixture
def pools_built(monkeypatch):
    """The size of every process pool the wave executor builds, in
    order, from here on."""
    built = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(scheduler, "ProcessPoolExecutor", CountedPool)
    return built


@pytest.fixture
def worker_pids(monkeypatch):
    """The process every direct wave placed on a card from here on ran
    in (its loads are re-tallied on the card's cache)."""
    pids = []
    replay_loads = scheduler.SpmImageCache.replay_loads

    def spy(cache, keys, outcome):
        pids.append(outcome.worker_pid)
        replay_loads(cache, keys, outcome)

    monkeypatch.setattr(scheduler.SpmImageCache, "replay_loads", spy)
    return pids


@pytest.fixture(scope="session")
def small_genome() -> ReferenceGenome:
    """A 5 kbp single-chromosome genome."""
    return ReferenceGenome.random({1: 5000}, snp_rate=0.01, seed=101)


@pytest.fixture(scope="session")
def two_chrom_genome() -> ReferenceGenome:
    """Two chromosomes of different lengths."""
    return ReferenceGenome.random({1: 6000, 2: 3000}, snp_rate=0.005, seed=102)


@pytest.fixture(scope="session")
def small_reads(small_genome):
    """~60 short reads with duplicates, indels, and clips."""
    simulator = ReadSimulator(
        small_genome,
        SimulatorConfig(seed=103, read_length=50, read_groups=2),
    )
    return simulator.simulate(60)


@pytest.fixture(scope="session")
def workload() -> Workload:
    """The standard small evaluation workload (two chromosomes)."""
    return make_workload(
        n_reads=80,
        read_length=60,
        chromosomes=(20, 21),
        genome_scale=1.2e-6,
        psize=2500,
        seed=104,
    )
