"""Tests for the host runtime API (Section III-E)."""

import pytest

from repro.runtime import DeviceConfig, GenesisRuntime
from repro.runtime.device import PCIE3_BANDWIDTH


def make_runtime(**config):
    runtime = GenesisRuntime(DeviceConfig(**config))
    # A kernel that sums its "qual" column and takes 1000 cycles.
    runtime.register_pipeline(
        0, lambda inputs: ({"sums": [sum(inputs["QUAL"])]}, 1000)
    )
    return runtime


def test_configure_mem_charges_transfer_time():
    runtime = make_runtime()
    runtime.configure_mem([1] * 100, 1, 100, "QUAL", 0)
    expected = 100 / PCIE3_BANDWIDTH + runtime.device.config.transfer_setup_seconds
    assert runtime.elapsed_seconds == pytest.approx(expected)
    assert runtime.device.transfers[0].direction == "h2d"


def test_output_columns_transfer_on_flush_only():
    runtime = make_runtime()
    runtime.configure_mem([1, 2, 3], 1, 3, "QUAL", 0)
    runtime.configure_mem(None, 4, 1, "SUMS", 0, is_output=True)
    before = len(runtime.device.transfers)
    runtime.run_genesis(0)
    assert len(runtime.device.transfers) == before
    results = runtime.genesis_flush(0)
    assert results == {"sums": [6]}
    assert runtime.device.transfers[-1].direction == "d2h"


def test_check_genesis_models_concurrency():
    """The non-blocking API: immediately after run_genesis the pipeline is
    still 'running'; after enough host compute it has finished."""
    runtime = make_runtime()
    runtime.configure_mem([1], 1, 1, "QUAL", 0)
    runtime.run_genesis(0)
    assert not runtime.check_genesis(0)  # 1000 cycles not yet elapsed
    runtime.host_compute(1000 / runtime.device.config.clock_hz)
    assert runtime.check_genesis(0)


def test_wait_genesis_advances_clock():
    runtime = make_runtime()
    runtime.configure_mem([1], 1, 1, "QUAL", 0)
    start = runtime.elapsed_seconds
    runtime.run_genesis(0)
    runtime.wait_genesis(0)
    assert runtime.elapsed_seconds >= start + 1000 / runtime.device.config.clock_hz


def test_overlap_saves_time_vs_serial():
    """Host work issued between run and wait overlaps the accelerator."""
    serial = make_runtime()
    serial.configure_mem([1], 1, 1, "QUAL", 0)
    serial.run_genesis(0)
    serial.wait_genesis(0)
    serial.host_compute(2e-6)

    overlapped = make_runtime()
    overlapped.configure_mem([1], 1, 1, "QUAL", 0)
    overlapped.run_genesis(0)
    overlapped.host_compute(2e-6)  # overlaps the 4 us accelerator run
    overlapped.wait_genesis(0)
    assert overlapped.elapsed_seconds < serial.elapsed_seconds


def test_check_before_launch_false():
    runtime = make_runtime()
    assert not runtime.check_genesis(0)


def test_wait_before_launch_raises():
    runtime = make_runtime()
    with pytest.raises(RuntimeError):
        runtime.wait_genesis(0)


def test_unknown_pipeline_rejected():
    runtime = make_runtime()
    with pytest.raises(KeyError):
        runtime.run_genesis(99)


def test_duplicate_pipeline_rejected():
    runtime = make_runtime()
    with pytest.raises(ValueError):
        runtime.register_pipeline(0, lambda inputs: ({}, 0))


def test_device_memory_exhaustion():
    runtime = GenesisRuntime(DeviceConfig(fpga_memory_bytes=100))
    runtime.register_pipeline(0, lambda inputs: ({}, 0))
    with pytest.raises(MemoryError):
        runtime.configure_mem([0] * 101, 1, 101, "BIG", 0)


def test_pcie4_config_is_faster():
    slow = make_runtime()
    fast = make_runtime(pcie_bandwidth=32e9)
    slow.configure_mem([0] * 1_000_000, 1, 1_000_000, "QUAL", 0)
    fast.configure_mem([0] * 1_000_000, 1, 1_000_000, "QUAL", 0)
    assert fast.elapsed_seconds < slow.elapsed_seconds


# -- device pools (multi-device sharding, DESIGN.md §3.7) ----------------------------


def test_device_pool_cards_are_independent():
    from repro.runtime import DevicePool

    pool = DevicePool(3)
    assert len(pool) == 3
    assert len({id(card.timeline) for card in pool}) == 3
    pool.devices[0].transfer(1_000_000, "h2d")
    pool.devices[0].launch(0, 10_000)
    pool.devices[0].wait(0)
    assert pool.busy_seconds()[0] > 0
    assert pool.busy_seconds()[1] == pool.busy_seconds()[2] == 0.0
    assert pool.transfer_seconds()[0] > 0


def test_device_pool_rejects_bad_arguments():
    from repro.runtime import DevicePool

    with pytest.raises(ValueError, match="at least one device"):
        DevicePool(0)
