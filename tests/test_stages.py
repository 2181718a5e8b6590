"""One object per stage: for every row of the stage table the serial
front is a one-replica wave of the row's driver — equal to
``run_sharded(n_pipelines=1)`` on results *and* cycles — and equal to
the software oracle on results."""

import pytest

from hw_harness import (
    ORACLES,
    assert_matches_oracle,
    assert_same_modelled,
    assert_stage_identical,
)
from repro.accel import (
    STAGES,
    run_active_region_partition,
    run_bqsr_partition,
    run_example_query,
    run_metadata_update,
    run_quality_sums,
    run_sharded,
)


def _stats(result):
    return result.stats if hasattr(result, "stats") else result.run.stats


#: Stage -> its serial front over one partition.
FRONTS = {
    "markdup": lambda wl, pid, part: run_quality_sums(part.column("QUAL")),
    "metadata": lambda wl, pid, part: run_metadata_update(
        part, wl.reference.lookup(pid)
    ),
    "bqsr": lambda wl, pid, part: run_bqsr_partition(
        part, wl.reference.lookup(pid), wl.read_length
    ),
    "example": lambda wl, pid, part: run_example_query(
        part, wl.reference.lookup(pid)
    ),
    "active_region": lambda wl, pid, part: run_active_region_partition(
        part, wl.reference.lookup(pid)
    ),
}


def test_every_stage_has_a_front():
    assert set(FRONTS) == set(ORACLES) == set(STAGES)


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_serial_front_is_a_one_pipeline_wave_and_matches_the_oracle(
    workload, stage
):
    row = STAGES[stage]
    waved, stats = run_sharded(
        row.over(workload), row.items(workload), n_pipelines=1
    )
    serial = {
        pid: FRONTS[stage](workload, pid, part)
        for pid, part in row.items(workload) if part.num_rows
    }
    assert assert_matches_oracle(stage, workload, serial) == stats.waves > 0
    assert assert_matches_oracle(stage, workload, waved) == stats.waves
    for pid, result in serial.items():
        # the same engine population, module for module
        assert_same_modelled(_stats(result), _stats(waved[pid]))


def test_active_region_driver_shards_like_any_other(workload):
    """The extension inherits sharding by being a ``WaveDriver``: two
    devices, bit-identical buffers and cycles."""
    row = STAGES["active_region"]
    serial, serial_stats = run_sharded(
        row.over(workload), row.items(workload), 2
    )
    sharded, sharded_stats = run_sharded(
        row.over(workload), row.items(workload), 2, devices=2
    )
    assert_stage_identical("active_region", sharded, serial)
    assert sorted(sharded_stats.per_wave_cycles) == sorted(
        serial_stats.per_wave_cycles
    )
    assert sharded_stats.devices == 2
    for pid, result in serial.items():
        assert_same_modelled(
            result.run and result.run.stats,
            sharded[pid].run and sharded[pid].run.stats,
        )
