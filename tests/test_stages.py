"""One object per stage: for every row of the stage table the serial
front is a one-replica wave of the row's driver — equal to
``run_sharded(n_pipelines=1)`` on results *and* cycles — and equal to
the software oracle on results."""

import numpy as np
import pytest

from hw_harness import assert_same_modelled
from repro.accel import (
    STAGES,
    count_matching_bases_sw,
    run_active_region_partition,
    run_bqsr_partition,
    run_example_query,
    run_metadata_update,
    run_quality_sums,
    run_sharded,
)
from repro.gatk import build_covariate_tables, compute_read_metadata
from repro.gatk.active_region import compute_activity
from repro.tables.genomic_tables import table_to_reads

BQSR_FIELDS = ("total_cycle", "total_context", "error_cycle", "error_context")


def _stats(result):
    return result.stats if hasattr(result, "stats") else result.run.stats


def _markdup(wl, pid, part):
    got = run_quality_sums(part.column("QUAL"))
    return got, {
        "quality_sums": [read.quality_sum() for read in table_to_reads(part)],
    }


def _metadata(wl, pid, part):
    got = run_metadata_update(part, wl.reference.lookup(pid))
    oracle = [
        compute_read_metadata(read, wl.genome) for read in table_to_reads(part)
    ]
    return got, {
        "nm": [meta.nm for meta in oracle],
        "md": [meta.md for meta in oracle],
        "uq": [meta.uq for meta in oracle],
    }


def _bqsr(wl, pid, part):
    got = run_bqsr_partition(part, wl.reference.lookup(pid), wl.read_length)
    oracle = build_covariate_tables(
        table_to_reads(part), wl.genome, wl.read_length
    )[pid.read_group]
    return got, {name: getattr(oracle, name) for name in BQSR_FIELDS}


def _example(wl, pid, part):
    ref_row = wl.reference.lookup(pid)
    return run_example_query(part, ref_row), {
        "counts": count_matching_bases_sw(part, ref_row),
    }


def _active_region(wl, pid, part):
    got = run_active_region_partition(part, wl.reference.lookup(pid))
    oracle = compute_activity(
        table_to_reads(part), wl.genome, pid.chrom, got.base,
        len(got.activity),
    )
    return got, {"activity": oracle.activity, "depth": oracle.depth}


#: Stage -> its serial front over one partition, returning the front's
#: result and the software oracle's value of each field that is its answer.
FRONTS = {
    "markdup": _markdup,
    "metadata": _metadata,
    "bqsr": _bqsr,
    "example": _example,
    "active_region": _active_region,
}


def _same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b))


def test_every_stage_has_a_front():
    assert set(FRONTS) == set(STAGES)


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_serial_front_is_a_one_pipeline_wave_and_matches_the_oracle(
    workload, stage
):
    row = STAGES[stage]
    waved, stats = run_sharded(
        row.over(workload), row.items(workload), n_pipelines=1
    )
    simulated = 0
    for pid, part in row.items(workload):
        if part.num_rows == 0:
            continue
        serial, expected = FRONTS[stage](workload, pid, part)
        for name, want in expected.items():
            assert _same(getattr(serial, name), want), (str(pid), name)
            assert _same(getattr(waved[pid], name), want), (str(pid), name)
        # the same engine population, module for module
        assert_same_modelled(_stats(serial), _stats(waved[pid]))
        simulated += 1
    assert stats.waves == simulated > 0


def _regions(results):
    return {
        pid: (result.base, result.activity.tolist(), result.depth.tolist())
        for pid, result in results.items()
    }


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
    assert _regions(sharded) == _regions(serial)
    assert sorted(sharded_stats.per_wave_cycles) == sorted(
        serial_stats.per_wave_cycles
    )
    assert sharded_stats.devices == 2
    for pid, result in serial.items():
        assert_same_modelled(
            result.run and result.run.stats,
            sharded[pid].run and sharded[pid].run.stats,
        )
