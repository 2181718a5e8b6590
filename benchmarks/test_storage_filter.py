"""In-storage filtering: transfer-time reduction on a dense workload.

Not a paper figure — this benchmark gates the GenStore-style storage
tier of DESIGN.md §3.10.  On a read-dense two-chromosome workload the
in-SSD exact-match filter must (a) prune at least half the reads (the
GenStore premise: most reads match the reference exactly under typical
error rates), (b) cut the modelled PCIe transfer time by >= 1.4x on a
sharded run, and (c) change *nothing else* — results and simulated
kernel cycles stay bit-identical, and the in-SSD scan stays cheap
relative to the transfer time it saves.

Reproduce: ``PYTHONPATH=src python -m pytest \
benchmarks/test_storage_filter.py --benchmark-only`` (see
EXPERIMENTS.md "In-storage filtering sweep").
"""

from repro.accel import MetadataWaveDriver
from repro.accel.sharding import run_sharded
from repro.eval.workloads import make_workload
from repro.storage import plan_storage_filter

DEVICES = 2
FRACTION_GATE = 0.5
SPEEDUP_GATE = 1.4


def _dense_workload():
    """Enough reads per partition that payload dwarfs per-wave setup."""
    return make_workload(
        n_reads=1500,
        read_length=100,
        chromosomes=(20, 21),
        genome_scale=4.5e-5,
        psize=4000,
        seed=11,
    )


def test_storage_filter_transfer_reduction(report):
    workload = _dense_workload()
    plan = plan_storage_filter(
        workload.partitions, workload.reference, record=False
    )
    assert plan.filtered_fraction >= FRACTION_GATE, (
        f"only {plan.filtered_fraction:.1%} of reads pruned — the "
        "GenStore premise needs a mostly-exact-matching workload"
    )
    assert plan.compression_ratio > 1.5

    driver = MetadataWaveDriver(reference=workload.reference)
    baseline_res, baseline = run_sharded(
        driver, workload.partitions, 2, devices=DEVICES
    )
    filtered_res, filtered = run_sharded(
        driver, workload.partitions, 2, devices=DEVICES, storage=plan
    )

    # Bit-identity: the filter may only touch the transfer path.
    assert filtered.per_wave_cycles == baseline.per_wave_cycles
    assert filtered.total_cycles == baseline.total_cycles
    assert filtered.spm_load_cycles == baseline.spm_load_cycles
    assert set(filtered_res) == set(baseline_res)
    for pid, want in baseline_res.items():
        assert filtered_res[pid].nm == want.nm, str(pid)
        assert filtered_res[pid].md == want.md, str(pid)
        assert filtered_res[pid].uq == want.uq, str(pid)

    baseline_transfer = sum(baseline.device_transfer_seconds)
    filtered_transfer = sum(filtered.device_transfer_seconds)
    speedup = baseline_transfer / max(filtered_transfer, 1e-12)
    assert speedup >= SPEEDUP_GATE, (
        f"transfer speedup only {speedup:.2f}x at filtered fraction "
        f"{plan.filtered_fraction:.1%}"
    )
    # The in-SSD scan must not eat what it saves.
    assert plan.scan_seconds < baseline_transfer - filtered_transfer

    report("In-storage filtering - transfer reduction (DESIGN.md §3.10)", [
        f"reads pruned in-SSD: {plan.pruned_rows}/{plan.rows} "
        f"({plan.filtered_fraction:.1%}), chunk compression "
        f"{plan.compression_ratio:.2f}x",
        f"PCIe H2D: {plan.raw_nbytes} B raw -> {plan.survivor_nbytes} B "
        f"survivors",
        f"transfer time devices={DEVICES}: {baseline_transfer * 1e3:.3f} ms "
        f"-> {filtered_transfer * 1e3:.3f} ms ({speedup:.2f}x); in-SSD "
        f"scan {plan.scan_seconds * 1e3:.3f} ms; kernel cycles identical "
        f"({filtered.total_cycles})",
    ])
