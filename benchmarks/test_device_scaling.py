"""Multi-device scale-out: sharded wave queues over a DevicePool.

Not a paper figure — this benchmark measures the *host-side* scale-out
tier the paper's Fig. 8/9 scaling analysis motivates.  A 32-partition
metadata-update workload is sharded over ``devices=4`` queues (one
process-pool worker each) and must finish in at most ~half the
``devices=1`` host wall-clock (gated only where >= 4 cores exist),
while staying bit-identical in simulated cycles and outputs.  The
determinism and card-clock balance assertions run on any machine.
"""

import os

import pytest

from repro.accel import MetadataWaveDriver
from repro.accel.sharding import run_sharded
from repro.eval.workloads import make_workload
from repro.obs.ledger import RunLedger, RunManifest, run_context

N_PARTITIONS = 32
DEVICES = 4
SPEEDUP_GATE = 1.8


def _scaling_workload():
    workload = make_workload(
        n_reads=320,
        read_length=80,
        genome_scale=4.5e-5,
        psize=2000,
        seed=2021,
    )
    parts = [(pid, part) for pid, part in workload.partitions if part.num_rows]
    assert len(parts) >= N_PARTITIONS
    return workload, parts[:N_PARTITIONS]


def _assert_identical(serial_res, serial_stats, sharded_res, sharded_stats):
    assert sharded_stats.total_cycles == serial_stats.total_cycles
    assert sharded_stats.per_wave_cycles == serial_stats.per_wave_cycles
    assert sharded_stats.spm_load_cycles == serial_stats.spm_load_cycles
    assert sharded_stats.total_flits == serial_stats.total_flits
    assert set(sharded_res) == set(serial_res)
    for pid, serial in serial_res.items():
        assert sharded_res[pid].nm == serial.nm, str(pid)
        assert sharded_res[pid].md == serial.md, str(pid)
        assert sharded_res[pid].uq == serial.uq, str(pid)


def test_sharded_determinism_and_balance(report, tmp_path):
    """Acceptance (any machine): devices=4 is bit-identical to serial,
    and its cards are balanced on the modelled clock — each solved wave
    goes to the card that frees first, so the busiest card ends by the
    summed wave durations over four cards plus the longest wave."""
    workload, parts = _scaling_workload()
    driver = MetadataWaveDriver(reference=workload.reference)
    serial_res, serial_stats = run_sharded(driver, parts, 1, workers=1)
    ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
    with run_context(RunManifest(workload="device-scaling"), ledger):
        sharded_res, sharded_stats = run_sharded(
            driver, parts, 1, devices=DEVICES, workers=1
        )
    _assert_identical(serial_res, serial_stats, sharded_res, sharded_stats)

    waves = ledger.events("scheduler.wave")
    durations = [wave["end_cycles"] - wave["start_cycles"] for wave in waves]
    ends = [
        max(w["end_cycles"] for w in waves if w["device"] == device)
        for device in range(DEVICES)
    ]
    bound = sum(durations) / DEVICES + max(durations)
    assert max(ends) <= bound, f"straggler card: ends {ends}, bound {bound}"

    report(f"Multi-device sharding - determinism ({N_PARTITIONS} partitions)", [
        f"devices={DEVICES}: results and {sharded_stats.total_cycles} "
        f"simulated cycles identical to serial",
        f"card ends {ends} cycles (bound {bound:.0f}); rows per card "
        f"{sharded_stats.plan_loads}",
    ])


@pytest.mark.skipif(
    (os.cpu_count() or 1) < DEVICES,
    reason=f"speedup gate needs >= {DEVICES} cores",
)
def test_device_fanout_speedup(benchmark, report):
    workload, parts = _scaling_workload()
    driver = MetadataWaveDriver(reference=workload.reference)

    # Best-of-N on both sides so host scheduler-noise outliers don't
    # decide the comparison; same workers on both sides so the only
    # variable is the device count.
    serial_runs = [
        run_sharded(driver, parts, 1, devices=1, workers=1) for _ in range(2)
    ]
    serial_res, serial_stats = min(
        serial_runs, key=lambda run: run[1].elapsed_seconds
    )

    sharded_runs = []

    def run_devices():
        sharded_runs.append(
            run_sharded(driver, parts, 1, devices=DEVICES, workers=1)
        )

    benchmark.pedantic(run_devices, rounds=3, iterations=1)
    sharded_res, sharded_stats = min(
        sharded_runs, key=lambda run: run[1].elapsed_seconds
    )

    assert sharded_stats.devices == DEVICES
    _assert_identical(serial_res, serial_stats, sharded_res, sharded_stats)

    speedup = serial_stats.elapsed_seconds / sharded_stats.elapsed_seconds
    assert speedup >= SPEEDUP_GATE, (
        f"devices={DEVICES} only {speedup:.2f}x the single-device run "
        f"on the {N_PARTITIONS}-partition metadata workload"
    )

    benchmark.extra_info.update(
        serial_seconds=round(serial_stats.elapsed_seconds, 4),
        sharded_seconds=round(sharded_stats.elapsed_seconds, 4),
        host_speedup=round(speedup, 3),
        host_parallelism=round(sharded_stats.host_parallelism, 3),
        simulated_cycles=sharded_stats.total_cycles,
        waves=sharded_stats.waves,
    )

    report(f"Multi-device sharding - scale-out ({N_PARTITIONS} partitions)", [
        f"devices=1: {serial_stats.elapsed_seconds:.2f}s host wall-clock",
        f"devices={DEVICES}: {sharded_stats.elapsed_seconds:.2f}s "
        f"(speedup {speedup:.2f}x, parallelism "
        f"{sharded_stats.host_parallelism:.2f}x); "
        f"simulated cycles identical ({sharded_stats.total_cycles})",
    ])
