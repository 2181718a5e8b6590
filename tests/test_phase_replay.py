"""Phase replay: the SPM drain and reference-SPM load run the engine once
per shape and hand out copies of the recorded RunStats afterwards.

The flit-by-flit simulations the drivers used to run per partition are
kept here as the reference: a replayed phase must equal them on every
modelled field, whatever the scratchpads or the REF row hold.  Each
process records into its own :class:`PhaseMemo` and nothing crosses the
pool boundary, so a pooled run must answer exactly what an inline run
does, however warm either side's memo is.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hw_harness import MODES, assert_same_modelled, modelled_fields
from repro.accel.bqsr import BqsrSpms, drain_spms
from repro.accel.common import (
    PHASE_MEMO_SIZE,
    PHASES,
    PhaseMemo,
    load_reference_spm,
)
from repro.accel import BqsrWaveDriver
from repro.accel.scheduler import SpmImageCache
from repro.accel.sharding import run_sharded
from repro.eval.workloads import make_workload
from repro.hw.engine import Engine, RunStats
from repro.hw.memory import MemoryConfig, MemorySystem
from repro.hw.modules import MemoryReader, MemoryWriter, SpmReader, SpmUpdater
from repro.hw.spm import Scratchpad

memory_configs = st.builds(
    MemoryConfig,
    channels=st.sampled_from([1, 2, 4]),
    access_bytes=st.sampled_from([32, 64]),
    latency_cycles=st.sampled_from([0, 40, 400]),
)

spm_contents = st.lists(
    st.lists(st.integers(0, 2**40), min_size=1, max_size=120),
    min_size=4, max_size=4,
)

ref_rows = st.integers(1, 300).flatmap(
    lambda n: st.fixed_dictionaries({
        "CHR": st.just(20),
        "REFPOS": st.integers(0, 10**6),
        "SEQ": st.lists(st.integers(0, 4), min_size=n, max_size=n),
        "IS_SNP": st.lists(st.booleans(), min_size=n, max_size=n),
    })
)


def make_spms(contents) -> BqsrSpms:
    spms = BqsrSpms(*(
        Scratchpad(name, len(words))
        for name, words in zip(
            ("total_cycle", "total_context", "error_cycle", "error_context"),
            contents,
        )
    ))
    for spm, words in zip(spms.all(), contents):
        spm.load(words)
    return spms


def simulate_drain(spms: BqsrSpms, config: MemoryConfig):
    """Reference: the drain as a real engine run over the live SPMs."""
    engine = Engine(MemorySystem(config))
    for index, spm in enumerate(spms.all()):
        reader = engine.add_module(
            SpmReader(f"drain{index}", spm, mode="drain", out_field="value")
        )
        writer = engine.add_module(
            MemoryWriter(f"drainw{index}", engine.memory, elem_size=4)
        )
        engine.connect(reader, writer)
    return engine.run()


def simulate_load(ref_row: dict, config: MemoryConfig, with_snp: bool):
    """Reference: the load as a real engine run streaming the row."""
    if with_snp:
        words = [
            (int(b), bool(s))
            for b, s in zip(ref_row["SEQ"], ref_row["IS_SNP"])
        ]
    else:
        words = [int(b) for b in ref_row["SEQ"]]
    engine = Engine(MemorySystem(config))
    spm = Scratchpad("ref_spm", len(words))
    reader = engine.add_module(
        MemoryReader("ref_reader", engine.memory, elem_size=1)
    )
    updater = engine.add_module(SpmUpdater("ref_updater", spm, mode="sequential"))
    engine.connect(reader, updater)
    reader.set_items([words])
    return spm, engine.run()


@settings(max_examples=100, deadline=None)
@given(contents=spm_contents, config=memory_configs)
def test_replayed_drain_equals_fresh_simulation(contents, config):
    reference_spms = make_spms(contents)
    expected = modelled_fields(simulate_drain(reference_spms, config))
    spms = make_spms(contents)
    first = drain_spms(spms, config)
    hits, misses = PHASES.hits, PHASES.misses
    replayed = drain_spms(make_spms(contents), config)
    assert (PHASES.hits, PHASES.misses) == (hits + 1, misses), (
        "second drain must replay"
    )
    assert modelled_fields(first) == expected
    assert modelled_fields(replayed) == expected
    # the count SPMs are still read out exactly, and counted as read
    for spm, reference, words in zip(spms.all(), reference_spms.all(), contents):
        assert spm.dump() == words
        assert (spm.reads, spm.writes) == (reference.reads, reference.writes)


@settings(max_examples=100, deadline=None)
@given(ref_row=ref_rows, config=memory_configs, with_snp=st.booleans())
def test_replayed_load_equals_fresh_simulation(ref_row, config, with_snp):
    reference_spm, reference_stats = simulate_load(ref_row, config, with_snp)
    expected = modelled_fields(reference_stats)
    spm, first = load_reference_spm(ref_row, config, with_snp=with_snp)
    hits, misses = PHASES.hits, PHASES.misses
    again, replayed = load_reference_spm(ref_row, config, with_snp=with_snp)
    assert (PHASES.hits, PHASES.misses) == (hits + 1, misses)
    assert modelled_fields(first) == expected
    assert modelled_fields(replayed) == expected
    for loaded in (spm, again):
        assert loaded.dump() == reference_spm.dump()
        assert (loaded.reads, loaded.writes) == (
            reference_spm.reads, reference_spm.writes
        )


@pytest.mark.parametrize("mode", MODES)
def test_replay_follows_the_engine_mode(monkeypatch, mode):
    """The ambient engine schedule is part of the shape: a dense run must
    not be answered with statistics recorded by a max-plus run."""
    contents = [[1, 2, 3], [4] * 70, [5] * 9, [6]]
    row = {"CHR": 1, "REFPOS": 0, "SEQ": [1] * 90, "IS_SNP": [False] * 90}
    config = MemoryConfig(channels=2)
    for warm in MODES:
        monkeypatch.setattr(Engine, "default_mode", warm)
        drain_spms(make_spms(contents), config)
        load_reference_spm(row, config)
    monkeypatch.setattr(Engine, "default_mode", mode)
    drained = drain_spms(make_spms(contents), config)
    loaded = load_reference_spm(row, config)[1]
    assert drained.mode == loaded.mode == mode
    assert modelled_fields(drained) == (
        modelled_fields(simulate_drain(make_spms(contents), config))
    )
    assert modelled_fields(loaded) == (
        modelled_fields(simulate_load(row, config, False)[1])
    )


#: The RunStats fields that are per-mode host statistics.
HOST_FIELDS = ("mode", "ticks_executed")


@settings(max_examples=40, deadline=None)
@given(contents=spm_contents, ref_row=ref_rows, config=memory_configs)
def test_maxplus_recordings_equal_dense_ones(contents, ref_row, config):
    """The phases the max-plus mode records equal the dense loop's on
    every modelled field."""
    def recorded(mode):
        previous = Engine.default_mode
        Engine.default_mode = mode
        try:
            PHASES.clear()
            return [
                drain_spms(make_spms(contents), config),
                load_reference_spm(ref_row, config, with_snp=True)[1],
            ]
        finally:
            Engine.default_mode = previous

    for dense, solved in zip(recorded("dense"), recorded("maxplus")):
        assert solved.mode == "maxplus"
        want, got = modelled_fields(dense), modelled_fields(solved)
        for name in HOST_FIELDS:
            del want[name], got[name]
        assert got == want


def test_replayed_stats_share_no_dict_instances():
    contents = [[0] * 8, [0] * 5, [0] * 8, [0] * 5]
    row = {"CHR": 1, "REFPOS": 0, "SEQ": [2] * 33, "IS_SNP": [True] * 33}
    drains = [drain_spms(make_spms(contents)) for _ in range(2)]
    loads = [load_reference_spm(row, with_snp=True)[1] for _ in range(2)]
    for a, b in (drains, loads):
        assert a is not b
        for name in ("flits_by_module", "busy_by_module"):
            assert getattr(a, name) == getattr(b, name)
            assert getattr(a, name) is not getattr(b, name)
        a.flits_by_module.clear()  # one caller's edit stays its own
    assert drain_spms(make_spms(contents)).flits_by_module["drain0"] == 8
    assert load_reference_spm(row, with_snp=True)[1].flits_by_module


# -- the memo object -----------------------------------------------------------------


def _stats(cycles: int) -> RunStats:
    return RunStats(cycles=cycles, flits_by_module={"m": cycles})


def test_memo_is_bounded_and_evicts_least_recently_replayed():
    memo = PhaseMemo()
    runs = []

    def phase(size):
        runs.append(size)
        return _stats(size)

    for size in range(PHASE_MEMO_SIZE):
        memo.replay(phase, size)
    memo.replay(phase, 0)  # shape 0 is now the most recently replayed
    memo.replay(phase, PHASE_MEMO_SIZE)  # one too many: shape 1 goes
    assert len(memo) == PHASE_MEMO_SIZE
    assert (memo.hits, memo.misses) == (1, PHASE_MEMO_SIZE + 1)
    memo.replay(phase, 0)
    assert runs.count(0) == 1, "shape 0 was kept"
    memo.replay(phase, 1)
    assert runs.count(1) == 2, "shape 1 was evicted and ran again"
    memo.clear()
    assert (len(memo), memo.hits, memo.misses) == (0, 0, 0)


# -- across the process boundary -----------------------------------------------------

BQSR_FIELDS = ("total_cycle", "total_context", "error_cycle", "error_context")


#: Several BQSR waves, so a pool of two is really built.
POOLED_WORKLOAD = dict(
    n_reads=60, read_length=40, chromosomes=(20, 21),
    genome_scale=4.5e-5, psize=1000, seed=316,
)


@pytest.fixture(scope="module")
def pooled_workload():
    return make_workload(**POOLED_WORKLOAD)


def _bqsr_driver(workload) -> BqsrWaveDriver:
    return BqsrWaveDriver(
        reference=workload.reference, read_length=workload.read_length
    )


@pytest.mark.parametrize("warm_parent", [False, True], ids=["cold", "warm"])
def test_pooled_equals_inline_from_cold_and_warm_parents(
    pooled_workload, warm_parent
):
    driver = _bqsr_driver(pooled_workload)
    parts = pooled_workload.group_partitions
    PHASES.clear()
    cache = SpmImageCache()
    inline_res, inline = run_sharded(
        driver, parts, 2, workers=1, spm_cache=cache
    )
    if not warm_parent:
        PHASES.clear()
    pooled_res, pooled = run_sharded(driver, parts, 2, workers=2)
    assert pooled.per_wave_cycles == inline.per_wave_cycles
    assert pooled.spm_load_cycles == inline.spm_load_cycles
    # A wave's loads are tallied on its card once it is placed, so the
    # pooled run counts what the inline one did; from a seeded cache,
    # both count every load a hit.
    tallies = [
        (run.spm_cache_hits, run.spm_cache_misses, run.spm_cycles_saved)
        for run in (inline, pooled)
    ]
    assert tallies[0] == tallies[1]
    loads = inline.spm_cache_hits + inline.spm_cache_misses
    for workers in (1, 2):
        seeded = SpmImageCache()
        seeded.merge(cache.keys())
        _res, run = run_sharded(
            driver, parts, 2, workers=workers, spm_cache=seeded
        )
        assert (run.spm_cache_hits, run.spm_cache_misses) == (loads, 0)
        assert run.spm_load_cycles == inline.spm_load_cycles
    assert set(pooled_res) == set(inline_res)
    for pid, want in inline_res.items():
        got = pooled_res[pid]
        for name in BQSR_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name))
        if want.run is None:
            assert got.run is None and got.drain_stats is None
            continue
        assert_same_modelled(got.run.stats, want.run.stats)
        assert_same_modelled(got.run.load_stats, want.run.load_stats)
        assert_same_modelled(got.drain_stats, want.drain_stats)


SPAWN_SCRIPT = f"""
import json
import multiprocessing
import os

from hw_harness import modelled_fields
from repro.accel import BqsrWaveDriver, run_sharded
from repro.accel.scheduler import ParallelRunStats
from repro.eval.workloads import make_workload
from repro.hw.engine import Engine


def modelled(result):
    runs = [] if result.run is None else [
        result.run.stats, result.run.load_stats, result.drain_stats
    ]
    return (
        [getattr(result, name).tolist() for name in {BQSR_FIELDS!r}],
        [modelled_fields(stats) for stats in runs],
    )


if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    Engine.default_mode = "dense"
    workload = make_workload(**{POOLED_WORKLOAD!r})
    driver = BqsrWaveDriver(
        reference=workload.reference, read_length=workload.read_length
    )
    inline, _stats = run_sharded(driver, workload.group_partitions, 2)
    pids = []
    book = ParallelRunStats.book

    def spy(card, worker, outcome):
        pids.append(outcome.worker_pid)
        book(card, worker, outcome)

    ParallelRunStats.book = spy
    pooled, _stats = run_sharded(
        driver, workload.group_partitions, 2, workers=2
    )
    print(json.dumps({{
        "modes": sorted({{
            stats["mode"] for result in pooled.values()
            for stats in modelled(result)[1]
        }}),
        "pooled_equals_inline": all(
            modelled(pooled[pid]) == modelled(inline[pid]) for pid in inline
        ),
        "worker_pids": sorted(set(pids)), "parent_pid": os.getpid(),
    }}))
"""


def test_spawned_workers_are_seeded_through_the_initializer(tmp_path):
    """Nothing rides on ``fork``: a spawned worker imports an empty memo
    and the default engine mode, yet answers every wave as the inline
    run does, under the parent's ``dense``, which travels with each
    task."""
    script = tmp_path / "spawn_run.py"
    script.write_text(SPAWN_SCRIPT)
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["modes"] == ["dense"] and out["pooled_equals_inline"]
    assert 1 <= len(out["worker_pids"]) <= 2
    assert out["parent_pid"] not in out["worker_pids"]
