"""Phase replay: the SPM drain and reference-SPM load run the engine once
per shape and hand out copies of the recorded RunStats afterwards.

The flit-by-flit simulations the drivers used to run per partition are
kept here as the reference: a replayed phase must equal them on every
modelled field, whatever the scratchpads or the REF row hold.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hw_harness import modelled_fields
from repro.accel.bqsr import BqsrSpms, _drain_stats, drain_spms
from repro.accel.common import _reference_load_stats, load_reference_spm
from repro.hw.engine import Engine
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
    hits = _drain_stats.cache_info().hits
    replayed = drain_spms(make_spms(contents), config)
    assert _drain_stats.cache_info().hits == hits + 1, "second drain must replay"
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
    hits = _reference_load_stats.cache_info().hits
    again, replayed = load_reference_spm(ref_row, config, with_snp=with_snp)
    assert _reference_load_stats.cache_info().hits == hits + 1
    assert modelled_fields(first) == expected
    assert modelled_fields(replayed) == expected
    for loaded in (spm, again):
        assert loaded.dump() == reference_spm.dump()
        assert (loaded.reads, loaded.writes) == (
            reference_spm.reads, reference_spm.writes
        )


@pytest.mark.parametrize("mode", ["dense", "event"])
def test_replay_follows_the_engine_mode(monkeypatch, mode):
    """The ambient engine schedule is part of the shape: a dense run must
    not be answered with statistics recorded by an event run."""
    contents = [[1, 2, 3], [4] * 70, [5] * 9, [6]]
    row = {"CHR": 1, "REFPOS": 0, "SEQ": [1] * 90, "IS_SNP": [False] * 90}
    config = MemoryConfig(channels=2)
    for warm in ("event", "dense"):
        monkeypatch.setattr(Engine, "default_mode", warm)
        drain_spms(make_spms(contents), config)
        load_reference_spm(row, config)
    monkeypatch.setattr(Engine, "default_mode", mode)
    assert modelled_fields(drain_spms(make_spms(contents), config)) == (
        modelled_fields(simulate_drain(make_spms(contents), config))
    )
    assert modelled_fields(load_reference_spm(row, config)[1]) == (
        modelled_fields(simulate_load(row, config, False)[1])
    )


def test_replayed_stats_share_no_dict_instances():
    contents = [[0] * 8, [0] * 5, [0] * 8, [0] * 5]
    row = {"CHR": 1, "REFPOS": 0, "SEQ": [2] * 33, "IS_SNP": [True] * 33}
    drains = [drain_spms(make_spms(contents)) for _ in range(2)]
    loads = [load_reference_spm(row, with_snp=True)[1] for _ in range(2)]
    for a, b in (drains, loads):
        assert a is not b
        for name in ("flits_by_module", "busy_by_module", "starve_by_module"):
            assert getattr(a, name) == getattr(b, name)
            assert getattr(a, name) is not getattr(b, name)
        a.flits_by_module.clear()  # one caller's edit stays its own
    assert drain_spms(make_spms(contents)).flits_by_module["drain0"] == 8
    assert load_reference_spm(row, with_snp=True)[1].flits_by_module
