"""Differential tests for the in-storage filtering tier (repro.storage).

Three headline invariants from DESIGN.md §3.10:

* the chunked layout is **lossless**: ``decode_chunk(encode_partition(...))``
  rebuilds every partition bit-identically (dtypes, row order, array rows);
* the pruning engine agrees with an **independent pure-Python oracle**
  (CIGAR decoded through :mod:`repro.genomics.cigar`, bases compared as
  Python lists — none of the filter's vectorized machinery);
* a filtered run is **bit-identical** to the unfiltered run — results AND
  per-stage kernel cycle accounting — across stages x devices x workers,
  faults included: named points of ``tests/test_lattice.py`` here, drawn
  ones there.  Only the modelled transfer *time* may shrink.
"""

import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hw_harness import assert_stage_identical
from repro.accel import MetadataWaveDriver
from repro.accel.scheduler import WAVE_FAULT_SITE
from repro.accel.sharding import run_sharded
from repro.eval.workloads import make_workload
from repro.genomics.cigar import decode_elements
from repro.obs.analyze import storage_report_from_ledger, storage_what_if
from repro.obs.ledger import RunLedger, RunManifest, run_context
from repro.runtime.device import MODEL_ROW_BYTES, DevicePool
from repro.storage import (
    CHUNK_SETUP_SECONDS,
    DESCRIPTOR_BYTES,
    INTERNAL_BANDWIDTH,
    chunk_store_from_partitions,
    decode_chunk,
    decode_store,
    encode_partition,
    exact_match_mask,
    plan_storage_filter,
)
from repro.storage import filter as filter_module
from repro.tables.genomic_tables import READS_SCHEMA
from repro.tables.partition import PartitionedReference, PartitionId
from repro.tables.table import Table
from test_lattice import Config, check_direct, fault

DEVICE_GRID = [
    (devices, workers) for devices in (1, 2, 4) for workers in (1, 4)
]


@pytest.fixture(scope="module")
def workload():
    """Same shape as the sharding suite: multi-wave, multi-device."""
    return make_workload(
        n_reads=120,
        read_length=60,
        chromosomes=(20, 21),
        genome_scale=4.5e-5,
        psize=1000,
        seed=105,
    )


@pytest.fixture(scope="module")
def plan(workload):
    return plan_storage_filter(
        workload.partitions, workload.reference, record=False
    )


# -- chunk layout round-trip (compressed == raw) ------------------------------------


def _assert_tables_identical(got, want):
    assert got.num_rows == want.num_rows
    for spec in want.schema.columns:
        g, w = got.column(spec.name), want.column(spec.name)
        if spec.is_array:
            assert len(g) == len(w), spec.name
            for row, (a, b) in enumerate(zip(g, w)):
                assert a.dtype == b.dtype, (spec.name, row)
                assert np.array_equal(a, b), (spec.name, row)
        else:
            assert np.asarray(g).dtype == np.asarray(w).dtype, spec.name
            assert np.array_equal(g, w), spec.name


def test_chunk_roundtrip_bit_identical(workload):
    for pid, part in workload.partitions:
        chunk = encode_partition(pid, part)
        assert chunk.num_rows == part.num_rows
        _assert_tables_identical(decode_chunk(chunk), part)


def test_store_roundtrip_and_compression(workload):
    store = chunk_store_from_partitions(workload.partitions)
    assert len(store) == len(list(workload.partitions))
    decoded = dict(decode_store(store))
    for pid, part in workload.partitions:
        assert pid in store
        _assert_tables_identical(decoded[pid], part)
    # Dictionary encoding must actually compress genomic columns
    # (2-bit bases, narrow quality ranges).
    assert store.encoded_nbytes < store.payload_nbytes
    assert store.compression_ratio() > 1.5


def test_empty_partition_roundtrip(workload):
    pid, _part = next(iter(workload.partitions))
    chunk = encode_partition(pid, Table.empty(READS_SCHEMA))
    decoded = decode_chunk(chunk)
    assert decoded.num_rows == 0
    assert chunk.encoded_nbytes > 0  # headers still charged


# -- the plan prices chunks by the encoder's byte rule ------------------------------

#: Value spans a drawn column takes its values from: 1 is a column of one
#: distinct value (codes 0 bits wide), the widest give more than 256.
SPANS = st.sampled_from((1, 2, 5, 300, 1 << 20))


@st.composite
def reads_partitions(draw):
    """READS partitions, most over a REF row of their own: empty ones,
    one-row ones, columns of one distinct value and of more than 256,
    empty SEQ/QUAL arrays, and reads copied from the reference (which
    prune)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts, ref_rows = [], {}
    for segment in range(draw(st.integers(1, 4))):
        ref_start = 1000 * (segment + 1)
        ref_seq = rng.integers(0, 4, 400, dtype=np.uint8)
        if draw(st.booleans()):
            ref_rows[(20, segment)] = {
                "CHR": 20, "REFPOS": ref_start, "SEQ": ref_seq,
                "IS_SNP": np.zeros(400, dtype=bool),
            }
        rows = draw(st.sampled_from((0, 1, 2, 9, 300)))
        longest = draw(st.sampled_from((0, 1, 12, 40)))
        lengths = rng.integers(0, longest + 1, rows)
        copied = (lengths > 0) & (
            rng.random(rows) < draw(st.sampled_from((0.0, 0.5, 1.0)))
        )

        def scalar(dtype):
            return rng.integers(0, draw(SPANS), rows).astype(dtype)

        def arrays(dtype, span):
            return [rng.integers(0, span, n).astype(dtype) for n in lengths]

        pos = (ref_start + rng.integers(-20, 400, rows)).astype(np.uint32)
        seqs = arrays(np.uint8, draw(st.sampled_from((1, 4, 5))))
        # valid CIGAR codes (the oracle decodes them): length >= 1, op MIDS
        span = min(draw(SPANS), (1 << 14) - 1)
        cigars = [
            (rng.integers(1, span + 1, n) << 2
             | rng.integers(0, 4 if span > 1 else 1, n)).astype(np.uint16)
            for n in lengths
        ]
        for row in np.flatnonzero(copied):
            start = int(rng.integers(0, 400 - lengths[row] + 1))
            pos[row] = ref_start + start
            seqs[row] = ref_seq[start:start + lengths[row]].copy()
            cigars[row] = np.array([lengths[row] << 2], dtype=np.uint16)
        part = Table.from_columns(
            READS_SCHEMA, ROWID=scalar(np.int64), CHR=scalar(np.uint8),
            POS=pos, ENDPOS=scalar(np.uint32), CIGAR=cigars, SEQ=seqs,
            QUAL=arrays(np.uint8, draw(st.sampled_from((1, 40, 256)))),
            FLAGS=scalar(np.uint32), RG=scalar(np.uint8),
        ) if rows else Table.empty(READS_SCHEMA)
        parts.append((PartitionId(20, segment), part))
    reference = PartitionedReference(1000, 0, ref_rows)
    return parts, reference


@settings(max_examples=60, deadline=None)
@given(drawn=reads_partitions())
def test_plan_prices_chunks_as_the_encoder_builds_them(drawn):
    """Per chunk, payload and encoded bytes are the encoder's; so are the
    plan's compression ratio and every field of its ``storage.plan``
    event — and its pruning is the pure-Python oracle's."""
    parts, reference = drawn
    with mock.patch.object(filter_module, "record_event") as record:
        plan = plan_storage_filter(parts, reference)
    store = chunk_store_from_partitions(parts)
    for pid, part in parts:
        chunk, verdict = encode_partition(pid, part), plan.verdicts[pid]
        assert verdict.payload_nbytes == chunk.payload_nbytes
        assert verdict.encoded_nbytes == chunk.encoded_nbytes
        assert verdict.scan_seconds == (
            CHUNK_SETUP_SECONDS + chunk.encoded_nbytes / INTERNAL_BANDWIDTH
        )
        ref_row = reference.lookup(pid) if pid in reference else None
        mask = exact_match_mask(part, ref_row)
        assert mask.tolist() == _oracle_mask(part, ref_row)
        assert verdict.pruned_rows == int(mask.sum())
    assert plan.compression_ratio == store.compression_ratio()
    (_event,), fields = record.call_args
    rows = sum(part.num_rows for _pid, part in parts)
    pruned = plan.pruned_rows
    assert fields == dict(
        chunks=len(parts), rows=rows, pruned_rows=pruned,
        filtered_fraction=pruned / rows if rows else 0.0,
        raw_nbytes=rows * MODEL_ROW_BYTES,
        survivor_nbytes=(rows - pruned) * MODEL_ROW_BYTES
        + pruned * DESCRIPTOR_BYTES,
        saved_nbytes=pruned * (MODEL_ROW_BYTES - DESCRIPTOR_BYTES),
        encoded_nbytes=store.encoded_nbytes,
        payload_nbytes=store.payload_nbytes,
        compression_ratio=store.compression_ratio(),
        scan_seconds=sum(
            CHUNK_SETUP_SECONDS + chunk.encoded_nbytes / INTERNAL_BANDWIDTH
            for chunk in store.chunks.values()
        ),
        internal_bandwidth=INTERNAL_BANDWIDTH,
    )


# -- pruning engine vs a pure-Python oracle -----------------------------------------


def _oracle_mask(part, ref_row):
    """Independent reimplementation of the exact-match predicate: CIGAR
    decoded through the genomics layer, bases compared as Python lists."""
    kept = [False] * part.num_rows
    if ref_row is None:
        return kept
    ref = list(ref_row["SEQ"])
    start = int(ref_row["REFPOS"])
    for row in range(part.num_rows):
        cigar = decode_elements(part.column("CIGAR")[row])
        seq = list(part.column("SEQ")[row])
        if len(cigar.elements) != 1:
            continue
        element = cigar.elements[0]
        if element.op != "M" or element.length != len(seq):
            continue
        offset = int(part.column("POS")[row]) - start
        if offset < 0 or offset + len(seq) > len(ref):
            continue
        kept[row] = ref[offset:offset + len(seq)] == seq
    return kept


def test_exact_match_mask_agrees_with_oracle(workload):
    total = pruned = 0
    for pid, part in workload.partitions:
        ref_row = (
            workload.reference.lookup(pid)
            if pid in workload.reference else None
        )
        mask = exact_match_mask(part, ref_row)
        assert mask.tolist() == _oracle_mask(part, ref_row), str(pid)
        total += part.num_rows
        pruned += int(mask.sum())
    # The simulator's defaults leave most reads exactly matching —
    # the GenStore premise the whole tier is built on.
    assert pruned > total / 2


def test_exact_match_mask_without_reference(workload):
    _pid, part = next(iter(workload.partitions))
    assert not exact_match_mask(part, None).any()


def test_plan_survivor_accounting(workload, plan):
    rows = sum(part.num_rows for _pid, part in workload.partitions)
    assert plan.rows == rows
    assert 0.0 < plan.filtered_fraction < 1.0
    assert plan.raw_nbytes == rows * MODEL_ROW_BYTES
    expected = (
        (plan.rows - plan.pruned_rows) * MODEL_ROW_BYTES
        + plan.pruned_rows * DESCRIPTOR_BYTES
    )
    assert plan.survivor_nbytes == expected
    assert plan.saved_nbytes == plan.raw_nbytes - plan.survivor_nbytes
    assert plan.scan_seconds > 0
    assert plan.compression_ratio > 1.0
    assert "pruned in-SSD" in plan.describe()


def test_plan_is_deterministic(workload, plan):
    again = plan_storage_filter(
        workload.partitions, workload.reference, record=False
    )
    assert again.verdicts == plan.verdicts


def test_wave_nbytes_unknown_pid_ships_full(workload, plan):
    items = list(workload.partitions)[:2]
    known = plan.wave_nbytes(items)
    assert known < plan.wave_raw_nbytes(items)
    # An unplanned partition (not in any verdict) ships at full footprint.
    pid, part = items[0]
    foreign = (("unplanned", 0, 0), part)
    assert plan.wave_nbytes([foreign]) == part.num_rows * MODEL_ROW_BYTES
    assert DevicePool(1).wave_nbytes(items) == plan.wave_raw_nbytes(items)
    assert DevicePool(1, storage=plan).wave_nbytes(items) == known


# -- named lattice points: filtered == unfiltered, stages x devices x workers --------


@pytest.mark.parametrize("devices,workers", DEVICE_GRID)
def test_metadata_filtered_bit_identical(devices, workers):
    stats = check_direct(Config(
        "metadata", devices=devices, workers=workers, storage=True,
    ))
    assert stats.waves > 1, "need a multi-wave schedule to compare"


@pytest.mark.parametrize("devices,workers", DEVICE_GRID)
def test_markdup_filtered_bit_identical(devices, workers):
    check_direct(Config(
        "markdup", pipelines=1, devices=devices, workers=workers, storage=True,
    ))


@pytest.mark.parametrize("devices,workers", DEVICE_GRID)
def test_bqsr_filtered_bit_identical(devices, workers):
    # BQSR shards by read group; the plan covers the matching partitions.
    check_direct(Config(
        "bqsr", pipelines=4, devices=devices, workers=workers, storage=True,
    ))


def test_filtered_bit_identical_under_faults():
    """Fault retries must re-charge the same survivor footprint — the
    retry ladder converges to the serial answer with the filter on."""
    stats = check_direct(Config(
        "metadata", devices=2, workers=2, storage=True,
        faults=(fault("worker_crash", WAVE_FAULT_SITE, 0, 1),),
    ))
    assert stats.faults_injected == 2


# -- filtered vs unfiltered: less on the link ---------------------------------------


@pytest.mark.parametrize("devices", (1, 2, 4))
def test_filtered_transfer_time_shrinks(workload, plan, devices):
    """The whole point: survivor-path H2D time strictly below raw."""
    driver = MetadataWaveDriver(reference=workload.reference)
    _res, unfiltered = run_sharded(
        driver, workload.partitions, 2, devices=devices
    )
    _res, filtered = run_sharded(
        driver, workload.partitions, 2, devices=devices, storage=plan
    )
    assert sum(filtered.device_transfer_seconds) < sum(
        unfiltered.device_transfer_seconds
    ) or devices == 1  # unsharded baseline models no transfers at all
    if devices == 1:
        assert sum(filtered.device_transfer_seconds) > 0


# -- ledger events and the analyze report -------------------------------------------


def _manifest():
    return RunManifest(workload="test-storage", config={"t": 1})


def test_storage_events_recorded(tmp_path, workload, plan):
    ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
    driver = MetadataWaveDriver(reference=workload.reference)
    with run_context(_manifest(), ledger):
        recorded = plan_storage_filter(workload.partitions, workload.reference)
        run_sharded(
            driver, workload.partitions, 2, devices=2, storage=recorded
        )
    plans = ledger.events("storage.plan")
    assert len(plans) == 1
    assert plans[0]["pruned_rows"] == plan.pruned_rows
    waves = ledger.events("storage.wave")
    assert waves
    assert sum(w["nbytes"] for w in waves) == plan.survivor_nbytes
    assert sum(w["raw_nbytes"] for w in waves) == plan.raw_nbytes
    runs = ledger.events("storage.run")
    assert len(runs) == 1
    assert runs[0]["saved_nbytes"] == plan.saved_nbytes
    assert runs[0]["devices"] == 2


def test_run_partitioned_annotates_waves(tmp_path, workload, plan):
    ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
    driver = MetadataWaveDriver(reference=workload.reference)
    with run_context(_manifest(), ledger):
        run_sharded(driver, workload.partitions, 2, devices=1, storage=plan)
    waves = ledger.events("storage.wave")
    assert waves
    assert sum(w["pruned_rows"] for w in waves) == plan.pruned_rows


def test_storage_report_renders(tmp_path, workload, plan):
    ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
    driver = MetadataWaveDriver(reference=workload.reference)
    with run_context(_manifest(), ledger):
        run_sharded(
            driver, workload.partitions, 2, devices=2, storage=plan
        )
    report = storage_report_from_ledger(ledger)
    assert report.stage == "metadata"
    assert report.devices == 2
    assert report.pruned_rows == plan.pruned_rows
    assert report.what_ifs
    text = report.render()
    assert "storage analysis: metadata" in text
    assert "what-if" in text


def test_storage_report_requires_events(tmp_path):
    ledger = RunLedger(str(tmp_path / "empty.jsonl"))
    with pytest.raises(ValueError, match="no storage.run events"):
        storage_report_from_ledger(ledger)


def test_storage_report_refuses_unversioned_records(tmp_path):
    """Satellite: analyze must refuse (not traceback) on pre-schema
    ledgers — records missing ``schema_version`` entirely."""
    path = tmp_path / "old.jsonl"
    record = {
        "run_id": "r1", "event": "storage.run", "stage": "metadata",
        "devices": 2, "filtered_fraction": 0.5,
    }
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match="schema_version"):
        storage_report_from_ledger(RunLedger(str(path)))


def test_storage_what_if_shape():
    what_ifs = storage_what_if(kernel_seconds=1.0, transfer_seconds=1.0)
    # fractions x generations, all finite speedups >= ~1 for pcie3.
    assert len(what_ifs) == 10
    by_module = {w.module: w for w in what_ifs}
    base = by_module["storage f=0.00 pcie3"]
    assert base.speedup_bound == pytest.approx(1.0)
    deep = by_module["storage f=0.95 pcie4"]
    assert deep.speedup_bound > by_module["storage f=0.95 pcie3"].speedup_bound
    assert deep.speedup_bound < 2.0  # Amdahl: kernel half is untouched


# -- serve integration --------------------------------------------------------------


def test_serve_filtered_bit_identical(workload):
    from repro.serve import JobService, JobSpec
    from repro.accel.stages import STAGES
    from repro.serve.trace import SERVE_STAGES

    serve_plan = plan_storage_filter(
        list(workload.partitions) + list(workload.group_partitions),
        workload.reference, record=False,
    )

    def run(storage):
        service = JobService(devices=2, workers=1, storage=storage)
        for index in range(4):
            stage = SERVE_STAGES[index % len(SERVE_STAGES)]
            service.schedule(
                JobSpec(
                    tenant=f"t{index % 2}",
                    driver=STAGES[stage].over(workload),
                    partitions=STAGES[stage].items(workload),
                    n_pipelines=2,
                ),
                at_cycles=index * 1000,
            )
        summary = service.run_until_idle()
        results = {
            status.job_id: service.results(status.job_id)
            for status in service.jobs()
        }
        stages = {status.job_id: status.stage for status in service.jobs()}
        return results, stages, summary

    filtered, stages, f_summary = run(serve_plan)
    unfiltered, _stages, u_summary = run(None)
    assert set(filtered) == set(unfiltered)
    for job_id, want in unfiltered.items():
        assert_stage_identical(stages[job_id], filtered[job_id], want)
    # Filtered transfers finish sooner on the virtual clock.
    assert sum(f_summary.device_transfer_seconds) < sum(
        u_summary.device_transfer_seconds
    )
    assert f_summary.clock_cycles <= u_summary.clock_cycles


def test_serve_drain_resume_keeps_storage(workload):
    from repro.serve import JobService, JobSpec
    from repro.accel.stages import STAGES

    serve_plan = plan_storage_filter(
        workload.partitions, workload.reference, record=False
    )

    def build():
        service = JobService(devices=2, workers=1, storage=serve_plan)
        for index in range(3):
            service.schedule(
                JobSpec(
                    tenant=f"t{index}",
                    driver=STAGES["metadata"].over(workload),
                    partitions=STAGES["metadata"].items(workload),
                    n_pipelines=2,
                ),
                at_cycles=index * 1000,
            )
        return service

    undisturbed = build()
    u_summary = undisturbed.run_until_idle()
    want = {
        status.job_id: undisturbed.results(status.job_id)
        for status in undisturbed.jobs()
    }

    service = build()
    service.run(max_dispatches=2)
    checkpoint = service.drain()
    assert checkpoint.storage is serve_plan
    resumed = JobService.resume(checkpoint)
    assert resumed.storage is serve_plan
    summary = resumed.run_until_idle()
    assert summary.jobs_completed == 3
    got = {
        status.job_id: resumed.results(status.job_id)
        for status in resumed.jobs()
    }
    assert set(got) == set(want)
    for job_id in want:
        assert_stage_identical("metadata", got[job_id], want[job_id])
    # Resumed run keeps charging survivor bytes, not raw: the cards
    # carry over the drain, so their DMA log is the undisturbed run's
    # (same survivor footprints) plus the waves in flight at the drain,
    # which re-ran and so crossed the link twice.
    def dma_sizes(svc):
        return Counter(t.nbytes for card in svc.pool for t in card.transfers)

    redone = dma_sizes(resumed) - dma_sizes(undisturbed)
    assert not dma_sizes(undisturbed) - dma_sizes(resumed)
    assert sum(redone.values()) == (
        summary.waves_dispatched - u_summary.waves_dispatched
    ) > 0
    assert sum(summary.device_transfer_seconds) >= sum(
        u_summary.device_transfer_seconds
    )
