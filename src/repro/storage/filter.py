"""The modelled in-storage exact-match filter (GenStore-style).

GenStore (PAPERS.md) shows that in real sequencing data *most* reads match
the reference exactly, and that pruning them inside the SSD — where internal
NAND bandwidth far exceeds the external PCIe link — removes the dominant
data-movement cost before it is ever paid.  Genesis (PAPER.md, Fig. 9)
measures PCIe transfer as its end-to-end bottleneck, which makes the two a
natural stack: filter in storage, accelerate the survivors.

Correctness model (why filtering cannot change results or kernel cycles)
------------------------------------------------------------------------

A read is *exactly matching* when its CIGAR is a single full-length ``M``
and its bases equal the reference slice at ``[POS, POS + LEN)``.  Such a
read's payload is **redundant with the reference partition already resident
in the device's SPM** (the scheduler ships REF rows for metadata/BQSR
anyway): the device can reconstruct it from an 8-byte descriptor
(row id, offset, length, RG, flags).  The filter therefore changes *what
crosses PCIe*, never *what the kernels compute*:

* survivors ship their full modelled row footprint
  (:data:`~repro.constants.MODEL_ROW_BYTES` per row, as before);
* pruned reads ship only :data:`DESCRIPTOR_BYTES`;
* every wave still simulates every read — per-stage kernel cycles and
  results are bit-identical to the unfiltered run *by construction*, and
  the differential tests enforce it across stages × devices × workers,
  faults included.

Timing model
------------

The pruning scan runs "inside the SSD" on its own clock: it reads each
chunk's *encoded* bytes (the SAGe-style layout of
:mod:`repro.storage.layout`, priced by that layout's byte rule from the
chunk's distinct values — the plan builds no chunk) at
:data:`INTERNAL_BANDWIDTH` plus a fixed per-chunk setup
(:data:`CHUNK_SETUP_SECONDS`).  Scan time is reported in
``storage.*`` ledger events, ``storage:<n>`` trace lanes, and the
``repro analyze --storage`` what-if — it is *not* serialized into the card
timelines, modelling a streaming SSD whose scan of wave *k+1* overlaps the
PCIe transfer of wave *k* (internal bandwidth ≫ PCIe keeps it off the
critical path; the what-if exposes the non-overlapped bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..constants import DESCRIPTOR_BYTES, MODEL_ROW_BYTES, PCIE3_BANDWIDTH
from ..obs.ledger import record_event
from ..tables.partition import PartitionId, PartitionedReference
from ..tables.table import Table
from .layout import CHUNK_HEADER_BYTES, column_nbytes

#: Modelled SSD-internal bandwidth.  GenStore's premise is that
#: aggregate NAND channel bandwidth far exceeds the external link; 8x the
#: PCIe 3 x8 link Genesis models keeps the scan off the critical path.
INTERNAL_BANDWIDTH = 8 * PCIE3_BANDWIDTH

#: Fixed in-SSD cost of opening one chunk for the scan.
CHUNK_SETUP_SECONDS = 5e-6


def exact_match_mask(part: Table, ref_row: Optional[dict]) -> np.ndarray:
    """Boolean mask of the partition's exactly-matching reads.

    A read qualifies when its CIGAR is one full-length ``M`` element and
    its bases equal the reference slice at its alignment span.  Reads the
    REF row cannot vouch for (no reference, span outside the segment's
    overlap tail) are conservatively kept — pruning is an accounting
    optimization, so "keep" is always safe.
    """
    return exact_match_masks([part], [ref_row])[0]


def exact_match_masks(
    parts: Sequence[Table], ref_rows: Sequence[Optional[dict]]
) -> List[np.ndarray]:
    """:func:`exact_match_mask` of each partition against its REF row, in
    one array pass over them all: every candidate read's bases are
    compared with their reference slice in one comparison."""
    masks = [np.zeros(part.num_rows, dtype=bool) for part in parts]
    scanned = [
        index for index, (part, ref_row) in enumerate(zip(parts, ref_rows))
        if ref_row is not None and part.num_rows
    ]
    if not scanned:
        return masks
    refs = [np.asarray(ref_rows[index]["SEQ"]) for index in scanned]
    rows = np.array([parts[index].num_rows for index in scanned])
    row_part = np.repeat(np.arange(len(scanned)), rows)
    ref_lengths = np.array([len(ref) for ref in refs])
    # where each row's REF slice starts in the joined REF sequences
    ref_starts = (np.cumsum(ref_lengths) - ref_lengths)[row_part]
    seqs = [seq for index in scanned for seq in parts[index].column("SEQ")]
    cigars = [
        codes for index in scanned for codes in parts[index].column("CIGAR")
    ]
    lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
    # single element, op M (code & 3 == 0), covering the whole read
    single = np.fromiter(map(len, cigars), np.int64, len(cigars)) == 1
    codes = np.full(len(seqs), 0x3, dtype=np.int64)
    if single.any():
        codes[single] = np.concatenate([cigars[i] for i in np.flatnonzero(single)])
    offsets = np.concatenate([
        parts[index].column("POS").astype(np.int64)
        - int(ref_rows[index]["REFPOS"])
        for index in scanned
    ])
    candidates = np.flatnonzero(
        ((codes & 0x3) == 0) & ((codes >> 2) == lengths) & (offsets >= 0)
        & (offsets + lengths <= ref_lengths[row_part])
    )
    matched = np.zeros(len(seqs), dtype=bool)
    if len(candidates):
        spans = lengths[candidates]
        bases = np.concatenate([seqs[i] for i in candidates])
        ends = np.cumsum(spans)
        # each base's index in the joined REF: its read's slice start
        # plus its place in the read
        at = np.arange(ends[-1]) + np.repeat(
            ref_starts[candidates] + offsets[candidates] - (ends - spans),
            spans,
        )
        owner = np.repeat(np.arange(len(candidates)), spans)
        mismatches = np.bincount(
            owner[bases != np.concatenate(refs)[at]],
            minlength=len(candidates),
        )
        matched[candidates] = mismatches == 0
    for index, mask in zip(scanned, np.split(matched, np.cumsum(rows)[:-1])):
        masks[index] = mask
    return masks


@dataclass(frozen=True)
class ChunkVerdict:
    """The filter's decision for one chunk: how many reads prune, and what
    the survivor path costs."""

    pid: PartitionId
    rows: int
    pruned_rows: int
    raw_nbytes: int
    survivor_nbytes: int
    #: The chunk's raw columnar payload and its footprint in the chunk
    #: layout (:func:`~repro.storage.layout.encode_partition`'s sizes).
    payload_nbytes: int
    encoded_nbytes: int
    scan_seconds: float

    @property
    def survivors(self) -> int:
        return self.rows - self.pruned_rows

    @property
    def saved_nbytes(self) -> int:
        return self.raw_nbytes - self.survivor_nbytes


@dataclass
class StorageFilterPlan:
    """The plan-time output of the in-SSD filter: one verdict per chunk.

    Everything here is a pure function of the partitions and the
    reference — the same determinism contract as
    :func:`~repro.accel.scheduler.pack_waves`, so survivor accounting is
    identical on every topology.  The plan is the object
    :func:`~repro.accel.sharding.run_sharded` and :class:`~repro.serve.
    JobService` consult when charging transfers (the product
    implementer of :class:`~repro.runtime.device.WaveStorage`).  It
    holds verdicts only: the encoded chunks it priced are never built.
    """

    #: The bandwidth the scan was priced at (``storage.run`` reports it).
    internal_bandwidth = INTERNAL_BANDWIDTH

    verdicts: Dict[PartitionId, ChunkVerdict]

    # -- totals ------------------------------------------------------------------

    @property
    def rows(self) -> int:
        return sum(v.rows for v in self.verdicts.values())

    @property
    def pruned_rows(self) -> int:
        return sum(v.pruned_rows for v in self.verdicts.values())

    @property
    def filtered_fraction(self) -> float:
        rows = self.rows
        return self.pruned_rows / rows if rows else 0.0

    @property
    def raw_nbytes(self) -> int:
        return sum(v.raw_nbytes for v in self.verdicts.values())

    @property
    def survivor_nbytes(self) -> int:
        return sum(v.survivor_nbytes for v in self.verdicts.values())

    @property
    def saved_nbytes(self) -> int:
        return self.raw_nbytes - self.survivor_nbytes

    @property
    def scan_seconds(self) -> float:
        return sum(v.scan_seconds for v in self.verdicts.values())

    @property
    def payload_nbytes(self) -> int:
        return sum(v.payload_nbytes for v in self.verdicts.values())

    @property
    def encoded_nbytes(self) -> int:
        return sum(v.encoded_nbytes for v in self.verdicts.values())

    @property
    def compression_ratio(self) -> float:
        encoded = self.encoded_nbytes
        return self.payload_nbytes / encoded if encoded > 0 else 1.0

    # -- per-wave accounting (the DevicePool/serve charging hooks) ---------------

    def wave_nbytes(self, items: Iterable[Tuple[PartitionId, Table]]) -> int:
        """Modelled H2D bytes of one wave on the survivor path.  Unknown
        partitions (not covered by the plan) ship at full footprint."""
        total = 0
        for pid, part in items:
            verdict = self.verdicts.get(pid)
            if verdict is None:
                total += part.num_rows * MODEL_ROW_BYTES
            else:
                total += verdict.survivor_nbytes
        return total

    def wave_raw_nbytes(self, items: Iterable[Tuple[PartitionId, Table]]) -> int:
        return sum(part.num_rows * MODEL_ROW_BYTES for _pid, part in items)

    def wave_pruned_rows(self, items: Iterable[Tuple[PartitionId, Table]]) -> int:
        return sum(
            self.verdicts[pid].pruned_rows
            for pid, _part in items if pid in self.verdicts
        )

    def wave_scan_seconds(self, items: Iterable[Tuple[PartitionId, Table]]) -> float:
        return sum(
            self.verdicts[pid].scan_seconds
            for pid, _part in items if pid in self.verdicts
        )

    def describe(self) -> str:
        return (
            f"storage filter: {self.pruned_rows}/{self.rows} reads pruned "
            f"in-SSD ({self.filtered_fraction:.0%}), H2D "
            f"{self.raw_nbytes} -> {self.survivor_nbytes} bytes "
            f"({self.saved_nbytes} saved), scan {self.scan_seconds * 1e3:.3f} ms "
            f"@ {self.internal_bandwidth / 1e9:.0f} GB/s internal, "
            f"chunk compression {self.compression_ratio:.1f}x"
        )


def _distinct_per_chunk(
    values: np.ndarray, chunk_of: np.ndarray, chunks: int
) -> np.ndarray:
    """How many distinct ``values`` each chunk holds, ``chunk_of`` naming
    each value's chunk — one sort over every chunk's values."""
    if len(values) == 0:
        return np.zeros(chunks, dtype=np.int64)
    order = np.lexsort((values, chunk_of))
    values, chunk_of = values[order], chunk_of[order]
    first = np.ones(len(values), dtype=bool)
    first[1:] = (values[1:] != values[:-1]) | (chunk_of[1:] != chunk_of[:-1])
    return np.bincount(chunk_of[first], minlength=chunks)


def chunk_sizes(
    parts: Sequence[Tuple[PartitionId, Table]],
) -> Tuple[List[int], List[int]]:
    """Each partition's payload bytes and the bytes its chunk takes in the
    chunk layout — what :func:`~repro.storage.layout.encode_partition`
    builds, priced by :func:`~repro.storage.layout.column_nbytes` from
    per-column distinct-value counts without encoding a chunk.  The
    partitions of one workload share one schema; each value stream is
    one pass over every chunk."""
    chunks = len(parts)
    if not chunks:
        return [], []
    payload = np.zeros(chunks, dtype=np.int64)
    encoded = [CHUNK_HEADER_BYTES] * chunks
    rows = np.array([part.num_rows for _pid, part in parts], dtype=np.int64)
    row_chunk = np.repeat(np.arange(chunks), rows)
    for spec in parts[0][1].schema.columns:
        columns = [part.column(spec.name) for _pid, part in parts]
        if spec.is_array:
            lengths = np.fromiter(
                (len(row) for column in columns for row in column),
                np.int64, len(row_chunk),
            )
            counts = np.bincount(
                row_chunk, weights=lengths, minlength=chunks
            ).astype(np.int64)
            flat = (
                np.concatenate([row for column in columns for row in column])
                if lengths.any() else np.zeros(0, dtype=spec.dtype)
            ).astype(spec.dtype, copy=False)
            streams = [  # the values, then the per-row lengths
                (flat, np.repeat(np.arange(chunks), counts), counts,
                 [spec.dtype.itemsize] * chunks),
                (lengths, row_chunk, rows, [lengths.itemsize] * chunks),
            ]
        else:
            counts = rows
            streams = [(
                np.concatenate(columns), row_chunk, rows,
                [np.asarray(column).dtype.itemsize for column in columns],
            )]
        payload += counts * spec.element_size
        for values, value_chunk, count, itemsizes in streams:
            distinct = _distinct_per_chunk(values, value_chunk, chunks)
            for index, sized in enumerate(
                zip(distinct.tolist(), count.tolist(), itemsizes)
            ):
                encoded[index] += column_nbytes(*sized)
    return payload.tolist(), encoded


def plan_storage_filter(
    partitions: Iterable[Tuple[PartitionId, Table]],
    reference: Optional[PartitionedReference] = None,
    record: bool = True,
) -> StorageFilterPlan:
    """Run the modelled in-SSD filter over a partitioned workload.

    Prices each partition's chunk (:func:`chunk_sizes`), scans it
    against its REF partition (:func:`exact_match_masks`), and prices
    the survivor path.  Records one ``storage.plan`` ledger event unless
    ``record=False``.
    """
    parts = list(partitions)
    masks = exact_match_masks(
        [part for _pid, part in parts],
        [
            reference.lookup(pid)
            if reference is not None and pid in reference else None
            for pid, _part in parts
        ],
    )
    verdicts: Dict[PartitionId, ChunkVerdict] = {}
    for (pid, part), mask, payload, encoded in zip(
        parts, masks, *chunk_sizes(parts)
    ):
        pruned = int(mask.sum())
        rows = part.num_rows
        raw = rows * MODEL_ROW_BYTES
        survivor = (
            (rows - pruned) * MODEL_ROW_BYTES
            + pruned * DESCRIPTOR_BYTES
        )
        scan = CHUNK_SETUP_SECONDS + encoded / INTERNAL_BANDWIDTH
        verdicts[pid] = ChunkVerdict(
            pid=pid, rows=rows, pruned_rows=pruned,
            raw_nbytes=raw, survivor_nbytes=survivor,
            payload_nbytes=payload, encoded_nbytes=encoded,
            scan_seconds=scan,
        )
    plan = StorageFilterPlan(verdicts=verdicts)
    if record:
        record_event(
            "storage.plan",
            chunks=len(verdicts), rows=plan.rows,
            pruned_rows=plan.pruned_rows,
            filtered_fraction=plan.filtered_fraction,
            raw_nbytes=plan.raw_nbytes,
            survivor_nbytes=plan.survivor_nbytes,
            saved_nbytes=plan.saved_nbytes,
            encoded_nbytes=plan.encoded_nbytes,
            payload_nbytes=plan.payload_nbytes,
            compression_ratio=plan.compression_ratio,
            scan_seconds=plan.scan_seconds,
            internal_bandwidth=INTERNAL_BANDWIDTH,
        )
    return plan
