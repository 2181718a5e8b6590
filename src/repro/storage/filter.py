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
:mod:`repro.storage.layout`) at :data:`INTERNAL_BANDWIDTH` plus a fixed
per-chunk setup (:data:`CHUNK_SETUP_SECONDS`).  Scan time is reported in
``storage.*`` ledger events, ``storage:<n>`` trace lanes, and the
``repro analyze --storage`` what-if — it is *not* serialized into the card
timelines, modelling a streaming SSD whose scan of wave *k+1* overlaps the
PCIe transfer of wave *k* (internal bandwidth ≫ PCIe keeps it off the
critical path; the what-if exposes the non-overlapped bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..constants import DESCRIPTOR_BYTES, MODEL_ROW_BYTES, PCIE3_BANDWIDTH
from ..obs.ledger import record_event
from ..tables.partition import PartitionId, PartitionedReference
from ..tables.table import Table
from .layout import ChunkedReadStore, chunk_store_from_partitions

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
    mask = np.zeros(part.num_rows, dtype=bool)
    if ref_row is None or part.num_rows == 0:
        return mask
    ref_seq = np.asarray(ref_row["SEQ"])
    ref_start = int(ref_row["REFPOS"])
    positions = part.column("POS")
    cigars = part.column("CIGAR")
    seqs = part.column("SEQ")
    for row in range(part.num_rows):
        codes = cigars[row]
        # single element, op M (code & 3 == 0), covering the whole read
        if len(codes) != 1 or (int(codes[0]) & 0x3) != 0:
            continue
        length = int(codes[0]) >> 2
        seq = seqs[row]
        if length != len(seq):
            continue
        offset = int(positions[row]) - ref_start
        if offset < 0 or offset + length > len(ref_seq):
            continue
        if np.array_equal(seq, ref_seq[offset:offset + length]):
            mask[row] = True
    return mask


@dataclass(frozen=True)
class ChunkVerdict:
    """The filter's decision for one chunk: how many reads prune, and what
    the survivor path costs."""

    pid: PartitionId
    rows: int
    pruned_rows: int
    raw_nbytes: int
    survivor_nbytes: int
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
    :func:`~repro.accel.sharding.plan_shards`, so survivor accounting is
    identical on every topology.  The plan is the object
    :func:`~repro.accel.sharding.run_sharded` and :class:`~repro.serve.
    JobService` consult when charging transfers (the product
    implementer of :class:`~repro.runtime.device.WaveStorage`).
    """

    #: The bandwidth the scan was priced at (``storage.run`` reports it).
    internal_bandwidth = INTERNAL_BANDWIDTH

    verdicts: Dict[PartitionId, ChunkVerdict]
    store: ChunkedReadStore = field(repr=False)

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
    def compression_ratio(self) -> float:
        return self.store.compression_ratio()

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


def plan_storage_filter(
    partitions: Iterable[Tuple[PartitionId, Table]],
    reference: Optional[PartitionedReference] = None,
    record: bool = True,
) -> StorageFilterPlan:
    """Run the modelled in-SSD filter over a partitioned workload.

    Encodes each partition into its chunk, scans it with
    :func:`exact_match_mask` against its REF partition, and prices the
    survivor path.  Records one ``storage.plan`` ledger event unless
    ``record=False``.
    """
    parts = list(partitions)
    store = chunk_store_from_partitions(parts)
    verdicts: Dict[PartitionId, ChunkVerdict] = {}
    for pid, part in parts:
        chunk = store.chunks[pid]
        ref_row = None
        if reference is not None and pid in reference:
            ref_row = reference.lookup(pid)
        pruned = int(exact_match_mask(part, ref_row).sum())
        rows = part.num_rows
        raw = rows * MODEL_ROW_BYTES
        survivor = (
            (rows - pruned) * MODEL_ROW_BYTES
            + pruned * DESCRIPTOR_BYTES
        )
        scan = CHUNK_SETUP_SECONDS + chunk.encoded_nbytes / INTERNAL_BANDWIDTH
        verdicts[pid] = ChunkVerdict(
            pid=pid, rows=rows, pruned_rows=pruned,
            raw_nbytes=raw, survivor_nbytes=survivor,
            encoded_nbytes=chunk.encoded_nbytes, scan_seconds=scan,
        )
    plan = StorageFilterPlan(verdicts=verdicts, store=store)
    if record:
        record_event(
            "storage.plan",
            chunks=len(verdicts), rows=plan.rows,
            pruned_rows=plan.pruned_rows,
            filtered_fraction=plan.filtered_fraction,
            raw_nbytes=plan.raw_nbytes,
            survivor_nbytes=plan.survivor_nbytes,
            saved_nbytes=plan.saved_nbytes,
            encoded_nbytes=store.encoded_nbytes,
            payload_nbytes=store.payload_nbytes,
            compression_ratio=plan.compression_ratio,
            scan_seconds=plan.scan_seconds,
            internal_bandwidth=INTERNAL_BANDWIDTH,
        )
    return plan

