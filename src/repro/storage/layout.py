"""Chunked, compression-aware read layout (the SAGe-style on-SSD format).

SAGe (PAPERS.md) observes that large-scale sequence analysis is bottlenecked
on *data preparation* — decompressing and re-shaping reads before a single
useful cycle runs — and co-designs a storage format whose chunks decode
independently and stream straight into the accelerator.  This module is the
modelled equivalent for the Genesis READS table:

* chunks are **partition-aligned**: one :class:`ReadChunk` per
  ``(CHR, POS // PSIZE [, RG])`` partition, so the unit the SSD prunes or
  ships is exactly the unit the runtime schedules
  (:func:`~repro.tables.partition.partition_reads`);
* every column is **dictionary-encoded per chunk**: the distinct values of
  the chunk form a little dictionary and rows store fixed-width bit-packed
  codes.  Bases (4 symbols) pack to 2 bits, Phred qualities ([2, 41]) to 6,
  CIGARs (a handful of distinct ``(len, op)`` codes per chunk) to 2-4 —
  without any chunk-global assumptions, because the dictionary rides in the
  chunk;
* the encoding is **lossless and exact**: :func:`decode_chunk` rebuilds the
  partition's :class:`~repro.tables.table.Table` bit-identically (same
  dtypes, same row order), which the chunk round-trip differential tests
  enforce.

The format's byte rule (:func:`column_nbytes`) feeds the in-SSD scan timing
model in :mod:`repro.storage.filter` — the filter reads *encoded* bytes off
NAND at internal bandwidth, which is what makes scanning cheap relative to
shipping raw rows over PCIe.  The filter prices a chunk by that rule from
its distinct values without encoding it; the encoder here is the format's
definition and the round-trip oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..tables.genomic_tables import READS_SCHEMA, table_bytes
from ..tables.partition import PartitionId
from ..tables.table import Table

#: Fixed per-chunk header bytes the layout charges (magic, pid, row count,
#: column directory) — small and constant by design.
CHUNK_HEADER_BYTES = 32

#: Per-column header bytes (value count, code width, dictionary length).
COLUMN_HEADER_BYTES = 8


def code_width(distinct: int) -> int:
    """Bits per code in a column of ``distinct`` dictionary values (a
    column of one value, or none, stores no codes)."""
    return (distinct - 1).bit_length() if distinct > 1 else 0


def column_nbytes(distinct: int, count: int, itemsize: int) -> int:
    """The format's byte rule for one dictionary-encoded value stream:
    its header, ``distinct`` dictionary entries of ``itemsize`` bytes and
    ``count`` bit-packed codes.  :func:`encode_partition` builds exactly
    this many bytes, and the storage filter prices a chunk by it without
    building them."""
    return (
        COLUMN_HEADER_BYTES + distinct * itemsize
        + (count * code_width(distinct) + 7) // 8
    )


def _pack_codes(codes: np.ndarray, width: int) -> np.ndarray:
    """Bit-pack ``codes`` (each ``< 2**width``) into a uint8 buffer."""
    if width == 0 or len(codes) == 0:
        return np.zeros(0, dtype=np.uint8)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((codes.astype(np.uint64)[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bits.reshape(-1))


def _unpack_codes(packed: np.ndarray, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_codes`: ``count`` codes of ``width`` bits."""
    if width == 0 or count == 0:
        return np.zeros(count, dtype=np.int64)
    bits = np.unpackbits(packed)[: count * width].reshape(count, width)
    weights = (1 << np.arange(width - 1, -1, -1)).astype(np.int64)
    return bits.astype(np.int64) @ weights


@dataclass(frozen=True)
class EncodedColumn:
    """One dictionary-encoded column of a chunk.

    ``dictionary`` holds the chunk's distinct values (original dtype,
    sorted), ``packed`` the bit-packed per-value codes.  Array columns
    additionally carry their per-row ``lengths`` as a nested encoded
    column so the flat value stream re-splits exactly.
    """

    dictionary: np.ndarray
    packed: np.ndarray
    count: int
    width: int
    lengths: Optional["EncodedColumn"] = None

    @property
    def nbytes(self) -> int:
        total = column_nbytes(
            len(self.dictionary), self.count, self.dictionary.itemsize
        )
        if self.lengths is not None:
            total += self.lengths.nbytes
        return total


def _encode_values(values: np.ndarray) -> EncodedColumn:
    dictionary, codes = np.unique(values, return_inverse=True)
    width = code_width(len(dictionary))
    packed = _pack_codes(codes.reshape(-1), width)
    return EncodedColumn(
        dictionary=dictionary, packed=packed, count=len(values), width=width
    )


def _decode_values(column: EncodedColumn) -> np.ndarray:
    if column.count == 0:
        return column.dictionary[:0].copy()
    codes = _unpack_codes(column.packed, column.count, column.width)
    return column.dictionary[codes]


@dataclass(frozen=True)
class ReadChunk:
    """One partition's reads in the on-SSD layout.

    ``payload_nbytes`` is the raw columnar payload
    (:func:`~repro.tables.genomic_tables.table_bytes`) — what the chunk
    would cost to ship undecoded; ``encoded_nbytes`` is its footprint in
    this layout (dictionaries + packed codes + headers).
    """

    pid: PartitionId
    num_rows: int
    columns: Dict[str, EncodedColumn]
    payload_nbytes: int
    encoded_nbytes: int

    @property
    def compression_ratio(self) -> float:
        if self.encoded_nbytes <= 0:
            return 1.0
        return self.payload_nbytes / self.encoded_nbytes


def encode_partition(pid: PartitionId, part: Table) -> ReadChunk:
    """Encode one read partition into its chunk (lossless)."""
    columns: Dict[str, EncodedColumn] = {}
    for spec in part.schema.columns:
        data = part.column(spec.name)
        if spec.is_array:
            lengths = np.array([len(row) for row in data], dtype=np.int64)
            flat = (
                np.concatenate(data) if len(data) and lengths.sum() > 0
                else np.zeros(0, dtype=spec.dtype)
            )
            encoded = _encode_values(flat.astype(spec.dtype, copy=False))
            columns[spec.name] = EncodedColumn(
                dictionary=encoded.dictionary, packed=encoded.packed,
                count=encoded.count, width=encoded.width,
                lengths=_encode_values(lengths),
            )
        else:
            columns[spec.name] = _encode_values(np.asarray(data))
    encoded_nbytes = CHUNK_HEADER_BYTES + sum(
        column.nbytes for column in columns.values()
    )
    return ReadChunk(
        pid=pid, num_rows=part.num_rows, columns=columns,
        payload_nbytes=table_bytes(part), encoded_nbytes=encoded_nbytes,
    )


def decode_chunk(chunk: ReadChunk, schema=READS_SCHEMA) -> Table:
    """Rebuild the partition table from its chunk, bit-identically."""
    columns: Dict[str, object] = {}
    for spec in schema.columns:
        encoded = chunk.columns[spec.name]
        values = _decode_values(encoded)
        if spec.is_array:
            lengths = _decode_values(encoded.lengths)
            splits = np.cumsum(lengths)[:-1]
            rows = np.split(values.astype(spec.dtype, copy=False), splits)
            columns[spec.name] = [
                np.asarray(row, dtype=spec.dtype) for row in rows
            ]
        else:
            columns[spec.name] = values.astype(spec.dtype, copy=False)
    if chunk.num_rows == 0:
        return Table.empty(schema)
    return Table.from_columns(schema, **columns)


@dataclass
class ChunkedReadStore:
    """All chunks of one workload, in canonical partition order."""

    chunks: Dict[PartitionId, ReadChunk]

    @property
    def payload_nbytes(self) -> int:
        return sum(chunk.payload_nbytes for chunk in self.chunks.values())

    @property
    def encoded_nbytes(self) -> int:
        return sum(chunk.encoded_nbytes for chunk in self.chunks.values())

    @property
    def num_rows(self) -> int:
        return sum(chunk.num_rows for chunk in self.chunks.values())

    def compression_ratio(self) -> float:
        encoded = self.encoded_nbytes
        if encoded <= 0:
            return 1.0
        return self.payload_nbytes / encoded

    def __len__(self) -> int:
        return len(self.chunks)

    def __contains__(self, pid: PartitionId) -> bool:
        return pid in self.chunks


def chunk_store_from_partitions(
    partitions: Iterable[Tuple[PartitionId, Table]],
) -> ChunkedReadStore:
    """Encode every partition of a workload into the chunk store."""
    chunks: Dict[PartitionId, ReadChunk] = {}
    for pid, part in partitions:
        chunks[pid] = encode_partition(pid, part)
    return ChunkedReadStore(chunks=chunks)


def decode_store(store: ChunkedReadStore, schema=READS_SCHEMA) -> List[Tuple[PartitionId, Table]]:
    """Decode the whole store back to ``(pid, Table)`` pairs (test hook)."""
    return [
        (pid, decode_chunk(chunk, schema)) for pid, chunk in store.chunks.items()
    ]
