"""The modelled in-storage filtering tier (GenStore/SAGe-style).

A chunked, compression-aware read layout (:mod:`repro.storage.layout`), an
exact-match pruning engine with its own in-SSD timing model
(:mod:`repro.storage.filter`) whose plan the device pool charges wave
transfers through.  See DESIGN.md §3.10.
"""

from .filter import (
    CHUNK_SETUP_SECONDS,
    DESCRIPTOR_BYTES,
    INTERNAL_BANDWIDTH,
    ChunkVerdict,
    StorageFilterPlan,
    exact_match_mask,
    plan_storage_filter,
)
from .layout import (
    ChunkedReadStore,
    EncodedColumn,
    ReadChunk,
    chunk_store_from_partitions,
    decode_chunk,
    decode_store,
    encode_partition,
)

__all__ = [
    "CHUNK_SETUP_SECONDS",
    "DESCRIPTOR_BYTES",
    "INTERNAL_BANDWIDTH",
    "ChunkVerdict",
    "ChunkedReadStore",
    "EncodedColumn",
    "ReadChunk",
    "StorageFilterPlan",
    "chunk_store_from_partitions",
    "decode_chunk",
    "decode_store",
    "encode_partition",
    "exact_match_mask",
    "plan_storage_filter",
]
