"""The modelled in-storage filtering tier (GenStore/SAGe-style).

A chunked, compression-aware read layout (:mod:`repro.storage.layout`), an
exact-match pruning engine with its own in-SSD timing model
(:mod:`repro.storage.filter`), and the front end the runtime charges
transfers through (:mod:`repro.storage.frontend`).  See DESIGN.md §3.10.
"""

from .filter import (
    DESCRIPTOR_BYTES,
    INTERNAL_BANDWIDTH,
    ChunkVerdict,
    StorageFilterConfig,
    StorageFilterPlan,
    exact_match_mask,
    plan_storage_filter,
)
from .frontend import StorageFrontEnd
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
    "DESCRIPTOR_BYTES",
    "INTERNAL_BANDWIDTH",
    "ChunkVerdict",
    "ChunkedReadStore",
    "EncodedColumn",
    "ReadChunk",
    "StorageFilterConfig",
    "StorageFilterPlan",
    "StorageFrontEnd",
    "chunk_store_from_partitions",
    "decode_chunk",
    "decode_store",
    "encode_partition",
    "exact_match_mask",
    "plan_storage_filter",
]
