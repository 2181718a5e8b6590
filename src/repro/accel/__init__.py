"""The Genesis proof-of-concept accelerators (Section IV).

Drivers that compose hardware-library modules into the paper's pipelines,
simulate them cycle by cycle, and post-process results: the Figure 7
example query, mark duplicates (Figure 10), metadata update (Figure 11),
and BQSR covariate-table construction (Figure 12).
"""

from .bqsr import (
    BqsrAccelResult,
    BqsrSpms,
    build_bqsr_pipeline,
    configure_bqsr_streams,
    drain_spms,
    merge_partition_results,
    run_bqsr_partition,
)
from .common import AcceleratorRun, ReadStreams, load_reference_spm, read_streams
from .example_query import (
    ExampleQueryResult,
    build_example_pipeline,
    configure_example_streams,
    count_matching_bases_sw,
    run_example_query,
)
from .markdup import (
    MarkDupAccelResult,
    accelerated_mark_duplicates,
    build_markdup_pipeline,
    run_quality_sums,
    run_quality_sums_table,
)
from .metadata import (
    MetadataAccelResult,
    build_metadata_pipeline,
    configure_metadata_streams,
    run_metadata_update,
)

__all__ = [
    "AcceleratorRun",
    "BqsrAccelResult",
    "BqsrSpms",
    "ExampleQueryResult",
    "MarkDupAccelResult",
    "MetadataAccelResult",
    "ReadStreams",
    "accelerated_mark_duplicates",
    "build_bqsr_pipeline",
    "build_example_pipeline",
    "build_markdup_pipeline",
    "build_metadata_pipeline",
    "configure_bqsr_streams",
    "configure_example_streams",
    "configure_metadata_streams",
    "count_matching_bases_sw",
    "drain_spms",
    "load_reference_spm",
    "merge_partition_results",
    "read_streams",
    "run_bqsr_partition",
    "run_example_query",
    "run_metadata_update",
    "run_quality_sums",
    "run_quality_sums_table",
]

# Section IV-E extensions: other genomic data-manipulation operations.
from .active_region import (
    ActiveRegionAccelResult,
    AnchorInsertions,
    accelerated_active_regions,
    build_active_region_pipeline,
    run_active_region_partition,
)
from .callset_ops import (
    CallsetOpResult,
    run_callset_difference,
    run_callset_intersection,
)
from .fm_seeding import (
    FmSeeder,
    FmSeedingResult,
    build_fm_seeding_pipeline,
    full_occ_table,
    load_occ_spm,
    run_fm_seeding,
)

__all__ += [
    "ActiveRegionAccelResult",
    "AnchorInsertions",
    "CallsetOpResult",
    "FmSeeder",
    "FmSeedingResult",
    "accelerated_active_regions",
    "build_active_region_pipeline",
    "build_fm_seeding_pipeline",
    "full_occ_table",
    "load_occ_spm",
    "run_active_region_partition",
    "run_callset_difference",
    "run_callset_intersection",
    "run_fm_seeding",
]

from .scheduler import (
    BqsrWaveDriver,
    MarkdupWaveDriver,
    MetadataWaveDriver,
    ParallelRunStats,
    SpmImageCache,
    WaveDriver,
    WorkerStats,
    pack_waves,
    run_partitioned,
)

__all__ += [
    "BqsrWaveDriver",
    "MarkdupWaveDriver",
    "MetadataWaveDriver",
    "ParallelRunStats",
    "SpmImageCache",
    "WaveDriver",
    "WorkerStats",
    "pack_waves",
    "run_partitioned",
]

from .sharding import (
    SHARD_POLICIES,
    ShardedRunStats,
    ShardPlan,
    ShardWave,
    StealRecord,
    plan_shards,
    reduce_bqsr_results,
    run_sharded,
    stable_shard_hash,
)

__all__ += [
    "SHARD_POLICIES",
    "ShardPlan",
    "ShardWave",
    "ShardedRunStats",
    "StealRecord",
    "plan_shards",
    "reduce_bqsr_results",
    "run_sharded",
    "stable_shard_hash",
]

from .sort import HwSortResult, coordinate_sort_reads, run_hw_sort

__all__ += ["HwSortResult", "coordinate_sort_reads", "run_hw_sort"]
