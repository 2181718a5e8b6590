"""The Genesis proof-of-concept accelerators (Section IV).

Drivers that compose hardware-library modules into the paper's pipelines,
simulate them cycle by cycle, and post-process results: the Figure 7
example query, mark duplicates (Figure 10), metadata update (Figure 11),
and BQSR covariate-table construction (Figure 12).  Each is one
:class:`WaveDriver` beside its pipeline builder; :data:`STAGES` is the
table of them.  This namespace is the stage drivers, their serial runners,
the wave executor and sharding; the one Section IV-E operation that is not
partition + REF-row shaped, :mod:`~repro.accel.callset_ops`, is a
standalone example imported as a submodule.
"""

from .bqsr import (
    BqsrAccelResult,
    BqsrSpms,
    BqsrWaveDriver,
    build_bqsr_pipeline,
    drain_spms,
    merge_partition_results,
    run_bqsr_partition,
)
from .common import (
    AcceleratorRun,
    feed_read_streams,
    join_reads_to_reference,
    load_reference_spm,
)
from .example_query import (
    ExampleQueryResult,
    ExampleQueryWaveDriver,
    build_example_pipeline,
    count_matching_bases_sw,
    run_example_query,
)
from .markdup import (
    MarkDupAccelResult,
    MarkdupWaveDriver,
    accelerated_mark_duplicates,
    build_markdup_pipeline,
    run_quality_sums,
)
from .metadata import (
    MetadataAccelResult,
    MetadataWaveDriver,
    build_metadata_pipeline,
    run_metadata_update,
)

__all__ = [
    "AcceleratorRun",
    "BqsrAccelResult",
    "BqsrSpms",
    "BqsrWaveDriver",
    "ExampleQueryResult",
    "ExampleQueryWaveDriver",
    "MarkDupAccelResult",
    "MarkdupWaveDriver",
    "MetadataAccelResult",
    "MetadataWaveDriver",
    "accelerated_mark_duplicates",
    "build_bqsr_pipeline",
    "build_example_pipeline",
    "build_markdup_pipeline",
    "build_metadata_pipeline",
    "count_matching_bases_sw",
    "drain_spms",
    "feed_read_streams",
    "join_reads_to_reference",
    "load_reference_spm",
    "merge_partition_results",
    "run_bqsr_partition",
    "run_example_query",
    "run_metadata_update",
    "run_quality_sums",
]

# Section IV-E extension that is a wave: active-region determination.
from .active_region import (
    ActiveRegionAccelResult,
    ActiveRegionWaveDriver,
    AnchorInsertions,
    accelerated_active_regions,
    build_active_region_pipeline,
    run_active_region_partition,
)

__all__ += [
    "ActiveRegionAccelResult",
    "ActiveRegionWaveDriver",
    "AnchorInsertions",
    "accelerated_active_regions",
    "build_active_region_pipeline",
    "run_active_region_partition",
]

from .scheduler import (
    ParallelRunStats,
    SpmImageCache,
    WaveDriver,
    WorkerStats,
    pack_waves,
)

__all__ += [
    "ParallelRunStats",
    "SpmImageCache",
    "WaveDriver",
    "WorkerStats",
    "pack_waves",
]

from .sharding import (
    ShardedRunStats,
    plan_shards,
    reduce_bqsr_results,
    run_sharded,
)

__all__ += [
    "ShardedRunStats",
    "plan_shards",
    "reduce_bqsr_results",
    "run_sharded",
]

from .stages import PAPER_STAGES, STAGES, stage_named

__all__ += ["PAPER_STAGES", "STAGES", "stage_named"]
