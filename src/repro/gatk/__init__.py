"""GATK4-style software baselines for the preprocessing stages.

Faithful implementations of the three GATK4 data-preprocessing stages the
paper accelerates (Section IV): mark duplicates, metadata update
(SetNmMdAndUqTags), and base quality score recalibration.  These are the
functional ground truth the Genesis accelerators are validated against, and
also the host-side remainders of each accelerated stage.  The per-base
stages are numpy array passes; they import nothing from the ``sql``,
``hw`` or ``accel`` code they check.
"""

from .bqsr import (
    MAX_QUALITY,
    N_CONTEXTS,
    CovariateTables,
    RecalibrationModel,
    accumulate_read,
    apply_recalibration,
    build_covariate_tables,
    context_of,
    cycle_of,
    empirical_quality,
    fit_recalibration_model,
    n_cycle_values,
    run_bqsr,
)
from .markdup import (
    MarkDuplicatesResult,
    duplicate_key,
    mark_duplicates,
    select_survivor,
)
from .metadata import (
    MdBuilder,
    ReadMetadata,
    compute_read_metadata,
    compute_read_metadata_fragment,
    recover_reference,
    update_metadata,
)
from .pipeline import PreprocessingResult, run_preprocessing

__all__ = [
    "CovariateTables",
    "MAX_QUALITY",
    "MarkDuplicatesResult",
    "MdBuilder",
    "N_CONTEXTS",
    "PreprocessingResult",
    "ReadMetadata",
    "RecalibrationModel",
    "accumulate_read",
    "apply_recalibration",
    "build_covariate_tables",
    "compute_read_metadata",
    "compute_read_metadata_fragment",
    "context_of",
    "cycle_of",
    "duplicate_key",
    "empirical_quality",
    "fit_recalibration_model",
    "mark_duplicates",
    "n_cycle_values",
    "recover_reference",
    "run_bqsr",
    "run_preprocessing",
    "select_survivor",
    "update_metadata",
]

# Section IV-E extension: active-region determination (HaplotypeCaller).
from .active_region import (
    ActiveRegion,
    ActiveRegionConfig,
    ActivityProfile,
    compute_activity,
    determine_active_regions,
    extract_regions,
)

__all__ += [
    "ActiveRegion",
    "ActiveRegionConfig",
    "ActivityProfile",
    "compute_activity",
    "determine_active_regions",
    "extract_regions",
]
