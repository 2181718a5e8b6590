"""Relational substrate: columnar tables, schemas, genomic tables, partitioning.

Implements the paper's "genomic data as a very large relational database"
conceptualization (Section III-B): a columnar Table with row-selection verbs,
the READS/REF schemas of Table I, and the (CHR, POS // PSIZE) partitioning
scheme with partition IDs.
"""

from .genomic_tables import (
    READS_SCHEMA,
    REF_SCHEMA,
    count_bases,
    reads_to_table,
    reference_to_table,
    table_bytes,
    table_to_reads,
    validate_reads_table,
)
from .partition import (
    PartitionId,
    PartitionedReads,
    PartitionedReference,
    partition_reads,
    partition_reads_by_group,
    partition_reference,
    reference_row_table,
)
from .schema import ColumnSpec, Schema
from .table import Table

__all__ = [
    "ColumnSpec",
    "PartitionId",
    "PartitionedReads",
    "PartitionedReference",
    "READS_SCHEMA",
    "REF_SCHEMA",
    "Schema",
    "Table",
    "count_bases",
    "partition_reads",
    "partition_reads_by_group",
    "partition_reference",
    "reads_to_table",
    "reference_row_table",
    "reference_to_table",
    "table_bytes",
    "table_to_reads",
    "validate_reads_table",
]
