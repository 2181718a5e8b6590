"""SQL-driven preprocessing stage drivers (Section IV via Section III-B).

The GATK4-style baselines in this package (:mod:`.markdup`,
:mod:`.metadata`, :mod:`.bqsr`) walk reads one Python object at a time.
This module re-expresses the data-parallel core of each stage as an
extended-SQL script over the READS/REF tables — the relational
formulation the Genesis accelerator executes — and runs it through
:class:`~repro.sql.executor.Executor`, so the same stage script executes
on the row-at-a-time ``"reference"`` backend or the numpy-vectorized
``"fast"`` backend bit-identically (``tests/test_sql_driver.py`` pins
both against the software oracles).

Division of labour mirrors the paper:

* **mark duplicates** (Figure 10): the host builds pair-aware fragments
  with dictionary-encoded keys; SQL does the coordinate sort, the
  per-key survivor selection (GROUP BY + MAX), and the duplicate join.
* **metadata update** (Figure 11): SQL explodes the reference partition,
  LEFT-joins exploded read bases against it, and reduces NM/UQ per read;
  the MD string is emitted by the ``MDGen`` custom module
  (Section III-F), exactly the paper's host/accelerator split.
* **BQSR covariate tables** (Figure 12): SQL joins M-bases with the
  reference, filters known SNPs, and GROUP-BYs the two covariate bins;
  the host scatter-adds the per-bin counts into the SPM-shaped arrays.

The reference-base join shifts the base domain (``SEQ + 1 AS REFP``) so
the LEFT-join NULL sentinel ``0`` cannot collide with base code 0 — the
backends' documented NULL contract (:mod:`repro.sql.backends`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs.registry import MetricsRegistry
from ..sql.ast_nodes import CreateTable, Script
from ..sql.executor import Executor
from ..sql.plan import ScanNode, walk
from ..sql.prepared import prepare
from ..tables.partition import (
    PartitionedReads,
    PartitionedReference,
    reference_row_table,
)
from ..tables.table import Table
from ..tables.schema import Schema
from ..genomics.read import AlignedRead
from ..genomics.sequences import decode_base
from .bqsr import CovariateTables, n_cycle_values
from .markdup import MarkDuplicatesResult, _mate_map, duplicate_key
from .metadata import ReadMetadata

#: Fragment scores pack (quality, earliest-member tiebreak) into one
#: int64 so ``MAX(SCORE)`` reproduces the oracle's survivor choice:
#: highest summed quality, ties broken toward the earliest fragment.
_SCORE_BASE = 1 << 32

_READ_INDEX_SCHEMA = Schema.of(IDX="int64", CHR="uint8", POS="uint32")

_FRAGMENTS_SCHEMA = Schema.of(FRAGID="int64", KEYID="int64", SCORE="int64")

#: Coordinate sort (Section IV-B) as a query: stable ORDER BY (CHR, POS).
MARKDUP_SORT_QUERY = "SELECT IDX, CHR, POS FROM ReadIndex ORDER BY CHR, POS"

#: Survivor selection + duplicate identification over host-built
#: fragments (Figure 10's reduction, relationally).
MARKDUP_SCRIPT = """
CREATE TABLE Winners AS
SELECT KEYID, MAX(SCORE) AS BEST, COUNT(*) AS N
FROM Fragments GROUP BY KEYID;

CREATE TABLE Duplicates AS
SELECT Fragments.FRAGID AS FRAGID
FROM Fragments INNER JOIN Winners ON Fragments.KEYID = Winners.KEYID
WHERE Fragments.SCORE != Winners.BEST;

CREATE TABLE DupStats AS
SELECT COUNT(N > 1) AS SETS FROM Winners;
"""

#: Metadata update (Figure 11): explode the reference, LEFT-join read
#: bases on position, reduce NM/UQ per read, then hand the joined base
#: stream to the MDGen custom module for the MD string.
METADATA_SCRIPT = """
CREATE TABLE RefBases AS
PosExplode (ReferenceRow.SEQ, ReferenceRow.REFPOS)
FROM ReferenceRow;

CREATE TABLE RefShift AS
SELECT POS, SEQ + 1 AS REFP FROM RefBases;

CREATE TABLE Joined AS
SELECT Bases.READID AS READID, Bases.OP AS OP, Bases.SEQ AS SEQ,
       Bases.QUAL AS QUAL, RefShift.REFP AS REFP
FROM Bases LEFT JOIN RefShift ON Bases.POS = RefShift.POS;

CREATE TABLE Tags AS
SELECT READID,
       SUM((OP != 0) OR (SEQ + 1 != REFP)) AS NM,
       SUM(QUAL * ((OP == 0) AND (SEQ + 1 != REFP))) AS UQ
FROM Joined GROUP BY READID;

EXEC MDGen;
"""

#: BQSR covariate construction (Figure 12): M-bases joined with the
#: reference, known-SNP sites filtered, two GROUP BYs over the bin ids.
#: The leading statements read only ``ReferenceRow`` (the *reference
#: side*, :func:`_split_reference_side`): the driver runs them once per
#: reference partition and the rest once per read-group partition.
BQSR_SCRIPT = """
CREATE TABLE RefSeq AS
PosExplode (ReferenceRow.SEQ, ReferenceRow.REFPOS)
FROM ReferenceRow;

CREATE TABLE RefSnp AS
PosExplode (ReferenceRow.IS_SNP, ReferenceRow.REFPOS)
FROM ReferenceRow;

CREATE TABLE Ref AS
SELECT RefSeq.POS AS POS, RefSeq.SEQ AS REFSEQ, RefSnp.IS_SNP AS ISSNP
FROM RefSeq INNER JOIN RefSnp ON RefSeq.POS = RefSnp.POS;

CREATE TABLE MBases AS
SELECT POS, SEQ, QUAL, CYC, CTX FROM Bases WHERE OP == 0;

CREATE TABLE Obs AS
SELECT MBases.SEQ AS SEQ, MBases.QUAL AS QUAL, MBases.CYC AS CYC,
       MBases.CTX AS CTX, Ref.REFSEQ AS REFSEQ
FROM MBases INNER JOIN Ref ON MBases.POS = Ref.POS
WHERE Ref.ISSNP == 0;

CREATE TABLE CycleObs AS
SELECT QUAL * @NCYC + CYC AS B1, (SEQ != REFSEQ) AS ERR FROM Obs;

CREATE TABLE CycleBins AS
SELECT B1, COUNT(*) AS N, SUM(ERR) AS E FROM CycleObs GROUP BY B1;

CREATE TABLE ContextObs AS
SELECT QUAL * 16 + CTX AS B2, (SEQ != REFSEQ) AS ERR FROM Obs
WHERE CTX >= 0;

CREATE TABLE ContextBins AS
SELECT B2, COUNT(*) AS N, SUM(ERR) AS E FROM ContextObs GROUP BY B2;
"""


# -- mark duplicates ----------------------------------------------------------------


def _build_fragments(
    sorted_reads: List[AlignedRead], sums: List[int]
) -> Tuple[List[dict], List[Tuple[int, ...]]]:
    """Pair-aware fragments over coordinate-sorted reads: one row per
    fragment with a dictionary-encoded key and the packed score."""
    mates = _mate_map(sorted_reads)
    key_ids: Dict[tuple, int] = {}
    rows: List[dict] = []
    members_of: List[Tuple[int, ...]] = []
    visited: set = set()
    for index, read in enumerate(sorted_reads):
        if index in visited:
            continue
        mate = mates.get(index)
        if mate is not None:
            visited.add(mate)
            key = duplicate_key(read, sorted_reads[mate])
            members: Tuple[int, ...] = (index, mate)
            quality = sums[index] + sums[mate]
        else:
            key = duplicate_key(read)
            members = (index,)
            quality = sums[index]
        visited.add(index)
        key_id = key_ids.setdefault(key, len(key_ids))
        rows.append({
            "FRAGID": len(members_of),
            "KEYID": key_id,
            "SCORE": quality * _SCORE_BASE + (_SCORE_BASE - 1 - members[0]),
        })
        members_of.append(members)
    return rows, members_of


def _quality_sums(reads: List[AlignedRead]) -> List[int]:
    """Every read's :meth:`~AlignedRead.quality_sum`, in one pass over
    the concatenated QUAL bytes: uint8 in, int64 accumulator."""
    lengths = np.fromiter(
        (len(read.qual) for read in reads), dtype=np.int64, count=len(reads)
    )
    sums = np.zeros(len(reads), dtype=np.int64)
    filled = lengths > 0  # reduceat needs strictly increasing starts
    if filled.any():
        starts = (np.cumsum(lengths) - lengths)[filled]
        sums[filled] = np.add.reduceat(
            np.concatenate([read.qual for read in reads]), starts,
            dtype=np.int64,
        )
    return sums.tolist()


def sql_mark_duplicates(
    reads: List[AlignedRead],
    backend: str = "reference",
    metrics: Optional[MetricsRegistry] = None,
) -> MarkDuplicatesResult:
    """Mark-duplicates with the sort/group/join expressed in SQL.

    Bit-identical to :func:`repro.gatk.markdup.mark_duplicates` on any
    read set, on either execution backend.
    """
    if not reads:
        return MarkDuplicatesResult([], [], 0)
    executor = Executor(backend=backend, metrics=metrics)
    executor.register_table(
        "ReadIndex",
        Table.from_rows(_READ_INDEX_SCHEMA, [
            {"IDX": i, "CHR": read.chrom, "POS": read.pos}
            for i, read in enumerate(reads)
        ]),
    )
    order = executor.query(MARKDUP_SORT_QUERY)
    sorted_reads = [reads[int(i)] for i in order.column("IDX")]
    for read in sorted_reads:
        read.set_duplicate(False)
    sums = _quality_sums(sorted_reads)

    rows, members_of = _build_fragments(sorted_reads, sums)
    executor.register_table(
        "Fragments", Table.from_rows(_FRAGMENTS_SCHEMA, rows)
    )
    executor.execute(MARKDUP_SCRIPT)

    duplicate_indices: List[int] = []
    for frag_id in executor.tables["Duplicates"].column("FRAGID"):
        for index in members_of[int(frag_id)]:
            sorted_reads[index].set_duplicate(True)
            duplicate_indices.append(index)
    duplicate_indices.sort()
    duplicate_sets = int(executor.tables["DupStats"].column("SETS")[0])
    return MarkDuplicatesResult(sorted_reads, duplicate_indices, duplicate_sets)


# -- metadata update ----------------------------------------------------------------


def _mdgen(executor: Executor, out: Dict[int, str]) -> None:
    """The MDGen custom module (Section III-F): consume the joined base
    stream in read order and emit one MD string per read.

    One array pass instead of a builder per base, bit-identical to
    :class:`~repro.gatk.metadata.MdBuilder` fed the same stream: only M
    bases and deletions count (an insertion neither ends a ``^`` run nor
    breaks a match run), a match count is the number of matching M bases
    since the read's previous mismatch/deletion, and Python runs only
    over those *events*.  Reads land in ``out`` in order of first
    appearance; the rows of one read need not be adjacent.
    """
    joined = executor.tables["Joined"]
    if joined.num_rows == 0:
        return
    read_ids = np.asarray(joined.column("READID"), dtype=np.int64)
    ops = np.asarray(joined.column("OP"), dtype=np.int64)
    seqs = np.asarray(joined.column("SEQ"), dtype=np.int64)
    refps = np.asarray(joined.column("REFP"), dtype=np.int64)

    # Bring each read's rows together, keeping their stream order.
    ids, first_row, read_of = np.unique(
        read_ids, return_index=True, return_inverse=True
    )
    order = np.argsort(read_of, kind="stable")
    read_of, ops, seqs, refps = read_of[order], ops[order], seqs[order], refps[order]

    aligned = ops == 0
    match = aligned & (seqs + 1 == refps)
    deletion = ops == 2
    matches = np.cumsum(match)  # matching bases up to and including a row
    read_end = np.cumsum(np.bincount(read_of))
    matches_before_read = np.concatenate(([0], matches[read_end[:-1] - 1]))

    events = np.flatnonzero((aligned & ~match) | deletion)
    event_read = read_of[events]
    event_matches = matches[events]
    follows = np.zeros(len(events), dtype=bool)  # an event of the same read precedes
    follows[1:] = event_read[1:] == event_read[:-1]
    previous = np.concatenate(([0], event_matches[:-1]))
    runs = event_matches - np.where(
        follows, previous, matches_before_read[event_read]
    )
    is_deletion = deletion[events]
    continues = np.zeros(len(events), dtype=bool)  # shares the open ``^``
    continues[1:] = is_deletion[1:] & is_deletion[:-1]
    continues &= follows & (runs == 0)

    parts: List[List[str]] = [[] for _ in ids]
    for read, run, deleted, continued, code in zip(
        event_read.tolist(), runs.tolist(), is_deletion.tolist(),
        continues.tolist(), (refps[events] - 1).tolist(),
    ):
        if not continued:
            parts[read].append(f"{run}^" if deleted else str(run))
        parts[read].append(decode_base(code))

    # Trailing match count: the read's matches after its last event.
    closes = np.ones(len(events), dtype=bool)  # the read's last event
    closes[:-1] = ~follows[1:]
    counted = matches_before_read.copy()
    counted[event_read[closes]] = event_matches[closes]
    tails = (matches[read_end - 1] - counted).tolist()
    ids = ids.tolist()
    for read in np.argsort(first_row).tolist():  # order of first appearance
        out[ids[read]] = "".join(parts[read]) + str(tails[read])


def sql_update_metadata(
    partitions: PartitionedReads,
    reference: PartitionedReference,
    read_length: int,
    backend: str = "reference",
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[int, ReadMetadata]:
    """NM/MD/UQ per read (keyed by ROWID) via the Figure 11 query plan.

    Bit-identical to :func:`repro.gatk.metadata.compute_read_metadata`
    on every read, on either backend.
    """
    out: Dict[int, ReadMetadata] = {}
    for pid, part in partitions:
        executor = Executor(backend=backend, metrics=metrics)
        executor.register_table(
            "Bases", executor.explode_reads(part, read_length)
        )
        executor.register_table(
            "ReferenceRow", reference_row_table(reference.lookup(pid))
        )
        md_out: Dict[int, str] = {}
        executor.register_custom_module(
            "MDGen", lambda ex, **_bindings: _mdgen(ex, md_out)
        )
        executor.execute(METADATA_SCRIPT)
        for rowid in part.column("ROWID"):
            out[int(rowid)] = ReadMetadata(nm=0, md="0", uq=0)
        tags = executor.tables["Tags"]
        for rid, nm, uq in zip(
            tags.column("READID"), tags.column("NM"), tags.column("UQ")
        ):
            out[int(rid)] = ReadMetadata(
                nm=int(nm), md=md_out.get(int(rid), "0"), uq=int(uq)
            )
    return out


# -- BQSR covariate tables ----------------------------------------------------------


def _split_reference_side(script: Script) -> Tuple[Script, Script]:
    """Split ``script`` after its longest prefix of CREATE TABLEs that
    scan nothing but ``ReferenceRow`` and the tables that prefix itself
    created — the statements whose result depends on the reference
    partition alone."""
    known = {"ReferenceRow"}
    split = 0
    for statement in script.statements:
        if not isinstance(statement, CreateTable) or any(
            isinstance(node, ScanNode) and node.table not in known
            for node in walk(statement.plan)
        ):
            break
        known.add(statement.name)
        split += 1
    return Script(script.statements[:split]), Script(script.statements[split:])


def sql_build_covariate_tables(
    group_partitions: PartitionedReads,
    reference: PartitionedReference,
    read_length: int,
    backend: str = "reference",
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[int, CovariateTables]:
    """Covariate tables per read group via the Figure 12 query plan.

    ``group_partitions`` must be partitioned by read group
    (:func:`repro.tables.partition.partition_reads_by_group`) so each
    partition's bins land in one group's SPM arrays.  Bit-identical to
    :func:`repro.gatk.bqsr.build_covariate_tables`, on either backend.
    """
    reference_side, read_side = _split_reference_side(prepare(BQSR_SCRIPT))
    # The read groups of one reference partition arrive back to back
    # (PartitionedReads iterates by chrom, segment, read group), so the
    # current partition's reference-side tables are all that is held.
    held: Optional[Tuple[int, int]] = None
    reference_tables: Dict[str, Table] = {}
    tables: Dict[int, CovariateTables] = {}
    for pid, part in group_partitions:
        groups = np.unique(np.asarray(part.column("RG")))
        if pid.read_group >= 0:
            read_group = pid.read_group
        elif len(groups) == 1:
            read_group = int(groups[0])
        else:
            raise ValueError(
                f"partition {pid} mixes read groups {groups.tolist()}; "
                "use partition_reads_by_group"
            )
        table = tables.setdefault(read_group, CovariateTables(read_length))

        if held != (pid.chrom, pid.segment):
            held = (pid.chrom, pid.segment)
            ref_executor = Executor(backend=backend, metrics=metrics)
            ref_executor.register_table(
                "ReferenceRow", reference_row_table(reference.lookup(pid))
            )
            ref_executor.execute_script(reference_side)
            reference_tables = ref_executor.tables

        executor = Executor(backend=backend, metrics=metrics)
        for name, ref_table in reference_tables.items():
            executor.register_table(name, ref_table)
        executor.register_table(
            "Bases", executor.explode_reads(part, read_length)
        )
        executor.set_variable("NCYC", n_cycle_values(read_length))
        executor.execute_script(read_side)

        cycle_bins = executor.tables["CycleBins"]
        np.add.at(table.total_cycle,
                  np.asarray(cycle_bins.column("B1")),
                  np.asarray(cycle_bins.column("N")))
        np.add.at(table.error_cycle,
                  np.asarray(cycle_bins.column("B1")),
                  np.asarray(cycle_bins.column("E")))
        context_bins = executor.tables["ContextBins"]
        np.add.at(table.total_context,
                  np.asarray(context_bins.column("B2")),
                  np.asarray(context_bins.column("N")))
        np.add.at(table.error_context,
                  np.asarray(context_bins.column("B2")),
                  np.asarray(context_bins.column("E")))
    return tables
