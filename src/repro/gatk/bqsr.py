"""Base quality score recalibration (GATK4 BQSR), software baseline.

Section IV-D.  BQSR has two sub-stages:

1. **Covariate table construction** — every aligned (M) base is binned by
   two policies and, per bin, the number of observations and the number of
   empirical errors (mismatch vs. reference at a non-known-SNP site) are
   counted:

   * policy 1 (*cycle*): ``b1 = q * n_cycle_values + cycle`` where cycle is
     the base's machine cycle.  Forward reads use the read offset directly;
     reverse reads get their own cycle range (the paper: 302 cycle values
     for 151 bp reads — 151 forward + 151 reverse).
   * policy 2 (*context*): ``b2 = q * 16 + context`` where context encodes
     the dinucleotide (previous base, current base); ``AA=0, AC=1, ...,
     TT=15`` per the paper.  The previous base is the base before it *in
     the read*, whatever its CIGAR operation: an aligned base that follows
     an inserted or soft-clipped base takes that base as its predecessor,
     and one that follows a deletion takes the read base before the gap.
     Only a base with no predecessor in the read (offset 0) or a
     dinucleotide holding an ``N`` is left out of this table.
     ``BinIdGen`` and the SQL explode kernel take the same predecessor.

   Bases at known SNP sites are excluded from *both* counters — in the
   Figure 12 pipeline the ``!IS_SNP`` filter precedes all four SPM
   updaters.

2. **Quality score update** — per-bin empirical quality scores are computed
   with the phred-scaled smoothed error rate, and every base's reported
   quality is shifted by the hierarchy of deltas (read group, reported
   quality, cycle, context), GATK-style.  This sub-stage runs on the host
   in the paper; the accelerator only builds the tables.

Both sub-stages work in array passes: the tables are counted from a
block of reads at a time (each read's CIGAR expanded once into aligned
runs), and the update looks every read up in one table per read group.
:func:`cycle_of` and :func:`context_of` state the covariates for one
base; the per-base walks they came from are the test suite's reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import InputError
from ..genomics.cigar import CONSUMES_READ, CONSUMES_REF
from ..genomics.read import AlignedRead
from ..genomics.reference import ReferenceGenome

#: Number of distinct dinucleotide contexts (4 x 4), fixed by the paper.
N_CONTEXTS = 16

#: Highest reported quality score modelled (Illumina emits <= 41; GATK
#: tables allocate some headroom).
MAX_QUALITY = 64

#: Reads counted per array pass of :func:`build_covariate_tables`.  A pass
#: holds a dozen per-base arrays at once: over a whole 1000-read group of
#: 80 bp reads that raised peak memory by 11.5 MB and ran 2.3x slower
#: than blocks of 64 reads, which add 1.8 MB and still spread each numpy
#: call over thousands of bases.
BLOCK_READS = 64


def n_cycle_values(read_length: int) -> int:
    """Number of cycle covariate values: forward plus reverse cycles
    (302 for the paper's 151 bp reads)."""
    return 2 * read_length


def cycle_of(read: AlignedRead, read_index: int, read_length: int) -> int:
    """Machine cycle of base ``read_index``.

    Forward reads: the offset itself.  Reverse reads: the machine read the
    bases in the opposite order, and the paper assigns reverse reads their
    own cycle-value range — so the cycle is ``read_length + reversed
    offset``.
    """
    if not read.is_reverse:
        return read_index
    return read_length + (len(read.seq) - 1 - read_index)


def context_of(read: AlignedRead, read_index: int) -> int:
    """Dinucleotide context id ``prev * 4 + current`` or -1 when the base
    has no in-read predecessor (first base)."""
    if read_index <= 0:
        return -1
    prev = int(read.seq[read_index - 1])
    current = int(read.seq[read_index])
    if prev > 3 or current > 3:
        return -1
    return prev * 4 + current


@dataclass
class CovariateTables:
    """The BQSR covariate tables for one read group.

    Four arrays, exactly the four SPM buffers of Figure 12: total and
    error counts for the cycle policy (indexed by ``b1``) and for the
    context policy (indexed by ``b2``).
    """

    read_length: int
    total_cycle: np.ndarray = field(default=None)
    error_cycle: np.ndarray = field(default=None)
    total_context: np.ndarray = field(default=None)
    error_context: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        n_b1 = MAX_QUALITY * n_cycle_values(self.read_length)
        n_b2 = MAX_QUALITY * N_CONTEXTS
        if self.total_cycle is None:
            self.total_cycle = np.zeros(n_b1, dtype=np.int64)
        if self.error_cycle is None:
            self.error_cycle = np.zeros(n_b1, dtype=np.int64)
        if self.total_context is None:
            self.total_context = np.zeros(n_b2, dtype=np.int64)
        if self.error_context is None:
            self.error_context = np.zeros(n_b2, dtype=np.int64)

    def bin_cycle(self, quality: int, cycle: int) -> int:
        """``b1 = q * n_cycle_values + cycle`` (paper Section IV-D)."""
        return quality * n_cycle_values(self.read_length) + cycle

    def bin_context(self, quality: int, context: int) -> int:
        """``b2 = q * 16 + context`` (paper Section IV-D)."""
        return quality * N_CONTEXTS + context

    def merge(self, other: "CovariateTables") -> None:
        """Accumulate another table (e.g. another partition's results)."""
        if other.read_length != self.read_length:
            raise ValueError("cannot merge tables with different read lengths")
        self.total_cycle += other.total_cycle
        self.error_cycle += other.error_cycle
        self.total_context += other.total_context
        self.error_context += other.error_context

    def observations(self) -> int:
        """Total observations in the cycle table (sanity metric)."""
        return int(self.total_cycle.sum())

    def errors(self) -> int:
        """Total errors in the cycle table (sanity metric)."""
        return int(self.error_cycle.sum())


def build_covariate_tables(
    reads: Sequence[AlignedRead],
    genome: ReferenceGenome,
    read_length: int,
) -> Dict[int, CovariateTables]:
    """Covariate-table construction over all reads, grouped by read group.

    Returns one :class:`CovariateTables` per read group, in order of first
    appearance — the same results the Figure 12 accelerator produces per
    (partition, read-group) invocation after host-side merging.  Each
    group's reads are counted :data:`BLOCK_READS` at a time.
    """
    by_group: Dict[int, List[AlignedRead]] = {}
    for read in reads:
        by_group.setdefault(read.read_group, []).append(read)
    tables: Dict[int, CovariateTables] = {}
    for group, members in by_group.items():
        table = tables[group] = CovariateTables(read_length)
        for first in range(0, len(members), BLOCK_READS):
            _accumulate(table, members[first:first + BLOCK_READS], genome)
    return tables


def accumulate_read(
    table: CovariateTables, read: AlignedRead, genome: ReferenceGenome
) -> None:
    """Add one read's aligned bases into a covariate table."""
    _accumulate(table, [read], genome)


def _accumulate(
    table: CovariateTables,
    reads: Sequence[AlignedRead],
    genome: ReferenceGenome,
) -> None:
    """Count every aligned, non-SNP base of ``reads`` into ``table`` in
    one array pass.

    Each read's CIGAR is expanded once into aligned runs (read offset,
    reference start, length); the bases are gathered from the reads'
    concatenated SEQ / QUAL and from each chromosome's sequence and
    IS_SNP bitmap, binned with :func:`cycle_of` / :func:`context_of`'s
    formulas, and added with one ``bincount`` per table.  A base whose
    ``b1`` falls past the cycle table (a quality of ``MAX_QUALITY`` or
    more) is refused, naming the read: ``bincount`` would grow the table
    instead.
    """
    runs = []  # (read, read offset, reference start, length) per M run
    for index, read in enumerate(reads):
        offset, ref_pos = 0, read.pos
        for element in read.cigar.elements:
            if element.op == "M":
                runs.append((index, offset, ref_pos, element.length))
            if element.op in CONSUMES_READ:
                offset += element.length
            if element.op in CONSUMES_REF:
                ref_pos += element.length
    # looked up before the early return: an unknown chromosome is refused
    # for a read with no aligned base too, as the per-base walk refused it
    chromosomes = {read.chrom: genome[read.chrom] for read in reads}
    if not runs:
        return
    run_read, run_offset, run_ref, run_length = np.array(runs, np.int64).T
    first_base = np.cumsum(run_length) - run_length
    run_of = np.repeat(np.arange(len(runs)), run_length)
    step = np.arange(len(run_of)) - first_base[run_of]
    read_of = run_read[run_of]
    read_index = run_offset[run_of] + step
    ref_pos = run_ref[run_of] + step

    keep = np.empty(len(run_of), dtype=bool)
    ref_base = np.empty(len(run_of), dtype=np.uint8)
    read_chrom = np.array([read.chrom for read in reads])[read_of]
    for chrom, chromosome in chromosomes.items():
        on = read_chrom == chrom
        keep[on] = ~chromosome.is_snp[ref_pos[on]]
        ref_base[on] = chromosome.seq[ref_pos[on]]
    read_of, read_index, ref_base = read_of[keep], read_index[keep], ref_base[keep]

    lengths = np.array([len(read.seq) for read in reads], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    at = starts[read_of] + read_index
    seq = np.concatenate([read.seq for read in reads])
    quality = np.concatenate([read.qual for read in reads])[at].astype(np.int64)
    error = seq[at] != ref_base
    reverse = np.array([read.is_reverse for read in reads])[read_of]
    cycle = _cycles(read_index, lengths[read_of], reverse, table.read_length)
    context = _contexts(seq, starts)[at]

    b1 = quality * n_cycle_values(table.read_length) + cycle
    n_b1 = len(table.total_cycle)
    if len(b1) and b1.max() >= n_b1:
        bad = int(np.argmax(b1 >= n_b1))
        raise InputError(
            f"read {reads[read_of[bad]].name!r}: base {read_index[bad]} has "
            f"quality {quality[bad]} at cycle {cycle[bad]}, past the "
            f"covariate tables (quality < {MAX_QUALITY}, "
            f"cycle < {n_cycle_values(table.read_length)})"
        )
    table.total_cycle += np.bincount(b1, minlength=n_b1)
    table.error_cycle += np.bincount(b1[error], minlength=n_b1)
    has_context = context >= 0
    b2 = quality[has_context] * N_CONTEXTS + context[has_context]
    n_b2 = len(table.total_context)
    table.total_context += np.bincount(b2, minlength=n_b2)
    table.error_context += np.bincount(b2[error[has_context]], minlength=n_b2)


def _cycles(read_index, length, reverse, read_length: int) -> np.ndarray:
    """:func:`cycle_of` for bases at ``read_index`` of reads of ``length``
    bases on strand ``reverse`` (arrays or scalars)."""
    return np.where(reverse, read_length + (length - 1 - read_index), read_index)


def _contexts(seq: np.ndarray, starts) -> np.ndarray:
    """:func:`context_of` for every base of ``seq``, the concatenation of
    reads that begin at offsets ``starts``."""
    codes = seq.astype(np.int64)
    context = np.full(len(codes), -1, dtype=np.int64)
    prev, current = codes[:-1], codes[1:]
    context[1:] = np.where((prev > 3) | (current > 3), -1, prev * 4 + current)
    starts = np.asarray(starts)
    context[starts[starts < len(codes)]] = -1  # an empty read starts nowhere
    return context


# -- quality score update (host-side sub-stage) --------------------------------------


def empirical_quality(errors: int, observations: int) -> float:
    """Phred-scaled smoothed empirical quality: ``-10 log10((e+1)/(n+2))``.

    The +1/+2 smoothing matches GATK's approach of seeding each bin with a
    weak prior so empty bins do not explode.
    """
    rate = (errors + 1) / (observations + 2)
    return -10.0 * math.log10(rate)


def _expected_errors(total_by_q: Dict[int, int]) -> float:
    return sum(n * 10 ** (-q / 10.0) for q, n in total_by_q.items())


@dataclass
class RecalibrationModel:
    """The per-read-group hierarchical delta model GATK derives from the
    covariate tables: a global shift, per-reported-quality deltas, and
    per-cycle / per-context residual deltas."""

    read_length: int
    global_delta: float
    quality_delta: Dict[int, float]
    cycle_delta: Dict[Tuple[int, int], float]
    context_delta: Dict[Tuple[int, int], float]

    def recalibrate(self, quality: int, cycle: int, context: int) -> int:
        """Recalibrated quality for one base (clamped to [1, 41 + 10])."""
        value = (
            quality
            + self.global_delta
            + self.quality_delta.get(quality, 0.0)
            + self.cycle_delta.get((quality, cycle), 0.0)
            + self.context_delta.get((quality, context), 0.0)
        )
        return int(min(51, max(1, round(value))))

    def quality_table(self) -> np.ndarray:
        """:meth:`recalibrate` for every base at once: a ``uint8`` table
        indexed ``[quality, min(cycle, n_cycles), context + 1]`` over
        every ``uint8`` quality, the ``n_cycle_values`` cycles plus one
        column (no cycle delta) for any cycle past them, and contexts
        -1..15.  Each entry is the same left-to-right float sum, rounded
        half to even and clamped as :meth:`recalibrate` does."""
        n_qualities = 256
        quality = np.zeros(n_qualities)
        cycle = np.zeros((n_qualities, n_cycle_values(self.read_length) + 1))
        context = np.zeros((n_qualities, N_CONTEXTS + 1))
        for q, delta in self.quality_delta.items():
            quality[q] = delta
        for (q, c), delta in self.cycle_delta.items():
            cycle[q, c] = delta
        for (q, x), delta in self.context_delta.items():
            context[q, x + 1] = delta
        value = (
            (np.arange(n_qualities) + self.global_delta + quality)[:, None, None]
            + cycle[:, :, None]
            + context[:, None, :]
        )
        return np.clip(np.rint(value, out=value), 1, 51, out=value).astype(np.uint8)


def fit_recalibration_model(table: CovariateTables) -> RecalibrationModel:
    """Derive the hierarchical recalibration model from one read group's
    covariate tables (GATK's BaseRecalibrator math, simplified to the
    cycle/context covariates the paper uses)."""
    n_cycles = n_cycle_values(table.read_length)

    total_by_q: Dict[int, int] = {}
    errors_by_q: Dict[int, int] = {}
    for q in range(MAX_QUALITY):
        start, end = q * n_cycles, (q + 1) * n_cycles
        n = int(table.total_cycle[start:end].sum())
        if n == 0:
            continue
        total_by_q[q] = n
        errors_by_q[q] = int(table.error_cycle[start:end].sum())

    total = sum(total_by_q.values())
    errors = sum(errors_by_q.values())
    if total == 0:
        return RecalibrationModel(table.read_length, 0.0, {}, {}, {})

    expected_q = -10.0 * math.log10(
        max(1e-12, _expected_errors(total_by_q) / total)
    )
    global_delta = empirical_quality(errors, total) - expected_q

    quality_delta: Dict[int, float] = {}
    for q, n in total_by_q.items():
        quality_delta[q] = (
            empirical_quality(errors_by_q[q], n) - q - global_delta
        )

    cycle_delta: Dict[Tuple[int, int], float] = {}
    context_delta: Dict[Tuple[int, int], float] = {}
    for q in total_by_q:
        base = q + global_delta + quality_delta[q]
        for cycle in range(n_cycles):
            b1 = table.bin_cycle(q, cycle)
            n = int(table.total_cycle[b1])
            if n == 0:
                continue
            delta = empirical_quality(int(table.error_cycle[b1]), n) - base
            if delta:
                cycle_delta[(q, cycle)] = delta
        for context in range(N_CONTEXTS):
            b2 = table.bin_context(q, context)
            n = int(table.total_context[b2])
            if n == 0:
                continue
            delta = empirical_quality(int(table.error_context[b2]), n) - base
            if delta:
                context_delta[(q, context)] = delta

    return RecalibrationModel(
        table.read_length, global_delta, quality_delta, cycle_delta, context_delta
    )


def apply_recalibration(
    reads: Sequence[AlignedRead],
    models: Dict[int, RecalibrationModel],
) -> int:
    """Quality-score update sub-stage: rewrite every base quality using the
    fitted models, one :meth:`RecalibrationModel.quality_table` lookup
    per read.  Returns the number of bases whose score changed."""
    tables: Dict[int, np.ndarray] = {}
    changed = 0
    for read in reads:
        model = models.get(read.read_group)
        if model is None:
            continue
        table = tables.get(read.read_group)
        if table is None:
            table = tables[read.read_group] = model.quality_table()
        length = len(read.seq)
        cycle = _cycles(np.arange(length), length, read.is_reverse, model.read_length)
        new_qual = table[
            read.qual,
            np.minimum(cycle, table.shape[1] - 1),
            _contexts(read.seq, [0]) + 1,
        ]
        changed += int(np.count_nonzero(new_qual != read.qual))
        read.qual = new_qual
    return changed


def run_bqsr(
    reads: Sequence[AlignedRead],
    genome: ReferenceGenome,
    read_length: int,
) -> Tuple[Dict[int, CovariateTables], int]:
    """Both BQSR sub-stages: build tables, fit models, update qualities.
    Returns the tables and the number of changed base scores."""
    tables = build_covariate_tables(reads, genome, read_length)
    models = {rg: fit_recalibration_model(t) for rg, t in tables.items()}
    changed = apply_recalibration(reads, models)
    return tables, changed
