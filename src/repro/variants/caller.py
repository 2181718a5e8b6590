"""A pileup-based germline variant caller.

The variant-discovery phase the preprocessing pipeline feeds
(Section IV-A).  This caller is deliberately simple — a quality-weighted
pileup genotyper in the FreeBayes/bcftools mold, not HaplotypeCaller's
local assembly — but it is a *real* caller: it consumes the preprocessed
reads (duplicates excluded, recalibrated qualities honored), computes
genotype likelihoods per site, and emits :class:`Variant` records.  It
exists so the reproduction can demonstrate the full secondary-analysis
flow end to end and measure how preprocessing quality affects calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import InputError
from ..genomics.read import AlignedRead
from ..genomics.reference import ReferenceGenome
from ..genomics.sequences import decode_sequence
from .records import CallSet, Variant


@dataclass
class CallerConfig:
    """Thresholds of the pileup caller."""

    min_depth: int = 4
    min_base_quality: int = 10
    min_variant_quality: float = 20.0
    max_depth: int = 1000
    het_prior: float = 1e-3

    def __post_init__(self) -> None:
        if self.min_depth < 1:
            raise InputError(f"min_depth must be at least 1, got {self.min_depth}")


@dataclass
class PileupColumn:
    """All read observations covering one reference position."""

    chrom: int
    pos: int
    bases: List[int]
    quals: List[int]

    @property
    def depth(self) -> int:
        """Number of observations."""
        return len(self.bases)

    def base_counts(self) -> Dict[int, int]:
        """Observation counts by base code."""
        counts: Dict[int, int] = {}
        for base in self.bases:
            counts[base] = counts.get(base, 0) + 1
        return counts


def build_pileup(
    reads: Iterable[AlignedRead],
    min_base_quality: int = 10,
    skip_duplicates: bool = True,
) -> Dict[Tuple[int, int], PileupColumn]:
    """Accumulate per-position pileup columns from aligned reads.

    Only aligned (M) bases contribute; soft clips, insertions, and
    deletions are skipped, as are duplicate-flagged reads and bases below
    the quality floor.
    """
    columns: Dict[Tuple[int, int], PileupColumn] = {}
    for read in reads:
        if skip_duplicates and read.is_duplicate:
            continue
        for op, ref_pos, read_index in read.cigar.walk(read.pos):
            if op != "M":
                continue
            quality = int(read.qual[read_index])
            if quality < min_base_quality:
                continue
            key = (read.chrom, ref_pos)
            column = columns.get(key)
            if column is None:
                column = PileupColumn(read.chrom, ref_pos, [], [])
                columns[key] = column
            column.bases.append(int(read.seq[read_index]))
            column.quals.append(quality)
    return columns


def genotype_likelihoods(
    column: PileupColumn, ref_base: int, alt_base: int
) -> Tuple[float, float, float]:
    """Log10 likelihoods of (hom-ref, het, hom-alt) for one column.

    Standard diploid model: each observation is correct with probability
    ``1 - e`` (``e`` from its Phred quality); under het, either allele is
    sequenced with probability 1/2.
    """
    log_rr = log_ra = log_aa = 0.0
    for base, quality in zip(column.bases, column.quals):
        error = 10 ** (-quality / 10.0)
        p_ref = 1 - error if base == ref_base else error / 3
        p_alt = 1 - error if base == alt_base else error / 3
        log_rr += math.log10(max(p_ref, 1e-300))
        log_aa += math.log10(max(p_alt, 1e-300))
        log_ra += math.log10(max(0.5 * (p_ref + p_alt), 1e-300))
    return log_rr, log_ra, log_aa


def call_variants(
    reads: Iterable[AlignedRead],
    genome: ReferenceGenome,
    config: Optional[CallerConfig] = None,
) -> CallSet:
    """Call SNVs from preprocessed reads against the reference."""
    config = config or CallerConfig()
    pileup = build_pileup(
        reads, min_base_quality=config.min_base_quality
    )
    calls: List[Variant] = []
    log_het_prior = math.log10(config.het_prior)
    log_hom_prior = math.log10(config.het_prior / 2)
    for (chrom, pos), column in sorted(pileup.items()):
        if not config.min_depth <= column.depth <= config.max_depth:
            continue
        ref_base = int(genome[chrom].seq[pos])
        counts = column.base_counts()
        alt_candidates = [b for b in counts if b != ref_base]
        if not alt_candidates:
            continue
        alt_base = max(alt_candidates, key=lambda b: counts[b])
        log_rr, log_ra, log_aa = genotype_likelihoods(column, ref_base, alt_base)
        posteriors = {
            "0/0": log_rr,
            "0/1": log_ra + log_het_prior,
            "1/1": log_aa + log_hom_prior,
        }
        genotype = max(posteriors, key=posteriors.get)
        if genotype == "0/0":
            continue
        sorted_logs = sorted(posteriors.values(), reverse=True)
        quality = 10.0 * (sorted_logs[0] - sorted_logs[1])
        if quality < config.min_variant_quality:
            continue
        calls.append(Variant(
            chrom=chrom,
            pos=pos,
            ref=decode_sequence([ref_base]),
            alt=decode_sequence([alt_base]),
            qual=round(min(quality, 9999.0), 2),
            genotype=genotype,
            depth=column.depth,
            alt_depth=counts[alt_base],
        ))
    return CallSet(calls, name="pileup")


def inject_true_variants(
    genome: ReferenceGenome,
    rate: float = 5e-4,
    het_fraction: float = 0.6,
    seed: int = 0,
    known_site_fraction: float = 0.9,
) -> Tuple[ReferenceGenome, CallSet]:
    """Create a *donor* genome that differs from the reference at random
    SNV sites, returning the donor and the truth callset.

    This models the biological sample: reads are simulated from the donor
    but analyzed against the reference, so a correct pipeline rediscovers
    exactly these variants.  Heterozygous sites are marked in the truth
    set; the donor carries the alt allele (read simulation of het sites at
    50 % allele fraction is approximated by full substitution for
    simplicity, so callers see hom-alt evidence for all truth sites).

    ``known_site_fraction`` of the variants land on the genome's IS_SNP
    positions, mirroring reality: dbSNP catalogs most true human
    variation, which is exactly why BQSR can mask known sites without
    mistaking real variants for sequencing errors.
    """
    from ..genomics.reference import Chromosome

    if not 0.0 <= known_site_fraction <= 1.0:
        raise ValueError("known_site_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    truth: List[Variant] = []
    chromosomes = []
    for chrom in genome.chromosomes:
        source = genome[chrom]
        seq = source.seq.copy()
        n_sites = int(rng.binomial(len(seq), rate))
        known = np.nonzero(source.is_snp)[0]
        n_known = min(int(round(n_sites * known_site_fraction)), len(known))
        site_set = set()
        if n_known:
            site_set.update(
                int(p) for p in rng.choice(known, size=n_known, replace=False)
            )
        while len(site_set) < n_sites:
            site_set.add(int(rng.integers(0, len(seq))))
        sites = np.array(sorted(site_set), dtype=np.int64)
        for pos in sites:
            ref_base = int(seq[pos])
            alt_base = (ref_base + int(rng.integers(1, 4))) % 4
            seq[pos] = alt_base
            genotype = "0/1" if rng.random() < het_fraction else "1/1"
            truth.append(Variant(
                chrom=chrom,
                pos=int(pos),
                ref=decode_sequence([ref_base]),
                alt=decode_sequence([alt_base]),
                genotype=genotype,
            ))
        chromosomes.append(Chromosome(chrom, seq, source.is_snp.copy()))
    return ReferenceGenome(chromosomes), CallSet(truth, name="truth")
