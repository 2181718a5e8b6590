"""Reference genome with known-SNP annotations.

The Genesis REF table (Table I) stores, per partition row, a reference
base-pair fragment plus an ``IS_SNP`` bitmap marking known variation sites
(the dbSNP138 sites in the paper's evaluation).  BQSR consults the bitmap to
avoid counting known variant positions as sequencing errors (Section IV-D).

The paper evaluates against GRCh38; we cannot ship that, so
:func:`ReferenceGenome.random` synthesizes a multi-chromosome genome at a
configurable scale with a seeded RNG, and :meth:`ReferenceGenome.grch38_like`
mirrors the *relative* chromosome lengths of GRCh38 so per-chromosome
experiments (Figure 13 c/d) retain their shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

import numpy as np

from ..errors import InputError
from .sequences import random_sequence

#: GRCh38 chromosome lengths in base pairs (chr1..22, X, Y), used to scale
#: synthetic genomes so the per-chromosome workload mix matches the paper's.
GRCH38_CHROMOSOME_LENGTHS = {
    1: 248_956_422, 2: 242_193_529, 3: 198_295_559, 4: 190_214_555,
    5: 181_538_259, 6: 170_805_979, 7: 159_345_973, 8: 145_138_636,
    9: 138_394_717, 10: 133_797_422, 11: 135_086_622, 12: 133_275_309,
    13: 114_364_328, 14: 107_043_718, 15: 101_991_189, 16: 90_338_345,
    17: 83_257_441, 18: 80_373_285, 19: 58_617_616, 20: 64_444_167,
    21: 46_709_983, 22: 50_818_468, 23: 156_040_895, 24: 57_227_415,
}

#: Chromosome identifiers in the paper's convention: 1..22, X (23), Y (24).
CHROMOSOMES = tuple(sorted(GRCH38_CHROMOSOME_LENGTHS))


def chromosome_name(chrom: int) -> str:
    """Human-readable name for a chromosome id (23 -> "X", 24 -> "Y")."""
    if chrom == 23:
        return "X"
    if chrom == 24:
        return "Y"
    return str(chrom)


def known_chromosome(chrom: object, name: object = None) -> int:
    """``chrom`` when it is one of :data:`CHROMOSOMES`, else an
    :class:`~repro.errors.InputError` naming ``name`` (default
    ``chrom``)."""
    if chrom not in GRCH38_CHROMOSOME_LENGTHS:
        raise InputError(
            f"unknown chromosome {chrom if name is None else name!r} "
            "(expected 1-22, X or Y)"
        )
    return chrom


def chromosome_id(name: str) -> int:
    """The id a FASTA / SAM name denotes (``"chr21"`` or ``"21"`` -> 21,
    ``"X"`` -> 23) — the inverse of :func:`chromosome_name`."""
    text = name[3:] if name.startswith("chr") else name
    digits = text.isascii() and text.isdigit()
    return known_chromosome(
        {"X": 23, "Y": 24}.get(text, int(text) if digits else None), name
    )


@dataclass
class Chromosome:
    """One chromosome: its encoded sequence and known-SNP bitmap."""

    chrom: int
    seq: np.ndarray
    is_snp: np.ndarray

    def __post_init__(self) -> None:
        self.seq = np.asarray(self.seq, dtype=np.uint8)
        self.is_snp = np.asarray(self.is_snp, dtype=bool)
        if len(self.seq) != len(self.is_snp):
            raise ValueError("SEQ and IS_SNP must have equal length")

    def __len__(self) -> int:
        return len(self.seq)


class ReferenceGenome:
    """A collection of chromosomes addressed by chromosome id."""

    def __init__(self, chromosomes: Iterable[Chromosome]):
        self._by_chrom: Dict[int, Chromosome] = {}
        for chromosome in chromosomes:
            if chromosome.chrom in self._by_chrom:
                raise ValueError(f"duplicate chromosome id {chromosome.chrom}")
            self._by_chrom[chromosome.chrom] = chromosome
        if not self._by_chrom:
            raise ValueError("a genome needs at least one chromosome")

    # -- access ---------------------------------------------------------------

    @property
    def chromosomes(self) -> List[int]:
        """Sorted chromosome ids present in this genome."""
        return sorted(self._by_chrom)

    def __getitem__(self, chrom: int) -> Chromosome:
        return self._by_chrom[chrom]

    def __contains__(self, chrom: int) -> bool:
        return chrom in self._by_chrom

    def length(self, chrom: int) -> int:
        """Length of one chromosome in base pairs."""
        return len(self._by_chrom[chrom])

    def total_length(self) -> int:
        """Total genome length in base pairs."""
        return sum(len(c) for c in self._by_chrom.values())

    def fetch(self, chrom: int, start: int, end: int) -> np.ndarray:
        """Reference bases on ``chrom`` for positions ``[start, end)``
        (0-based, half-open)."""
        chromosome = self._by_chrom[chrom]
        if start < 0 or end > len(chromosome) or start > end:
            raise IndexError(f"fetch out of range: chr{chrom}:{start}-{end}")
        return chromosome.seq[start:end]

    def fetch_snp(self, chrom: int, start: int, end: int) -> np.ndarray:
        """IS_SNP bitmap slice for positions ``[start, end)``."""
        chromosome = self._by_chrom[chrom]
        if start < 0 or end > len(chromosome) or start > end:
            raise IndexError(f"fetch out of range: chr{chrom}:{start}-{end}")
        return chromosome.is_snp[start:end]

    # -- construction -----------------------------------------------------------

    @classmethod
    def random(
        cls,
        lengths: Dict[int, int],
        snp_rate: float = 0.001,
        seed: int = 0,
    ) -> "ReferenceGenome":
        """Synthesize a genome with the given per-chromosome lengths.

        ``snp_rate`` is the fraction of positions flagged as known SNP sites
        (human genomes carry roughly one known SNP per kilobase, which is
        what dbSNP-annotated pipelines see).
        """
        if not 0.0 <= snp_rate <= 1.0:
            raise InputError(f"snp_rate must be in [0, 1], got {snp_rate}")
        rng = np.random.default_rng(seed)
        chromosomes = []
        for chrom, length in sorted(lengths.items()):
            seq = random_sequence(length, rng)
            is_snp = rng.random(length) < snp_rate
            chromosomes.append(Chromosome(chrom, seq, is_snp))
        return cls(chromosomes)

    @classmethod
    def grch38_like(
        cls,
        scale: float = 1e-5,
        snp_rate: float = 0.001,
        seed: int = 0,
        chromosomes: Iterable[int] = CHROMOSOMES,
    ) -> "ReferenceGenome":
        """A genome whose chromosome lengths are GRCh38's scaled by
        ``scale`` (so chr1 stays ~5x longer than chr21, etc.)."""
        lengths = {
            chrom: max(1000, int(GRCH38_CHROMOSOME_LENGTHS[chrom] * scale))
            for chrom in map(known_chromosome, chromosomes)
        }
        return cls.random(lengths, snp_rate=snp_rate, seed=seed)
