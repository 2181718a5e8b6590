"""FASTA and FASTQ I/O.

Real genomics deployments exchange references as FASTA and raw reads as
FASTQ; Genesis's primary analysis stage consumes FASTQ before alignment.
These are minimal, dependency-free readers/writers for both formats, with
the chromosome-name conventions used across the reproduction.
"""

from __future__ import annotations

from typing import Iterable, List, TextIO, Tuple

import numpy as np

from ..errors import InputError
from .read import AlignedRead
from .reference import Chromosome, ReferenceGenome, chromosome_id, chromosome_name
from .sequences import decode_sequence, encode_sequence

_LINE_WIDTH = 70


# -- FASTA -----------------------------------------------------------------------


def write_fasta(handle: TextIO, genome: ReferenceGenome) -> int:
    """Write a genome as FASTA; returns the number of records."""
    count = 0
    for chrom in genome.chromosomes:
        handle.write(f">chr{chromosome_name(chrom)}\n")
        text = decode_sequence(genome[chrom].seq)
        for start in range(0, len(text), _LINE_WIDTH):
            handle.write(text[start:start + _LINE_WIDTH] + "\n")
        count += 1
    return count


def read_fasta(handle: TextIO, snp_rate: float = 0.0, seed: int = 0) -> ReferenceGenome:
    """Parse FASTA into a :class:`ReferenceGenome`.

    FASTA carries no known-SNP annotation; ``snp_rate`` optionally draws a
    synthetic IS_SNP bitmap (0 leaves all positions unmarked).  A header
    naming no sequence, or sequence before the first header, is refused.
    """
    rng = np.random.default_rng(seed)
    chromosomes: List[Chromosome] = []
    name = None
    parts: List[str] = []

    def flush() -> None:
        if name is None:
            return
        seq = encode_sequence("".join(parts))
        if snp_rate > 0:
            is_snp = rng.random(len(seq)) < snp_rate
        else:
            is_snp = np.zeros(len(seq), dtype=bool)
        chromosomes.append(Chromosome(chromosome_id(name), seq, is_snp))

    for line in handle:
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            fields = line[1:].split()
            if not fields:
                raise InputError("a FASTA header names no sequence")
            name = fields[0]
            parts = []
        elif name is None:
            raise InputError("sequence before the first FASTA header")
        else:
            parts.append(line)
    flush()
    return ReferenceGenome(chromosomes)


# -- FASTQ -----------------------------------------------------------------------


def write_fastq(handle: TextIO, reads: Iterable[AlignedRead]) -> int:
    """Write reads as FASTQ (sequence + qualities; alignment dropped, as
    FASTQ predates alignment).  Returns the record count."""
    count = 0
    for read in reads:
        handle.write(f"@{read.name}\n{read.seq_str}\n+\n{read.qual_str}\n")
        count += 1
    return count


def read_fastq(handle: TextIO) -> List[Tuple[str, np.ndarray, np.ndarray]]:
    """Parse FASTQ into ``(name, seq_codes, quals)`` tuples — the raw
    machine output the primary-analysis stage would hand to an aligner."""
    records: List[Tuple[str, np.ndarray, np.ndarray]] = []
    lines = [line.rstrip("\n") for line in handle if line.strip()]
    if len(lines) % 4 != 0:
        raise ValueError("FASTQ record count is not a multiple of 4")
    for i in range(0, len(lines), 4):
        header, seq_text, plus, qual_text = lines[i:i + 4]
        if not header.startswith("@") or not plus.startswith("+"):
            raise ValueError(f"malformed FASTQ record at line {i + 1}")
        if len(seq_text) != len(qual_text):
            raise ValueError(f"SEQ/QUAL length mismatch in record {header}")
        records.append((
            header[1:].split()[0],
            encode_sequence(seq_text),
            np.array([ord(ch) - 33 for ch in qual_text], dtype=np.uint8),
        ))
    return records
