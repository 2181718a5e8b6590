"""Genomic data substrate: sequences, CIGARs, reads, references, simulator.

This subpackage implements everything the Genesis paper assumes about the
genomic data itself (Section II): DNA sequences, CIGAR alignment metadata,
aligned read records, a reference genome with known-SNP annotations, an
Illumina-like read simulator (our substitute for NA12878, see DESIGN.md),
and a minimal SAM-style serialization.
"""

from .cigar import Cigar, CigarElement, decode_elements, encode_elements
from .read import AlignedRead, pair_key
from .reference import (
    CHROMOSOMES,
    GRCH38_CHROMOSOME_LENGTHS,
    Chromosome,
    ReferenceGenome,
    chromosome_name,
)
from .sequences import (
    BASES,
    N_CODE,
    decode_sequence,
    encode_base,
    encode_sequence,
    gc_content,
    random_sequence,
    reverse_complement,
)
from .simulator import ReadSimulator, SimulatorConfig

__all__ = [
    "AlignedRead",
    "BASES",
    "CHROMOSOMES",
    "Chromosome",
    "Cigar",
    "CigarElement",
    "GRCH38_CHROMOSOME_LENGTHS",
    "N_CODE",
    "ReadSimulator",
    "ReferenceGenome",
    "SimulatorConfig",
    "chromosome_name",
    "decode_elements",
    "decode_sequence",
    "encode_base",
    "encode_elements",
    "encode_sequence",
    "gc_content",
    "pair_key",
    "random_sequence",
    "reverse_complement",
]

from .fasta import read_fasta, read_fastq, write_fasta, write_fastq

__all__ += ["read_fasta", "read_fastq", "write_fasta", "write_fastq"]
