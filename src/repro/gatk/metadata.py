"""Metadata-update stage (GATK4 SetNmMdAndUqTags), software baseline.

Section IV-C: for each read, compute

* **NM** — the edit distance to the reference over the aligned span:
  mismatching M bases plus all inserted and all deleted bases;
* **MD** — the string from which the reference can be recovered given the
  read: runs of matches encoded as integers, each mismatch emitting the
  *reference* base, each deletion emitting ``^`` plus the deleted reference
  bases.  Insertions do not appear (they have no reference base).  The
  paper's example (Figure 2): Read 1 with mismatches at aligned bases 2 and
  9 has ``MD = 1C6A3``;
* **UQ** — the sum of quality scores of the mismatching M bases, a proxy
  for the likelihood the read is erroneous.

This module is the ground truth the Figure 11 accelerator is checked
against (bit-identical NM/MD/UQ on every read).  It works one CIGAR
element at a time: an M element is one slice comparison against the
reference, and only its mismatches and the deleted bases reach the
:class:`MdBuilder`.  The per-base walk it came from is the test suite's
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..genomics.cigar import Cigar
from ..genomics.read import AlignedRead
from ..genomics.reference import ReferenceGenome
from ..genomics.sequences import decode_base


@dataclass(frozen=True)
class ReadMetadata:
    """The three tags the metadata-update stage attaches to a read."""

    nm: int
    md: str
    uq: int


class MdBuilder:
    """Incremental MD-tag builder with the exact semantics of the paper's
    MDGen custom module (Section IV-C): count matches; on a mismatch emit
    the match count then the reference base; on a deletion emit the match
    count then ``^`` plus the deleted reference bases."""

    def __init__(self) -> None:
        self._parts: List[str] = []
        self._match_run = 0
        self._in_deletion = False

    def match(self, count: int = 1) -> None:
        """``count`` matching M bases (one by default)."""
        self._match_run += count
        self._in_deletion = False

    def mismatch(self, ref_base: int) -> None:
        """One mismatching M base; emits the reference base."""
        self._flush_run()
        self._parts.append(decode_base(int(ref_base)))
        self._in_deletion = False

    def deletion(self, ref_base: int) -> None:
        """One deleted reference base; consecutive deletions share one
        ``^`` marker."""
        if not self._in_deletion:
            self._flush_run()
            self._parts.append("^")
            self._in_deletion = True
        self._parts.append(decode_base(int(ref_base)))

    def finish(self) -> str:
        """The MD string.  Always ends with a (possibly zero) match count,
        per the SAM convention."""
        self._flush_run()
        return "".join(self._parts)

    def _flush_run(self) -> None:
        # SAM convention: match counts are always emitted, including the
        # explicit "0" between adjacent mismatches and at the ends.
        self._parts.append(str(self._match_run))
        self._match_run = 0


def compute_read_metadata(read: AlignedRead, genome: ReferenceGenome) -> ReadMetadata:
    """NM/MD/UQ for one read against the reference genome."""
    ref = genome[read.chrom].seq
    return _metadata_from_arrays(read.cigar, read.pos, read.seq, read.qual, ref, 0)


def compute_read_metadata_fragment(
    read: AlignedRead, ref_fragment, fragment_start: int
) -> ReadMetadata:
    """NM/MD/UQ using a reference *fragment* starting at ``fragment_start``
    — the partitioned form the accelerator sees (REF partition rows)."""
    return _metadata_from_arrays(
        read.cigar, read.pos, read.seq, read.qual, ref_fragment, fragment_start
    )


def _metadata_from_arrays(
    cigar: Cigar, pos: int, seq, qual, ref, ref_offset: int
) -> ReadMetadata:
    nm = 0
    uq = 0
    md = MdBuilder()
    read_index, ref_index = 0, pos - ref_offset
    for element in cigar.elements:
        op, length = element.op, element.length
        if op == "M":
            ref_bases = _covered(ref, ref_index, length)
            mismatches = np.nonzero(
                seq[read_index:read_index + length] != ref_bases
            )[0]
            last = 0
            if len(mismatches):
                for offset in mismatches.tolist():
                    md.match(offset - last)
                    md.mismatch(ref_bases[offset])
                    last = offset + 1
                nm += len(mismatches)
                uq += int(qual[read_index + mismatches].sum(dtype=np.int64))
            md.match(length - last)
            read_index += length
            ref_index += length
        elif op == "D":
            for ref_base in _covered(ref, ref_index, length).tolist():
                md.deletion(ref_base)
            nm += length
            ref_index += length
        elif op == "I":
            nm += length
            read_index += length
        else:  # S: read bases that are not aligned
            read_index += length
    return ReadMetadata(nm=nm, md=md.finish(), uq=uq)


def _covered(ref, start: int, length: int):
    """``ref[start:start + length]``, refused (``IndexError``) where the
    reference does not hold every one of those positions."""
    if start < 0 or start + length > len(ref):
        raise IndexError(
            f"reference positions {start}..{start + length - 1} lie outside "
            f"the {len(ref)} held"
        )
    return np.asarray(ref[start:start + length])


def update_metadata(
    reads: Sequence[AlignedRead], genome: ReferenceGenome
) -> List[ReadMetadata]:
    """Run the metadata-update stage over all reads, attaching NM/MD/UQ
    tags in place and returning the computed metadata."""
    out = []
    for read in reads:
        metadata = compute_read_metadata(read, genome)
        read.tags["NM"] = metadata.nm
        read.tags["MD"] = metadata.md
        read.tags["UQ"] = metadata.uq
        out.append(metadata)
    return out


def recover_reference(read: AlignedRead, md: str) -> str:
    """Reconstruct the aligned reference bases from a read and its MD tag.

    This is the defining property of MD ("enables the recovery of the
    reference base pair sequence", Section IV-C) and is used as a
    round-trip invariant in the test suite.
    """
    aligned_read_bases: List[int] = []
    for op, _ref_pos, read_index in read.cigar.walk(read.pos):
        if op == "M":
            aligned_read_bases.append(int(read.seq[read_index]))
    out: List[str] = []
    cursor = 0
    index = 0
    while index < len(md):
        ch = md[index]
        if ch.isdigit():
            start = index
            while index < len(md) and md[index].isdigit():
                index += 1
            run = int(md[start:index])
            for _ in range(run):
                out.append(decode_base(aligned_read_bases[cursor]))
                cursor += 1
        elif ch == "^":
            index += 1
            while index < len(md) and md[index].isalpha():
                out.append(md[index])
                index += 1
        else:
            out.append(ch)
            cursor += 1
            index += 1
    return "".join(out)
