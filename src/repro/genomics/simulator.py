"""Illumina-like synthetic read simulator.

The paper evaluates on Illumina NA12878 reads (~700M reads, 151 bp).  That
data set is not redistributable at this scale, so this simulator produces a
synthetic equivalent that exercises every code path the Genesis accelerators
and the GATK4-style baseline care about:

* reads of a fixed machine length (default 151 bp) sampled from a reference,
* substitution errors at a per-base rate (so NM/MD/UQ and BQSR error counts
  are non-trivial),
* insertions and deletions (CIGAR ``I``/``D`` elements),
* soft clips at either end (CIGAR ``S`` elements; exercised by the
  unclipped-5' mark-duplicates keys),
* PCR duplicates — clusters of reads sharing an unclipped 5' key with
  independently redrawn quality scores (Section IV-B),
* paired-end reads with a reverse-strand mate (footnote 1),
* multiple read groups modelling sequencer lanes (the BQSR read-group
  covariate),
* a quality-score model with per-cycle and per-lane bias so BQSR's
  recalibration has real structure to find.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..errors import InputError
from .cigar import Cigar, CigarElement
from .read import (
    FLAG_FIRST_IN_PAIR,
    FLAG_MATE_REVERSE,
    FLAG_PAIRED,
    FLAG_PROPER_PAIR,
    FLAG_REVERSE,
    FLAG_SECOND_IN_PAIR,
    AlignedRead,
)
from .reference import ReferenceGenome

#: The shortest read the simulator draws.
MIN_READ_LENGTH = 8

#: The shortest window of aligned bases worth one array pass.  A window
#: costs a generator-state save and a rewind on top of its draws, which
#: at fewer bases than this ran slower than taking them one at a time.
MIN_WINDOW = 8


@dataclass
class SimulatorConfig:
    """Knobs for the read simulator.

    The defaults mirror the paper's data set where it is characterized:
    151 bp reads, a handful of lanes, ~1/1000 substitution error.
    """

    read_length: int = 151
    substitution_rate: float = 0.002
    insertion_rate: float = 0.0005
    deletion_rate: float = 0.0005
    max_indel_length: int = 3
    soft_clip_rate: float = 0.05
    max_soft_clip: int = 8
    duplicate_rate: float = 0.15
    max_duplicates: int = 4
    paired: bool = False
    mean_fragment_length: int = 400
    read_groups: int = 4
    base_quality: int = 32
    quality_spread: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.read_length < MIN_READ_LENGTH:
            raise InputError(f"read_length must be at least {MIN_READ_LENGTH}")
        for name in ("substitution_rate", "insertion_rate", "deletion_rate",
                     "soft_clip_rate", "duplicate_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InputError(f"{name} must be in [0, 1], got {value}")
        for name in ("max_indel_length", "max_soft_clip", "max_duplicates"):
            value = getattr(self, name)
            if value < 1:
                raise InputError(f"{name} must be at least 1, got {value}")
        if self.quality_spread < 0:
            raise InputError(
                f"quality_spread must be at least 0, got {self.quality_spread}"
            )


class ReadSimulator:
    """Samples aligned reads from a :class:`ReferenceGenome`.

    The simulator emits reads already *aligned* (true position, true CIGAR):
    Genesis accelerates post-alignment stages, so we skip re-discovering
    alignments and hand the preprocessing stages what a perfect aligner
    would have produced, with sequencing errors layered on top.
    """

    def __init__(self, genome: ReferenceGenome, config: Optional[SimulatorConfig] = None):
        self.genome = genome
        self.config = config or SimulatorConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self._serial = 0
        # Chromosomes are drawn in proportion to their length: the weights'
        # cumulative sum, normalised as ``Generator.choice`` normalises it.
        chroms = genome.chromosomes
        self._chroms = np.array(chroms)
        lengths = np.array([genome.length(c) for c in chroms], dtype=float)
        cdf = (lengths / lengths.sum()).cumsum()
        self._chrom_cdf = cdf / cdf[-1]
        # The longest window of aligned bases drawn in one array pass: the
        # expected run between two error events (at most a read), or 0 (one
        # base at a time) when that run is too short to pay for a window.
        rate = (self.config.substitution_rate + self.config.insertion_rate
                + self.config.deletion_rate)
        read_length = self.config.read_length
        window = int(1 / rate) if rate * read_length > 1 else read_length
        self._window = window if window >= MIN_WINDOW else 0
        # The per-cycle quality decay of a read of each length.
        self._quality_ramp: Dict[int, np.ndarray] = {}
        # Per-lane quality bias: some lanes systematically over- or
        # under-report quality, the exact systematic effect BQSR corrects.
        self._lane_bias = self._rng.integers(
            -3, 4, size=max(1, self.config.read_groups)
        )

    # -- public API ------------------------------------------------------------

    def simulate(self, n_reads: int, chrom: Optional[int] = None) -> List[AlignedRead]:
        """Simulate ``n_reads`` source fragments (PCR duplication may emit
        more reads than that).  Restrict sampling to ``chrom`` if given."""
        reads: List[AlignedRead] = []
        while len(reads) < n_reads:
            reads.extend(self._simulate_fragment(chrom))
        reads.sort(key=lambda read: (read.chrom, read.pos))
        return reads

    def simulate_pairs(self, n_pairs: int, chrom: Optional[int] = None) -> List[AlignedRead]:
        """Simulate paired-end fragments; returns a flat, sorted read list."""
        reads: List[AlignedRead] = []
        for _ in range(n_pairs):
            reads.extend(self._simulate_pair(chrom))
        reads.sort(key=lambda read: (read.chrom, read.pos))
        return reads

    # -- fragment-level simulation ----------------------------------------------

    def _simulate_fragment(self, chrom: Optional[int]) -> List[AlignedRead]:
        """One sequenced DNA fragment plus any PCR duplicates of it."""
        template = self._draw_read(chrom)
        out = [template]
        if self._rng.random() < self.config.duplicate_rate:
            n_dups = int(self._rng.integers(1, self.config.max_duplicates + 1))
            for _ in range(n_dups):
                out.append(self._duplicate_of(template))
        return out

    def _simulate_pair(self, chrom: Optional[int]) -> List[AlignedRead]:
        """A forward/reverse read pair from one fragment."""
        config = self.config
        chrom = self._pick_chrom(chrom)
        fragment_len = max(
            2 * config.read_length,
            int(self._rng.normal(config.mean_fragment_length, 50)),
        )
        chrom_len = self.genome.length(chrom)
        if chrom_len <= config.read_length:
            raise InputError(f"chromosome {chrom} too short for read pairs")
        if fragment_len >= chrom_len:
            fragment_len = chrom_len - 1
        start = int(self._rng.integers(0, chrom_len - fragment_len))
        name = self._next_name()
        read_group = int(self._rng.integers(0, max(1, config.read_groups)))

        first = self._read_at(chrom, start, name, read_group, reverse=False)
        mate_start = start + fragment_len - config.read_length
        second = self._read_at(chrom, mate_start, name, read_group, reverse=True)

        first.flags |= (FLAG_PAIRED | FLAG_PROPER_PAIR | FLAG_FIRST_IN_PAIR
                        | FLAG_MATE_REVERSE)
        second.flags |= FLAG_PAIRED | FLAG_PROPER_PAIR | FLAG_SECOND_IN_PAIR
        first.mate_chrom = second.mate_chrom = chrom
        first.mate_pos, second.mate_pos = second.pos, first.pos
        return [first, second]

    # -- read-level simulation ----------------------------------------------------

    def _draw_read(self, chrom: Optional[int]) -> AlignedRead:
        chrom = self._pick_chrom(chrom)
        max_start = self.genome.length(chrom) - 2 * self.config.read_length
        if max_start <= 0:
            raise InputError(f"chromosome {chrom} too short for reads")
        start = int(self._rng.integers(0, max_start))
        read_group = int(self._rng.integers(0, max(1, self.config.read_groups)))
        reverse = bool(self._rng.random() < 0.5)
        return self._read_at(chrom, start, self._next_name(), read_group, reverse)

    def _read_at(
        self, chrom: int, start: int, name: str, read_group: int, reverse: bool
    ) -> AlignedRead:
        """Build one read: walk the reference from ``start`` emitting CIGAR
        elements and read bases until ``read_length`` bases are produced.

        The walk draws two doubles per aligned base (the indel draw, then
        the substitution draw), so a stretch of aligned bases between two
        error events is drawn in one array pass; the events themselves are
        taken one step at a time.  The reads, and the generator's state
        after them, are those of a walk that takes each draw on its own."""
        config = self.config
        rng = self._rng
        ref = self.genome[chrom].seq

        front_clip = 0
        back_clip = 0
        if rng.random() < config.soft_clip_rate:
            front_clip = int(rng.integers(1, config.max_soft_clip + 1))
        if rng.random() < config.soft_clip_rate:
            back_clip = int(rng.integers(1, config.max_soft_clip + 1))
        # A short read keeps at least one aligned base.
        front_clip = min(front_clip, config.read_length - 1)
        back_clip = min(back_clip, config.read_length - 1 - front_clip)

        body_len = config.read_length - front_clip - back_clip
        seq: List[int] = []
        elements: List[CigarElement] = []

        if front_clip:
            elements.append(CigarElement(front_clip, "S"))
            seq.extend(rng.integers(0, 4, size=front_clip).tolist())

        # The aligned body: mostly M, with occasional I/D events.
        ins_rate = config.insertion_rate
        indel_rate = ins_rate + config.deletion_rate
        sub_rate = config.substitution_rate
        max_indel = config.max_indel_length
        longest = self._window
        ref_end = len(ref) - max_indel
        ref_pos = start
        emitted = 0
        run_m = 0
        while emitted < body_len and ref_pos < ref_end:
            window = min(longest, body_len - emitted, ref_end - ref_pos)
            if window >= MIN_WINDOW:
                # Draw the window's pairs, keep the clean prefix, and rewind
                # to just before the first event if the window holds one.
                saved = rng.bit_generator.state
                draws = rng.random(2 * window)
                event = (draws[0::2] < indel_rate) | (draws[1::2] < sub_rate)
                clean = int(event.argmax())
                if not event[clean]:
                    clean = window
                else:
                    rng.bit_generator.state = saved
                    rng.random(2 * clean)
                seq.extend(ref[ref_pos:ref_pos + clean].tolist())
                ref_pos += clean
                emitted += clean
                run_m += clean
                if clean == window:
                    continue
            # One step of the walk: an error event, or a lone base.
            draw = rng.random()
            if draw < ins_rate and emitted > 0 and emitted < body_len - 1:
                if run_m:
                    elements.append(CigarElement(run_m, "M"))
                    run_m = 0
                ins_len = min(
                    int(rng.integers(1, max_indel + 1)), body_len - emitted - 1
                )
                _extend(elements, ins_len, "I")
                seq.extend(rng.integers(0, 4, size=ins_len).tolist())
                emitted += ins_len
            elif draw < indel_rate and emitted > 0:
                if run_m:
                    elements.append(CigarElement(run_m, "M"))
                    run_m = 0
                del_len = int(rng.integers(1, max_indel + 1))
                _extend(elements, del_len, "D")
                ref_pos += del_len
            else:
                base = int(ref[ref_pos])
                if rng.random() < sub_rate:
                    base = (base + int(rng.integers(1, 4))) % 4
                seq.append(base)
                ref_pos += 1
                emitted += 1
                run_m += 1
        if run_m:
            elements.append(CigarElement(run_m, "M"))

        if back_clip:
            elements.append(CigarElement(back_clip, "S"))
            seq.extend(rng.integers(0, 4, size=back_clip).tolist())

        qual = self._draw_qualities(len(seq), read_group)
        flags = FLAG_REVERSE if reverse else 0
        return AlignedRead(
            name=name,
            chrom=chrom,
            pos=start,
            cigar=Cigar(elements),
            seq=np.array(seq, dtype=np.uint8),
            qual=qual,
            flags=flags,
            read_group=read_group,
        )

    def _duplicate_of(self, template: AlignedRead) -> AlignedRead:
        """A PCR duplicate: same alignment key, fresh quality scores and an
        independent re-read of the bases (duplicates are separate optical
        measurements of the same amplified fragment)."""
        rng = self._rng
        seq = template.seq.copy()
        flips = rng.random(len(seq)) < self.config.substitution_rate
        seq[flips] = (seq[flips] + rng.integers(1, 4, size=int(flips.sum()))) % 4
        return AlignedRead(
            name=self._next_name(),
            chrom=template.chrom,
            pos=template.pos,
            cigar=template.cigar,
            seq=seq,
            qual=self._draw_qualities(len(seq), template.read_group),
            flags=template.flags,
            read_group=template.read_group,
        )

    # -- helpers ---------------------------------------------------------------

    def _draw_qualities(self, length: int, read_group: int) -> np.ndarray:
        """Quality scores with per-cycle decay and per-lane bias; clamped to
        the Phred range [2, 41] Illumina instruments emit."""
        config = self.config
        ramp = self._quality_ramp.get(length)
        if ramp is None:
            ramp = self._quality_ramp[length] = (
                config.base_quality - np.linspace(0, 6, num=length)
            )
        noise = self._rng.integers(
            -config.quality_spread, config.quality_spread + 1, size=length
        )
        lane = self._lane_bias[read_group % len(self._lane_bias)]
        scores = ramp + noise + lane
        return scores.round().clip(2, 41).astype(np.uint8)

    def _pick_chrom(self, chrom: Optional[int]) -> int:
        if chrom is not None:
            if chrom not in self.genome:
                raise KeyError(f"no chromosome {chrom} in genome")
            return chrom
        # ``Generator.choice(chromosomes, p=weights)``, one draw.
        index = self._chrom_cdf.searchsorted(self._rng.random(), side="right")
        return int(self._chroms[index])

    def _next_name(self) -> str:
        self._serial += 1
        return f"sim{self._serial:08d}"


def _extend(elements: List[CigarElement], length: int, op: str) -> None:
    """Append a ``length``-long ``op`` element, or lengthen the last one if
    it has the same op (a canonical CIGAR has no two adjacent alike)."""
    if elements and elements[-1].op == op:
        length += elements.pop().length
    elements.append(CigarElement(length, op))
