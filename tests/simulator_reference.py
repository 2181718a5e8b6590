"""The read simulator's per-base walk, kept as the reference for its array
form (``repro.genomics.simulator.ReadSimulator``).

:class:`WalkSimulator` is the simulator as it stood before the array form
replaced its read-level steps: one ``Generator.random()`` call per draw of
the aligned body, the chromosome weights rebuilt and the quality decay ramp
recomputed for every read.  Tests hold the array form to it bit for bit —
reads, pairs and the generator's final state.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.genomics.cigar import Cigar, CigarElement
from repro.genomics.read import FLAG_REVERSE, AlignedRead
from repro.genomics.simulator import ReadSimulator


class WalkSimulator(ReadSimulator):
    """``ReadSimulator`` with its read-level steps taken one draw at a time."""

    def _read_at(
        self, chrom: int, start: int, name: str, read_group: int, reverse: bool
    ) -> AlignedRead:
        config = self.config
        rng = self._rng
        ref = self.genome[chrom].seq

        front_clip = 0
        back_clip = 0
        if rng.random() < config.soft_clip_rate:
            front_clip = int(rng.integers(1, config.max_soft_clip + 1))
        if rng.random() < config.soft_clip_rate:
            back_clip = int(rng.integers(1, config.max_soft_clip + 1))
        front_clip = min(front_clip, config.read_length - 1)
        back_clip = min(back_clip, config.read_length - 1 - front_clip)

        body_len = config.read_length - front_clip - back_clip
        seq: List[int] = []
        elements: List[CigarElement] = []

        if front_clip:
            elements.append(CigarElement(front_clip, "S"))
            seq.extend(int(b) for b in rng.integers(0, 4, size=front_clip))

        ref_pos = start
        emitted = 0
        run_m = 0
        while emitted < body_len and ref_pos < len(ref) - config.max_indel_length:
            draw = rng.random()
            if draw < config.insertion_rate and emitted > 0 and emitted < body_len - 1:
                if run_m:
                    elements.append(CigarElement(run_m, "M"))
                    run_m = 0
                ins_len = min(
                    int(rng.integers(1, config.max_indel_length + 1)),
                    body_len - emitted - 1,
                )
                _extend(elements, ins_len, "I")
                seq.extend(int(b) for b in rng.integers(0, 4, size=ins_len))
                emitted += ins_len
            elif draw < config.insertion_rate + config.deletion_rate and emitted > 0:
                if run_m:
                    elements.append(CigarElement(run_m, "M"))
                    run_m = 0
                del_len = int(rng.integers(1, config.max_indel_length + 1))
                _extend(elements, del_len, "D")
                ref_pos += del_len
            else:
                base = int(ref[ref_pos])
                if rng.random() < config.substitution_rate:
                    base = (base + int(rng.integers(1, 4))) % 4
                seq.append(base)
                ref_pos += 1
                emitted += 1
                run_m += 1
        if run_m:
            elements.append(CigarElement(run_m, "M"))

        if back_clip:
            elements.append(CigarElement(back_clip, "S"))
            seq.extend(int(b) for b in rng.integers(0, 4, size=back_clip))

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

    def _draw_qualities(self, length: int, read_group: int) -> np.ndarray:
        config = self.config
        cycle_decay = np.linspace(0, 6, num=length)
        noise = self._rng.integers(
            -config.quality_spread, config.quality_spread + 1, size=length
        )
        lane = self._lane_bias[read_group % len(self._lane_bias)]
        scores = config.base_quality - cycle_decay + noise + lane
        return np.clip(np.round(scores), 2, 41).astype(np.uint8)

    def _pick_chrom(self, chrom: Optional[int]) -> int:
        if chrom is not None:
            if chrom not in self.genome:
                raise KeyError(f"no chromosome {chrom} in genome")
            return chrom
        chroms = self.genome.chromosomes
        lengths = np.array([self.genome.length(c) for c in chroms], dtype=float)
        return int(self._rng.choice(chroms, p=lengths / lengths.sum()))


def _extend(elements: List[CigarElement], length: int, op: str) -> None:
    """Append ``op``, or lengthen the last element if it is the same op."""
    if elements and elements[-1].op == op:
        length += elements.pop().length
    elements.append(CigarElement(length, op))
