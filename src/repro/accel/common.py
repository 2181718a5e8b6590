"""Shared plumbing for the Genesis accelerator drivers.

Each accelerator driver (example query, mark duplicates, metadata update,
BQSR) turns a READS partition and its REF partition row into the column
streams the memory readers consume, builds the dataflow pipeline, runs the
cycle simulation, and post-processes the memory-writer contents into
host-visible results.  The read ⋈ reference front end, the stream framing
and the reference-SPM load phase are identical across drivers and live here.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..hw.engine import Engine, RunStats
from ..hw.memory import MemoryConfig, MemorySystem
from ..hw.module import Module
from ..hw.modules import (
    Fork,
    Joiner,
    MemoryReader,
    ReadToBases,
    SpmReader,
    SpmUpdater,
)
from ..hw.pipeline import Pipeline
from ..hw.spm import Scratchpad
from ..tables.partition import PartitionedReference, PartitionId
from ..tables.table import Table


def join_reads_to_reference(
    pipe: Pipeline,
    spm: Scratchpad,
    base: int,
    how: str,
    with_qual: bool = False,
    emit_clips: bool = False,
    readers: Sequence[Tuple[str, int]] = (),
    between: Sequence[Module] = (),
) -> Joiner:
    """Wire the front end every position-join accelerator opens with
    (Section III-D, Figure 7) into ``pipe`` and return its Joiner, whose
    output the caller wires its own tail to.

    Column Memory Readers ``<name>.pos`` / ``.endpos`` / ``.cigar`` /
    ``.seq`` (and ``.qual`` when ``with_qual``) feed ReadToBases; an
    interval SPM Reader streams each read's ``[POS, ENDPOS]`` slice of the
    REF partition held in ``spm`` (word 0 = genome position ``base``); a
    ``how`` (``inner`` / ``left``) Joiner keyed on position merges the two.
    ``between`` modules are spliced, in order, between ReadToBases and the
    Joiner; each ``(column, elem_size)`` of ``readers`` is one more Memory
    Reader ``<name>.<column>`` feeding input port ``<column>`` of the first
    of them.  :func:`feed_read_streams` loads the READS columns.
    """
    name, engine = pipe.name, pipe.engine
    exploded = [("cigar", 2), ("seq", 1)]
    if with_qual:
        exploded.append(("qual", 1))
    # creation order is memory-port order
    reader = {
        column: pipe.add(
            MemoryReader(f"{name}.{column}", engine.memory, elem_size=size)
        )
        for column, size in (("pos", 4), ("endpos", 4), *exploded, *readers)
    }
    pos_fork = pipe.add(Fork(f"{name}.posfork", ports=2))
    r2b = pipe.add(
        ReadToBases(f"{name}.r2b", with_qual=with_qual, emit_clips=emit_clips)
    )
    for module in between:
        pipe.add(module)
    spm_reader = pipe.add(
        SpmReader(
            f"{name}.spmread",
            spm,
            mode="interval",
            base_address=base,
            out_field="ref",
            addr_out_field="pos",
        )
    )
    joiner = pipe.add(
        Joiner(f"{name}.join", mode=how, key_a="pos", key_b="pos")
    )

    engine.connect(reader["pos"], pos_fork)
    engine.connect(pos_fork, r2b, out_port="out0", in_port="pos")
    engine.connect(pos_fork, spm_reader, out_port="out1", in_port="start")
    engine.connect(reader["endpos"], spm_reader, in_port="end")
    for column, _size in exploded:
        engine.connect(reader[column], r2b, in_port=column)
    bases: Module = r2b
    for module in between:
        engine.connect(bases, module)
        bases = module
    for column, _size in readers:
        engine.connect(reader[column], between[0], in_port=column)
    engine.connect(bases, joiner, in_port="a")
    engine.connect(spm_reader, joiner, in_port="b")
    return joiner


def as_ints(values) -> list:
    """``[int(v) for v in values]``, at C speed for an integer array."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.tolist()
    return [int(value) for value in values]


def feed_read_streams(pipe: Pipeline, partition: Table) -> None:
    """Load one READS partition's column streams into the pipeline's
    memory readers — ``<name>.pos`` / ``.endpos`` / ``.cigar`` / ``.seq``,
    and ``.qual`` where the pipeline has one.  Every element streams as
    a Python int: each module that reads one takes its ``int()``."""
    readers = pipe.modules
    name = pipe.name
    readers[f"{name}.pos"].set_scalars(as_ints(partition.column("POS")))
    readers[f"{name}.endpos"].set_scalars(as_ints(partition.column("ENDPOS")))
    for column in ("CIGAR", "SEQ", "QUAL"):
        reader = f"{name}.{column.lower()}"
        if column != "QUAL" or reader in readers:
            readers[reader].set_items(
                [as_ints(row) for row in partition.column(column)]
            )


#: Distinct phase shapes the memo remembers (a run sees a handful: one
#: per REF row length / SPM geometry).
PHASE_MEMO_SIZE = 64


class PhaseMemo:
    """Recorded statistics of the data-independent streaming phases (the
    reference-SPM load and the BQSR SPM drain), keyed by shape.

    A phase moves one flit per word whatever the word holds, so its
    :class:`~repro.hw.engine.RunStats` are a pure function of its shape
    key — ``(phase, sizes, memory config, engine mode)`` — and each
    shape needs the engine once per process.  The memo holds
    :data:`PHASE_MEMO_SIZE` shapes (least recently replayed evicted
    first) and every hand-out is a copy, so no two callers share a
    mutable dict.  Nothing crosses a process boundary: each pool worker
    records a shape the first time one of its waves needs it and, being
    kept from run to run (:func:`repro.accel.scheduler.wave_pool`),
    keeps its recordings for every later run.
    """

    def __init__(self):
        self._phases: "OrderedDict[tuple, RunStats]" = OrderedDict()
        #: Replays answered from a recording / shapes simulated here.
        self.hits = 0
        self.misses = 0

    def replay(self, simulate: Callable[..., RunStats], *shape) -> RunStats:
        """A fresh copy of the statistics of phase ``simulate`` at
        ``shape``, running ``simulate(*shape)`` first when no recording
        of that shape is held."""
        key = (simulate.__name__,) + shape
        stats = self._phases.get(key)
        if stats is None:
            self.misses += 1
            stats = self._phases[key] = simulate(*shape)
            while len(self._phases) > PHASE_MEMO_SIZE:
                self._phases.popitem(last=False)
        else:
            self.hits += 1
            self._phases.move_to_end(key)
        return stats.copy()

    def clear(self) -> None:
        """Forget every recording and zero the counters."""
        self._phases.clear()
        self.hits = self.misses = 0

    def __len__(self) -> int:
        return len(self._phases)


#: The process's phase memo.
PHASES = PhaseMemo()


def _simulate_reference_load(
    n_words: int, elem_size: int, memory_config: MemoryConfig, mode: str
) -> RunStats:
    """Simulate the Memory Reader -> sequential SPM Updater load of
    ``n_words`` words."""
    engine = Engine(MemorySystem(memory_config))
    spm = Scratchpad("ref_spm", n_words)
    reader = engine.add_module(
        MemoryReader("ref_reader", engine.memory, elem_size=elem_size)
    )
    updater = engine.add_module(SpmUpdater("ref_updater", spm, mode="sequential"))
    engine.connect(reader, updater)
    reader.set_items([[0] * n_words])
    return engine.run(mode=mode)


#: Every ``(base, is_snp)`` word of a BQSR reference SPM, at index
#: ``base * 2 + is_snp``: a load picks its words from here instead of
#: building a tuple per word, which every load — cache hit or miss —
#: would otherwise pay for.
_SNP_WORDS = np.empty(512, dtype=object)
for _code in range(512):
    _SNP_WORDS[_code] = (_code >> 1, bool(_code & 1))


def load_reference_spm(
    ref_row: dict,
    memory_config: Optional[MemoryConfig] = None,
    with_snp: bool = False,
) -> Tuple[Scratchpad, RunStats]:
    """Phase 1 of every reference-using accelerator: stream the REF
    partition row from memory into an on-chip SPM through a Memory Reader
    and a sequential-mode SPM Updater, and account its cycles.

    Each SPM word holds the reference base (and, when ``with_snp`` is set,
    the ``(base, is_snp)`` pair the BQSR pipeline needs).

    The returned statistics are a fresh copy of the one engine run made
    for this ``(word count, element size, memory config)`` shape; the
    scratchpad is filled from the row directly, one counted write per
    word as the updater performs.
    """
    seq = np.asarray(ref_row["SEQ"])
    elem_size = 1
    if with_snp:
        snp = np.asarray(ref_row["IS_SNP"], dtype=bool)
        words: Sequence[object] = _SNP_WORDS[seq.astype(np.intp) * 2 + snp].tolist()
    else:
        words = seq.tolist()

    spm = Scratchpad("ref_spm", len(words))
    spm.load(words)
    return spm, PHASES.replay(
        _simulate_reference_load, len(words), elem_size,
        memory_config or MemoryConfig(), Engine.default_mode,
    )


@dataclass
class AcceleratorRun:
    """Result of simulating one accelerator invocation on one partition:
    the statistics of the engine run its replica was part of, of its
    reference-SPM load, and the words its SPM Reader took from that SPM
    (picklable — a pool worker ships it back)."""

    stats: RunStats
    load_stats: Optional[RunStats] = None
    ref_spm_reads: int = 0

    @property
    def total_cycles(self) -> int:
        """Compute cycles including the SPM load phase."""
        cycles = self.stats.cycles
        if self.load_stats is not None:
            cycles += self.load_stats.cycles
        return cycles


def spm_base(ref_row: dict) -> int:
    """The genome coordinate of SPM word 0 for a REF partition row."""
    return int(ref_row["REFPOS"])


#: The partition id of a serial run's one partition.
SOLO = PartitionId(0, 0)


def solo_reference(ref_row: dict) -> PartitionedReference:
    """The one-row reference a serial runner hands its driver: ``ref_row``
    serves :data:`SOLO`."""
    return PartitionedReference(0, 0, {(SOLO.chrom, SOLO.segment): ref_row})
