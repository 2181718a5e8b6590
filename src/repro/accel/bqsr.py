"""Genesis BQSR covariate-table-construction accelerator (Figure 12).

One pipeline bins every aligned base of one (partition, read-group) slice
and counts observations and errors per bin:

* READS memory readers (POS, ENDPOS, CIGAR, SEQ, QUAL) plus a per-read
  header stream (strand, stored length) for BinIDGen; REF.SEQ and
  REF.IS_SNP are loaded into the reference SPM (each word holds the
  ``(base, is_snp)`` pair);
* ReadToBases (clips emitted so the context covariate sees them) feeds
  BinIDGen, which attaches the two bin IDs ``b1``/``b2`` to aligned bases
  and drops everything else;
* an inner Joiner keyed on position merges the binned bases with the SPM's
  reference records; the ``!IS_SNP`` Filter drops known-variation sites;
* the filtered stream forks into the TotalCount SPM updaters (cycle and
  context tables) and cascades through the mismatch Filter into the
  ErrorCount SPM updaters — four read-modify-write scratchpads with the
  RAW-hazard interlock, exactly the Figure 12 topology (small ``b2 >= 0``
  guards protect the context tables from first-base flits that have no
  dinucleotide context);
* a drain phase streams all four SPMs back to memory through SPM Readers
  in drain mode and Memory Writers.

The host merges per-partition results into per-read-group
:class:`repro.gatk.bqsr.CovariateTables` and runs the quality-score update
sub-stage in software, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..gatk.bqsr import MAX_QUALITY, N_CONTEXTS, CovariateTables, n_cycle_values
from ..genomics.read import FLAG_REVERSE
from ..hw.engine import DEFAULT_MODE, Engine, RunStats
from ..hw.flit import Stream
from ..hw.memory import MemoryConfig, MemorySystem
from ..hw.modules import (
    BinIdGen,
    Filter,
    Fork,
    MemoryWriter,
    SpmReader,
    SpmUpdater,
)
from ..hw.pipeline import Pipeline
from ..hw.spm import Scratchpad
from ..tables.partition import PartitionedReference, PartitionId
from ..tables.table import Table
from .common import (
    PHASES,
    AcceleratorRun,
    feed_read_streams,
    join_reads_to_reference,
    solo_reference,
)
from .scheduler import WaveDriver


def _not_snp(flit) -> bool:
    return not flit["ref"][1]


def _is_error(flit) -> bool:
    return int(flit["base"]) != int(flit["ref"][0])


def _has_context(flit) -> bool:
    return flit["b2"] >= 0


@dataclass
class BqsrSpms:
    """The four count scratchpads of Figure 12."""

    total_cycle: Scratchpad
    total_context: Scratchpad
    error_cycle: Scratchpad
    error_context: Scratchpad

    @classmethod
    def allocate(cls, read_length: int) -> "BqsrSpms":
        n_b1 = MAX_QUALITY * n_cycle_values(read_length)
        n_b2 = MAX_QUALITY * N_CONTEXTS
        return cls(
            total_cycle=Scratchpad("total_cycle", n_b1),
            total_context=Scratchpad("total_context", n_b2),
            error_cycle=Scratchpad("error_cycle", n_b1),
            error_context=Scratchpad("error_context", n_b2),
        )

    def all(self) -> List[Scratchpad]:
        """The four scratchpads in drain order."""
        return [
            self.total_cycle,
            self.total_context,
            self.error_cycle,
            self.error_context,
        ]


def build_bqsr_pipeline(
    engine: Engine,
    name: str,
    ref_spm: Scratchpad,
    base: int,
    spms: BqsrSpms,
    read_length: int,
) -> Pipeline:
    """Wire one Figure 12 pipeline replica into ``engine``."""
    pipe = Pipeline(name, engine)
    joiner = join_reads_to_reference(
        pipe, ref_spm, base, "inner", with_qual=True, emit_clips=True,
        readers=[("meta", 4)],
        between=[BinIdGen(f"{name}.binid", read_length=read_length)],
    )
    snp_filter = pipe.add(Filter(f"{name}.snp", field="ref", predicate=_not_snp))
    total_fork = pipe.add(Fork(f"{name}.totalfork", ports=3))
    ctx_guard_total = pipe.add(Filter(f"{name}.ctxg1", field="b2", predicate=_has_context))
    error_filter = pipe.add(Filter(f"{name}.err", field="base", predicate=_is_error))
    error_fork = pipe.add(Fork(f"{name}.errfork", ports=2))
    ctx_guard_error = pipe.add(Filter(f"{name}.ctxg2", field="b2", predicate=_has_context))
    upd_total_cycle = pipe.add(
        SpmUpdater(f"{name}.utc", spms.total_cycle, mode="rmw", addr_field="b1")
    )
    upd_total_ctx = pipe.add(
        SpmUpdater(f"{name}.utx", spms.total_context, mode="rmw", addr_field="b2")
    )
    upd_error_cycle = pipe.add(
        SpmUpdater(f"{name}.uec", spms.error_cycle, mode="rmw", addr_field="b1")
    )
    upd_error_ctx = pipe.add(
        SpmUpdater(f"{name}.uex", spms.error_context, mode="rmw", addr_field="b2")
    )

    engine.connect(joiner, snp_filter)
    engine.connect(snp_filter, total_fork)
    engine.connect(total_fork, upd_total_cycle, out_port="out0")
    engine.connect(total_fork, ctx_guard_total, out_port="out1")
    engine.connect(ctx_guard_total, upd_total_ctx)
    engine.connect(total_fork, error_filter, out_port="out2")
    engine.connect(error_filter, error_fork)
    engine.connect(error_fork, upd_error_cycle, out_port="out0")
    engine.connect(error_fork, ctx_guard_error, out_port="out1")
    engine.connect(ctx_guard_error, upd_error_ctx)
    return pipe


def _simulate_drain(
    sizes: Tuple[int, ...], memory_config: MemoryConfig, mode: str
) -> RunStats:
    """Simulate SPM Reader (drain mode) -> Memory Writer tails over
    scratchpads of the given sizes."""
    engine = Engine(MemorySystem(memory_config))
    for index, size in enumerate(sizes):
        reader = engine.add_module(
            SpmReader(
                f"drain{index}", Scratchpad(f"drain{index}", size),
                mode="drain", out_field="value",
            )
        )
        writer = engine.add_module(
            MemoryWriter(f"drainw{index}", engine.memory, elem_size=4)
        )
        engine.connect(reader, writer)
    return engine.run(mode=mode)


def drain_spms(
    spms: BqsrSpms,
    memory_config: Optional[MemoryConfig] = None,
    mode: Optional[str] = None,
) -> RunStats:
    """The drain phase: stream all four SPMs to memory (Figure 12's SPM
    Reader -> Memory Writer tails).  Returns the drain cycle statistics:
    a fresh copy of the one engine run made for this ``(SPM sizes,
    memory config, engine mode)`` shape — ``mode`` is the wave's,
    ``None`` the engine's default — with every word counted as read
    once."""
    scratchpads = spms.all()
    for spm in scratchpads:
        spm.reads += len(spm)
    return PHASES.replay(
        _simulate_drain,
        tuple(len(spm) for spm in scratchpads),
        memory_config or MemoryConfig(),
        mode or DEFAULT_MODE,
    )


@dataclass
class BqsrAccelResult:
    """One partition's covariate counts plus simulation statistics.

    ``run`` is ``None`` for partitions the scheduler never simulated
    (empty partitions contribute all-zero count tables).
    """

    total_cycle: np.ndarray
    total_context: np.ndarray
    error_cycle: np.ndarray
    error_context: np.ndarray
    run: Optional[AcceleratorRun]
    drain_stats: Optional[RunStats] = None
    hazard_stalls: int = 0


@dataclass
class BqsrWaveDriver(WaveDriver):
    """Waves of Figure 12 covariate-construction replicas.

    Each replica owns its four count scratchpads; the reference SPM is
    loaded with ``(base, is_snp)`` words.  Read-group slices of the same
    genome segment share one REF row, so a wave over group partitions
    hits the SPM cache within a single run.
    """

    reference: PartitionedReference
    read_length: int
    memory_config: Optional[MemoryConfig] = None
    mode: Optional[str] = None
    drain: bool = True

    stage = "bqsr"
    solo = "bq"
    uses_reference = True
    with_snp = True
    partitions = "group_partitions"
    timing = "bqsr_table"
    # the timing model extrapolates the binning kernel; the SPM drain
    # amortizes away at the paper's partition size
    kernel = {"drain": False}

    @classmethod
    def over(cls, workload, **fields) -> "BqsrWaveDriver":
        return cls(workload.reference, workload.read_length, **fields)

    def empty_result(self, pid: PartitionId) -> BqsrAccelResult:
        n_b1 = MAX_QUALITY * n_cycle_values(self.read_length)
        n_b2 = MAX_QUALITY * N_CONTEXTS
        return BqsrAccelResult(
            total_cycle=np.zeros(n_b1, dtype=np.int64),
            total_context=np.zeros(n_b2, dtype=np.int64),
            error_cycle=np.zeros(n_b1, dtype=np.int64),
            error_context=np.zeros(n_b2, dtype=np.int64),
            run=None,
        )

    def build_replica(self, engine, name, part, spm, base):
        spms = BqsrSpms.allocate(self.read_length)
        pipe = build_bqsr_pipeline(
            engine, name, spm, base, spms, self.read_length
        )
        feed_read_streams(pipe, part)
        # the per-read header BinIDGen takes: strand and stored length
        pipe.modules[f"{name}.meta"].set_stream(Stream(
            repeat(True, part.num_rows),
            {
                "reverse": [
                    bool(flags & FLAG_REVERSE)
                    for flags in part.column("FLAGS").tolist()
                ],
                "seqlen": [len(seq) for seq in part.column("SEQ")],
            },
            filled=repeat(True, part.num_rows),  # every header carries both
        ))
        return pipe, spms

    def harvest(self, context, run) -> BqsrAccelResult:
        """Drain the replica's count scratchpads (when ``drain`` is set),
        total the RAW-hazard stalls of its SPM Updaters, and read the
        four count tables back."""
        pipe, spms = context
        drain_stats = (
            drain_spms(spms, self.memory_config, self.mode)
            if self.drain else None
        )
        hazard_stalls = sum(
            module.hazard_stalls
            for module in pipe.modules.values()
            if isinstance(module, SpmUpdater)
        )
        return BqsrAccelResult(
            total_cycle=spms.total_cycle.to_array(),
            total_context=spms.total_context.to_array(),
            error_cycle=spms.error_cycle.to_array(),
            error_context=spms.error_context.to_array(),
            run=run,
            drain_stats=drain_stats,
            hazard_stalls=hazard_stalls,
        )


def run_bqsr_partition(
    partition: Table,
    ref_row: dict,
    read_length: int,
    memory_config: Optional[MemoryConfig] = None,
    drain: bool = True,
) -> BqsrAccelResult:
    """Simulate the Figure 12 pipeline on one partition slice."""
    driver = BqsrWaveDriver(
        solo_reference(ref_row), read_length, memory_config, drain=drain
    )
    return driver.run_one(partition)


def merge_partition_results(
    results_by_group: Dict[int, Sequence[BqsrAccelResult]],
    read_length: int,
) -> Dict[int, CovariateTables]:
    """Host-side merge: accumulate per-partition counts into one
    :class:`CovariateTables` per read group."""
    merged: Dict[int, CovariateTables] = {}
    for read_group, results in results_by_group.items():
        table = CovariateTables(read_length)
        for result in results:
            table.total_cycle += result.total_cycle
            table.error_cycle += result.error_cycle
            table.total_context += result.total_context
            table.error_context += result.error_context
        merged[read_group] = table
    return merged
