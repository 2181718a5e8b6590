"""The array MDGen kernel against the per-base ``MdBuilder`` walk.

``repro.gatk.sql_driver._mdgen`` builds every MD string of a partition
in one numpy pass.  The loop it replaced — one ``MdBuilder`` call per
joined base — is kept here as the reference, and both are held to
:func:`repro.gatk.metadata.compute_read_metadata` wherever a READID
names exactly one read.  Inputs are free-form CIGARs over M/I/D/S
(leading, trailing and adjacent deletions, ``D I D``, all-insertion and
all-clip reads) whose exploded rows are interleaved between reads and,
in half the cases, folded onto shared READIDs; the ``Joined`` table is
materialised by the real metadata script on both backends.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.gatk.metadata import MdBuilder, compute_read_metadata
from repro.gatk.sql_driver import METADATA_SCRIPT, _mdgen
from repro.genomics.cigar import Cigar
from repro.genomics.read import AlignedRead
from repro.genomics.reference import Chromosome, ReferenceGenome
from repro.genomics.sequences import encode_sequence
from repro.sql.backends import EXPLODED_READS_SCHEMA
from repro.sql.executor import Executor
from repro.tables.genomic_tables import reads_to_table
from repro.tables.partition import reference_row_table
from repro.tables.table import Table

BACKENDS = ["reference", "fast"]

#: Where the REF row starts: positions in the join are absolute.
REF_START = 1000


def mdgen_per_base(joined: Table) -> Dict[int, str]:
    """The reference: one ``MdBuilder`` per READID, one call per base."""
    builders: Dict[int, MdBuilder] = {}
    for row in joined.rows():
        builder = builders.setdefault(int(row["READID"]), MdBuilder())
        if int(row["OP"]) == 0:
            if int(row["SEQ"]) + 1 == int(row["REFP"]):
                builder.match()
            else:
                builder.mismatch(int(row["REFP"]) - 1)
        elif int(row["OP"]) == 2:
            builder.deletion(int(row["REFP"]) - 1)
    return {read_id: b.finish() for read_id, b in builders.items()}


def run_metadata_script(backend: str, bases: Table, ref: np.ndarray):
    """(MDGen output, Joined table) of the metadata script over ``bases``
    and a REF row holding ``ref`` from ``REF_START`` on."""
    executor = Executor(backend=backend)
    executor.register_table("Bases", bases)
    executor.register_table("ReferenceRow", reference_row_table({
        "CHR": 1, "REFPOS": REF_START, "SEQ": ref,
        "IS_SNP": np.zeros(len(ref), dtype=bool),
    }))
    md_out: Dict[int, str] = {}
    executor.register_custom_module(
        "MDGen", lambda ex, **_bindings: _mdgen(ex, md_out)
    )
    executor.execute(METADATA_SCRIPT)
    return md_out, executor.tables["Joined"]


@st.composite
def free_cigars(draw):
    """Any sequence of M/I/D/S elements, repeats and odd ends included."""
    pairs = draw(st.lists(
        st.tuples(st.integers(1, 5), st.sampled_from("MMMIDDS")),
        min_size=1, max_size=7,
    ))
    return Cigar.from_pairs(pairs)


@st.composite
def joined_streams(draw):
    """Reads on one REF row, their READID labels and a row order that
    keeps each read's bases in sequence but interleaves the reads."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    cigars = draw(st.lists(free_cigars(), min_size=1, max_size=6))
    span = max(c.reference_length() for c in cigars) + 12
    # N (code 4) in the reference makes mismatches that emit "N".
    ref = rng.choice(5, size=span, p=[0.24, 0.24, 0.24, 0.24, 0.04])
    ref = ref.astype(np.uint8)
    reads = []
    for index, cigar in enumerate(cigars):
        pos = REF_START + int(rng.integers(0, 12))
        seq = rng.integers(0, 4, cigar.read_length()).astype(np.uint8)
        for op, ref_pos, read_index in cigar.walk(pos):
            if op == "M" and rng.random() < 0.8:
                seq[read_index] = ref[ref_pos - REF_START]
        reads.append(AlignedRead(
            name=f"r{index}", chrom=1, pos=pos, cigar=cigar, seq=seq,
            qual=rng.integers(2, 42, len(seq)).astype(np.uint8),
        ))
    # Distinct labels in an order np.unique would not keep, or labels
    # drawn with replacement so several reads share one READID.
    if draw(st.booleans()):
        labels = [int(x) for x in rng.integers(0, 3, len(reads))]
    else:
        labels = [50 - 7 * i for i in range(len(reads))]
    cuts = draw(st.lists(st.integers(0, 40), max_size=8))
    turn = draw(st.randoms(use_true_random=False))
    return reads, ref, labels, cuts, turn


def interleaved_bases(backend, reads, labels, cuts, turn) -> Table:
    """EXPLODED rows of ``reads``, relabelled, cut into runs at ``cuts``
    and dealt out in a random order that preserves each read's own."""
    exploded = Executor(backend=backend).explode_reads(
        reads_to_table(reads), read_length=8
    )
    read_ids = np.asarray(exploded.column("READID"), dtype=np.int64)
    chunks: List[List[np.ndarray]] = []
    for rowid in range(len(reads)):
        rows = np.flatnonzero(read_ids == rowid)
        points = sorted({c for c in cuts if 0 < c < len(rows)})
        chunks.append([c for c in np.split(rows, points) if len(c)])
    deal = [r for r, parts in enumerate(chunks) for _ in parts]
    turn.shuffle(deal)
    order = [chunks[r].pop(0) for r in deal]
    rows = np.concatenate(order) if order else np.zeros(0, dtype=np.int64)
    columns = {
        name: np.asarray(exploded.column(name))[rows]
        for name in EXPLODED_READS_SCHEMA.names
    }
    columns["READID"] = np.asarray(labels, dtype=np.int64)[read_ids[rows]]
    return Table.from_columns(EXPLODED_READS_SCHEMA, **columns)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(stream=joined_streams())
def test_array_mdgen_matches_per_base_walk_and_oracle(backend, stream):
    reads, ref, labels, cuts, turn = stream
    bases = interleaved_bases(backend, reads, labels, cuts, turn)
    got, joined = run_metadata_script(backend, bases, ref)

    expected = mdgen_per_base(joined)
    assert list(got.items()) == list(expected.items())  # values and order

    if len(set(labels)) == len(labels):
        genome = ReferenceGenome([Chromosome(
            1,
            np.concatenate([np.zeros(REF_START, dtype=np.uint8), ref]),
            np.zeros(REF_START + len(ref), dtype=bool),
        )])
        for read, label in zip(reads, labels):
            oracle = compute_read_metadata(read, genome).md
            # A read that is all soft clip has no joined base and no
            # entry; the driver's default for it is the oracle's "0".
            assert got.get(label, "0") == oracle, str(read.cigar)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cigar, seq, expected", [
    ("2D3M", "GTA", "0^AC3"),            # leading deletion
    ("3M2D", "ACG", "3^TA0"),            # trailing deletion
    ("2M1D1D2M", "ACAC", "2^GT2"),       # adjacent D elements share one ^
    ("2M1D1I1D2M", "ACTAC", "2^GT2"),    # D I D shares one ^ too
    ("4I", "ACGT", "0"),                 # no M base at all
    ("2M1D1M", "ACA", "2^G0T0"),         # mismatch right after a deletion
])
def test_array_mdgen_on_the_named_shapes(backend, cigar, seq, expected):
    ref = encode_sequence("ACGTACGTAC")
    read = AlignedRead(
        name="r", chrom=1, pos=REF_START, cigar=Cigar.parse(cigar),
        seq=encode_sequence(seq),
        qual=np.full(len(seq), 30, dtype=np.uint8),
    )
    bases = Executor(backend=backend).explode_reads(
        reads_to_table([read]), read_length=8
    )
    got, joined = run_metadata_script(backend, bases, ref)
    assert got == {0: expected} == mdgen_per_base(joined)


@pytest.mark.parametrize("backend", BACKENDS)
def test_array_mdgen_on_an_empty_joined_table(backend):
    ref = np.zeros(8, dtype=np.uint8)
    got, joined = run_metadata_script(
        backend, Table.empty(EXPLODED_READS_SCHEMA), ref
    )
    assert joined.num_rows == 0
    assert got == {}
