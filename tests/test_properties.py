"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gatk.metadata import recover_reference
from repro.genomics.cigar import Cigar, CigarElement, decode_elements, encode_elements
from repro.genomics.read import AlignedRead
from repro.genomics.reference import Chromosome, ReferenceGenome
from repro.genomics.sequences import (
    decode_sequence,
    encode_sequence,
    reverse_complement,
)
from repro.hw.flit import item_flits, split_items
from repro.tables.genomic_tables import reads_to_table, table_to_reads
from repro.tables.partition import partition_reads

# -- strategies ---------------------------------------------------------------

base_strings = st.text(alphabet="ACGT", min_size=0, max_size=80)


@st.composite
def cigars(draw, max_elements=6):
    """Canonical CIGARs: optional clips at the ends, alternating ops,
    starting and ending the body with M."""
    body_ops = []
    n = draw(st.integers(1, max_elements))
    previous = None
    for i in range(n):
        choices = [op for op in "MID" if op != previous]
        if i == 0 or i == n - 1:
            choices = ["M"]
            if previous == "M":
                break
        op = draw(st.sampled_from(choices))
        body_ops.append(op)
        previous = op
    elements = []
    if draw(st.booleans()):
        elements.append(CigarElement(draw(st.integers(1, 5)), "S"))
    for op in body_ops:
        elements.append(CigarElement(draw(st.integers(1, 10)), op))
    if draw(st.booleans()):
        elements.append(CigarElement(draw(st.integers(1, 5)), "S"))
    return Cigar(elements)


@st.composite
def reads_with_genomes(draw):
    cigar = draw(cigars())
    read_len = cigar.read_length()
    ref_len = cigar.reference_length()
    pos = draw(st.integers(0, 50))
    genome_len = pos + ref_len + 10
    rng_seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(rng_seed)
    genome = ReferenceGenome([
        Chromosome(1, rng.integers(0, 4, genome_len).astype(np.uint8),
                   np.zeros(genome_len, dtype=bool))
    ])
    read = AlignedRead(
        name="p",
        chrom=1,
        pos=pos,
        cigar=cigar,
        seq=rng.integers(0, 4, read_len).astype(np.uint8),
        qual=rng.integers(2, 42, read_len).astype(np.uint8),
        flags=0,
    )
    return read, genome


# -- sequence properties ---------------------------------------------------------


@given(base_strings)
def test_sequence_roundtrip(text):
    assert decode_sequence(encode_sequence(text)) == text


@given(base_strings)
def test_reverse_complement_involution(text):
    seq = encode_sequence(text)
    assert np.array_equal(reverse_complement(reverse_complement(seq)), seq)


# -- CIGAR properties ---------------------------------------------------------------


@given(cigars())
def test_cigar_string_roundtrip(cigar):
    assert Cigar.parse(str(cigar)) == cigar


@given(cigars())
def test_cigar_encode_roundtrip(cigar):
    assert decode_elements(encode_elements(cigar)) == cigar


@given(cigars(), st.integers(0, 1000))
def test_walk_consumes_exactly_read_and_ref(cigar, pos):
    steps = list(cigar.walk(pos))
    read_consumed = sum(1 for op, _, _ in steps if op in ("M", "I"))
    ref_consumed = sum(1 for op, _, _ in steps if op in ("M", "D"))
    clip = cigar.leading_soft_clip() + cigar.trailing_soft_clip()
    assert read_consumed == cigar.read_length() - clip
    assert ref_consumed == cigar.reference_length()
    ref_positions = [p for op, p, _ in steps if op != "I"]
    assert ref_positions == list(range(pos, pos + ref_consumed))


# -- MD-tag property -----------------------------------------------------------------


@given(reads_with_genomes())
@settings(max_examples=60)
def test_md_recovers_reference_property(read_and_genome):
    """For ANY read/reference, the MD tag reconstructs the aligned
    reference bases (Section IV-C)."""
    read, genome = read_and_genome
    from repro.gatk.metadata import compute_read_metadata

    meta = compute_read_metadata(read, genome)
    recovered = recover_reference(read, meta.md)
    expected = "".join(
        decode_sequence([genome[1].seq[p]])
        for op, p, _ in read.cigar.walk(read.pos)
        if op in ("M", "D")
    )
    assert recovered == expected


@given(reads_with_genomes())
@settings(max_examples=60)
def test_nm_bounds_property(read_and_genome):
    """0 <= NM <= aligned+inserted+deleted bases; UQ <= quality sum."""
    read, genome = read_and_genome
    from repro.gatk.metadata import compute_read_metadata

    meta = compute_read_metadata(read, genome)
    max_nm = sum(e.length for e in read.cigar if e.op in "MID")
    assert 0 <= meta.nm <= max_nm
    assert 0 <= meta.uq <= read.quality_sum()


# -- tables properties ------------------------------------------------------------------


@given(st.lists(reads_with_genomes(), min_size=1, max_size=6))
@settings(max_examples=30)
def test_reads_table_roundtrip_property(pairs):
    reads = [read for read, _ in pairs]
    back = table_to_reads(reads_to_table(reads))
    for original, roundtrip in zip(reads, back):
        assert roundtrip.pos == original.pos
        assert roundtrip.cigar == original.cigar
        assert np.array_equal(roundtrip.seq, original.seq)


@given(st.lists(reads_with_genomes(), min_size=1, max_size=8),
       st.integers(10, 200))
@settings(max_examples=30)
def test_partitioning_complete_and_disjoint_property(pairs, psize):
    reads = [read for read, _ in pairs]
    table = reads_to_table(reads)
    parts = partition_reads(table, psize)
    rowids = []
    for pid, part in parts:
        rowids.extend(part.column("ROWID").tolist())
        for pos in part.column("POS").tolist():
            assert pos // psize == pid.segment
    assert sorted(rowids) == list(range(len(reads)))


# -- flit framing property ---------------------------------------------------------------


@given(st.lists(st.lists(st.integers(0, 100), max_size=10), min_size=1, max_size=8))
def test_item_framing_roundtrip(items):
    flits = [flit for item in items for flit in item_flits(item)]
    groups = split_items(flits)
    recovered = [
        [flit["value"] for flit in group if "value" in flit]
        for group in groups
    ]
    assert recovered == items


# -- hardware-vs-software property -----------------------------------------------------------


@given(st.lists(st.lists(st.integers(0, 60), max_size=20), min_size=1, max_size=6))
@settings(max_examples=20, deadline=None)
def test_quality_sum_pipeline_property(quals):
    """The Figure 10 pipeline equals a plain software sum for any input."""
    from repro.accel.markdup import run_quality_sums

    result = run_quality_sums(quals)
    assert result.quality_sums == [sum(item) for item in quals]


# -- joiner vs merge-join oracle -----------------------------------------------------


@st.composite
def keyed_items(draw, max_items=4, max_keys=5):
    """Per-item sorted key/value streams for both joiner sides.  Merge
    joins require strictly increasing keys within an item, so keys are
    drawn as sets and sorted."""
    n = draw(st.integers(1, max_items))
    items = []
    for _ in range(n):
        sides = []
        for _side in ("a", "b"):
            keys = sorted(draw(st.sets(st.integers(0, 12), max_size=max_keys)))
            sides.append([(k, draw(st.integers(0, 99))) for k in keys])
        items.append(tuple(sides))
    return items


def _join_oracle(a_item, b_item, mode):
    """Two-pointer sorted merge join over one item, per join mode."""
    out = []
    i = j = 0
    while i < len(a_item) and j < len(b_item):
        (ka, va), (kb, vb) = a_item[i], b_item[j]
        if ka == kb:
            out.append({"key": ka, "av": va, "bv": vb})
            i += 1
            j += 1
        elif ka < kb:
            if mode in ("left", "outer"):
                out.append({"key": ka, "av": va})
            i += 1
        else:
            if mode == "outer":
                out.append({"key": kb, "bv": vb})
            j += 1
    for ka, va in a_item[i:]:
        if mode in ("left", "outer"):
            out.append({"key": ka, "av": va})
    for kb, vb in b_item[j:]:
        if mode == "outer":
            out.append({"key": kb, "bv": vb})
    return out


def _side_flits(item, value_field):
    from repro.hw.flit import Flit

    if not item:
        return [Flit({}, last=True)]
    flits = [Flit({"key": k, value_field: v}) for k, v in item]
    flits[-1].last = True
    return flits


def _grouped_fields(flits):
    """Group output flits into items of field dicts using the last bits."""
    items, current = [], []
    for flit in flits:
        if flit.fields:
            current.append(dict(flit.fields))
        if flit.last:
            items.append(current)
            current = []
    return items


@given(keyed_items(), st.sampled_from(["inner", "left", "outer"]))
@settings(max_examples=40, deadline=None)
def test_joiner_matches_merge_join_oracle(items, mode):
    """The hardware Joiner equals a software two-pointer merge join for
    every mode, on any sorted keyed streams (including empty items)."""
    from repro.hw.modules import Joiner

    from hw_harness import drive

    flits_a = [f for a_item, _ in items for f in _side_flits(a_item, "av")]
    flits_b = [f for _, b_item in items for f in _side_flits(b_item, "bv")]
    joiner = Joiner("join", mode=mode)
    outputs, _stats = drive(joiner, {"a": flits_a, "b": flits_b})
    got = _grouped_fields(outputs["out"])
    want = [_join_oracle(a_item, b_item, mode) for a_item, b_item in items]
    assert got == want


@given(keyed_items(max_items=3))
@settings(max_examples=25, deadline=None)
def test_joiner_inner_discards_every_unmatched_flit(items):
    """Inner joins account for every input flit: matched pairs come out
    merged, everything else lands in ``discarded`` (boundary flits of a
    finished side are drained into it too)."""
    from repro.hw.modules import Joiner

    from hw_harness import drive

    flits_a = [f for a_item, _ in items for f in _side_flits(a_item, "av")]
    flits_b = [f for _, b_item in items for f in _side_flits(b_item, "bv")]
    joiner = Joiner("join", mode="inner")
    outputs, _stats = drive(joiner, {"a": flits_a, "b": flits_b})
    matched = sum(len(flit.fields) > 0 for flit in outputs["out"])
    assert matched == sum(
        len(_join_oracle(a, b, "inner")) for a, b in items
    )
    # every unmatched data flit is discarded; drained boundary flits may
    # add at most two more per item
    unmatched = sum(len(a) + len(b) for a, b in items) - 2 * matched
    assert unmatched <= joiner.discarded <= unmatched + 2 * len(items)


# -- reducer vs software oracle ------------------------------------------------------


@st.composite
def masked_items(draw, max_items=5, max_values=8):
    n = draw(st.integers(1, max_items))
    return [
        draw(
            st.lists(
                st.tuples(st.integers(-50, 50), st.booleans()),
                max_size=max_values,
            )
        )
        for _ in range(n)
    ]


def _reduce_oracle(values, op):
    if op == "sum":
        return sum(values)
    if op == "count":
        return len(values)
    if not values:  # max/min of an empty selection reduce to 0
        return 0
    return max(values) if op == "max" else min(values)


@given(masked_items(), st.sampled_from(["sum", "count", "max", "min"]),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_reducer_matches_software_oracle(items, op, use_mask):
    """The hardware Reducer equals the software reduction for every op,
    with and without a mask field, on any per-item value stream."""
    from repro.hw.flit import Flit
    from repro.hw.modules import Reducer

    from hw_harness import drive, items_of

    flits = []
    for item in items:
        if not item:
            flits.append(Flit({}, last=True))
            continue
        batch = [Flit({"value": v, "m": int(m)}) for v, m in item]
        batch[-1].last = True
        flits.extend(batch)
    reducer = Reducer("red", op=op, mask_field="m" if use_mask else None)
    outputs, _stats = drive(reducer, {"in": flits})
    got = [vals[0] for vals in items_of(outputs["out"])]
    want = []
    for item in items:
        selected = [v for v, m in item if m or not use_mask]
        want.append(_reduce_oracle(selected, op))
    assert got == want


# -- engine maxplus/dense equivalence ------------------------------------------------


@st.composite
def pipeline_specs(draw):
    """A randomly composed two/three-module pipeline: items for the
    source, a stack of one or two middle modules, and a queue capacity."""
    items = draw(
        st.lists(
            st.lists(st.integers(0, 50), max_size=6), min_size=1, max_size=4
        )
    )
    middles = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("reduce"),
                          st.sampled_from(["sum", "count", "max", "min"])),
                st.tuples(st.just("alu"), st.integers(-5, 5)),
                st.tuples(st.just("filter"), st.integers(0, 40)),
            ),
            min_size=0,
            max_size=2,
        )
    )
    capacity = draw(st.integers(1, 4))
    return items, middles, capacity


def _build_spec_pipeline(spec):
    from repro.hw.engine import Engine
    from repro.hw.modules import Filter, Reducer, StreamAlu

    from hw_harness import ListSink, ListSource

    items, middles, capacity = spec
    engine = Engine()
    flits = [flit for item in items for flit in item_flits(item)]
    chain = [engine.add_module(ListSource("src", flits))]
    for i, (kind, arg) in enumerate(middles):
        if kind == "reduce":
            module = Reducer(f"mid{i}", op=arg)
        elif kind == "alu":
            module = StreamAlu(f"mid{i}", "ADD", constant=arg)
        else:
            module = Filter(f"mid{i}", field="value", op=">=", constant=arg)
        chain.append(engine.add_module(module))
    sink = engine.add_module(ListSink("sink"))
    chain.append(sink)
    for upstream, downstream in zip(chain, chain[1:]):
        engine.connect(upstream, downstream, capacity=capacity)
    return engine, sink


@given(pipeline_specs())
@settings(max_examples=40, deadline=None)
def test_engine_modes_equivalent_on_random_pipelines(spec):
    """The max-plus solution and the dense (tick-everything) loop report
    identical cycle counts and identical outputs on any randomly composed
    pipeline — the core soundness claim of the fast path."""
    results = {}
    for mode in ("maxplus", "dense"):
        engine, sink = _build_spec_pipeline(spec)
        stats = engine.run(mode=mode)
        results[mode] = (
            stats.cycles,
            [(dict(flit.fields), flit.last) for flit in sink.collected],
        )
    assert results["maxplus"] == results["dense"]
