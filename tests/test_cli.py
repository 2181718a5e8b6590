"""Tests for the command-line interface."""

import functools
import io
import os
import pathlib
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main

DATA = pathlib.Path(__file__).parent / "data"


def test_parser_commands():
    parser = build_parser()
    args = parser.parse_args(["simulate", "--fasta", "a", "--sam", "b"])
    assert args.command == "simulate"
    args = parser.parse_args([
        "preprocess", "--fasta", "a", "--sam", "b", "--out", "c"
    ])
    assert args.command == "preprocess"


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_simulate_and_preprocess_and_call(tmp_path, capsys):
    fasta = tmp_path / "ref.fa"
    sam = tmp_path / "reads.sam"
    tagged = tmp_path / "tagged.sam"
    vcf = tmp_path / "calls.vcf"

    assert main([
        "simulate", "--fasta", str(fasta), "--sam", str(sam),
        "--reads", "80", "--read-length", "50", "--seed", "3",
        "--chromosomes", "21",
    ]) == 0
    assert fasta.exists() and sam.exists()

    assert main([
        "preprocess", "--fasta", str(fasta), "--sam", str(sam),
        "--out", str(tagged), "--psize", "2000", "--overlap", "80",
    ]) == 0
    text = tagged.read_text()
    assert "MD:Z:" in text and "NM:i:" in text

    assert main([
        "call", "--fasta", str(fasta), "--sam", str(tagged),
        "--out", str(vcf),
    ]) == 0
    assert vcf.read_text().startswith("##fileformat=VCF")


def test_simulate_writes_fastq(tmp_path):
    fasta = tmp_path / "r.fa"
    sam = tmp_path / "r.sam"
    fastq = tmp_path / "r.fq"
    main([
        "simulate", "--fasta", str(fasta), "--sam", str(sam),
        "--fastq", str(fastq), "--reads", "20", "--read-length", "40",
        "--chromosomes", "21",
    ])
    lines = fastq.read_text().splitlines()
    assert len(lines) % 4 == 0 and lines[0].startswith("@")


def test_reproduce_prints_speedups(capsys):
    assert main(["reproduce", "--reads", "40"]) == 0
    out = capsys.readouterr().out
    assert "markdup" in out and "metadata" in out and "bqsr_table" in out


def test_profile_parser_defaults(capsys):
    args = build_parser().parse_args(["profile"])
    assert args.command == "profile"
    assert args.stage == "markdup"
    assert args.trace is None
    # a profile is derived from the solved run: there is no mode to choose
    with pytest.raises(SystemExit) as exit_info:
        main(["--no-ledger", "profile", "--mode", "dense"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --mode dense" in capsys.readouterr().err


def test_profile_emits_report_and_artifacts(tmp_path, capsys):
    import json

    trace = tmp_path / "trace.json"
    report = tmp_path / "report.json"
    rows = tmp_path / "report.csv"
    assert main([
        "profile", "--stage", "markdup", "--reads", "40",
        "--trace", str(trace), "--out", str(report), "--csv", str(rows),
    ]) == 0
    out = capsys.readouterr().out
    assert "cycles" in out and "busy" in out
    # the profiled wave is solved, not ticked
    assert "maxplus mode" in out and "(skip ratio 0.0%)" not in out

    # the chrome trace is valid JSON in the trace-event format
    loaded = json.loads(trace.read_text())
    assert loaded["traceEvents"]
    assert any(e["ph"] == "X" for e in loaded["traceEvents"])

    # the flat report upholds the cycle-attribution invariant
    flat = json.loads(report.read_text())
    assert flat["mode"] == "maxplus" and flat["skip_ratio"] > 0
    for name, entry in flat["modules"].items():
        states = entry["busy"] + entry["starved"] + entry["stalled"] + entry["idle"]
        assert states == flat["cycles"], name
    assert rows.read_text().startswith("section,")


def test_profile_unknown_stage_exits_cleanly(capsys):
    code = main(["--no-ledger", "profile", "--stage", "nope"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown stage" in err and "markdup" in err
    assert "Traceback" not in err


def test_profile_creates_parent_directories(tmp_path, capsys):
    trace = tmp_path / "deep" / "traces" / "t.json"
    report = tmp_path / "deep" / "reports" / "r.json"
    rows = tmp_path / "other" / "r.csv"
    assert main([
        "--no-ledger", "profile", "--stage", "markdup", "--reads", "40",
        "--trace", str(trace), "--out", str(report), "--csv", str(rows),
    ]) == 0
    assert trace.exists() and report.exists() and rows.exists()


def test_profile_prints_bottleneck_analysis(capsys):
    assert main([
        "--no-ledger", "profile", "--stage", "markdup", "--reads", "40",
    ]) == 0
    out = capsys.readouterr().out
    assert "root bottleneck" in out


def test_analyze_over_saved_report(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main([
        "--no-ledger", "profile", "--stage", "markdup", "--reads", "40",
        "--out", str(report),
    ]) == 0
    capsys.readouterr()
    assert main(["--no-ledger", "analyze", str(report)]) == 0
    out = capsys.readouterr().out
    assert "root bottleneck" in out


def test_a_closed_stdout_pipe_ends_the_command_quietly():
    """``repro analyze R.json | head -5``: a reader that stops early ends
    the command with exit 141, no traceback and nothing ignored at exit.
    The child's stdout is a pipe whose read end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", "--no-ledger", "analyze",
             str(DATA / "event_mode_profile.json")],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == b""


def test_analyze_bad_inputs_exit_cleanly(tmp_path, capsys):
    assert main(["--no-ledger", "analyze", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert main(["--no-ledger", "analyze", str(bad)]) == 2
    assert "not JSON" in capsys.readouterr().err


def test_analyze_wrong_shaped_report_exits_cleanly(tmp_path, capsys):
    """Valid JSON that is not a ``profile --out`` report is the third
    clean refusal, not an AttributeError traceback."""
    for text in ("[]", '{"modules": 3}', '{"cycles": null}'):
        wrong = tmp_path / "wrong.json"
        wrong.write_text(text)
        assert main(["--no-ledger", "analyze", str(wrong)]) == 2
        assert "not a profile report" in capsys.readouterr().err


def test_retired_bench_command_is_an_invalid_choice(capsys):
    """The ``bench`` subcommand is gone (e2e_bench/ and benchmarks/ are
    the perf authority): argparse refuses it like any unknown command."""
    with pytest.raises(SystemExit) as exit_info:
        main(["bench"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_cli_records_runs_in_ledger(tmp_path, capsys):
    import json

    ledger = tmp_path / "ledger.jsonl"
    assert main([
        "--ledger", str(ledger),
        "profile", "--stage", "markdup", "--reads", "40",
    ]) == 0
    records = [
        json.loads(line) for line in ledger.read_text().splitlines()
    ]
    events = [record["event"] for record in records]
    assert events[0] == "run.start"
    assert "profile.report" in events
    profiled = records[events.index("profile.report")]
    assert profiled["mode"] == "maxplus"
    assert "cli.exit" in events
    assert events[-1] == "run.end"
    start = records[0]
    assert start["manifest"]["workload"] == "profile"
    run_id = start["run_id"]
    assert all(record["run_id"] == run_id for record in records)


def test_unwritable_ledger_exits_cleanly(tmp_path, capsys):
    """A ``--ledger`` that cannot be opened for append — a directory, or
    a path under a file — is one ``error:`` line and exit 2, before the
    subcommand runs."""
    from repro.obs.ledger import active_run

    (tmp_path / "file").write_text("")
    fasta = tmp_path / "ref.fa"
    for ledger in (tmp_path, tmp_path / "file" / "ledger.jsonl"):
        assert main([
            "--ledger", str(ledger), "simulate", "--fasta", str(fasta),
            "--sam", str(tmp_path / "reads.sam"), "--reads", "5",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write ledger {ledger}: ")
        assert len(err.strip().splitlines()) == 1
        assert not fasta.exists()
        assert active_run() is None


# -- multi-device sharding (DESIGN.md §3.7) ------------------------------------------


def _simulate(tmp_path):
    fasta = tmp_path / "ref.fa"
    sam = tmp_path / "reads.sam"
    assert main([
        "--no-ledger", "simulate", "--fasta", str(fasta), "--sam", str(sam),
        "--reads", "60", "--read-length", "50", "--seed", "5",
        "--chromosomes", "21",
    ]) == 0
    return fasta, sam


def test_preprocess_devices_bit_identical_output(tmp_path, capsys):
    """The CLI-level invariant: --devices N writes byte-identical SAM."""
    fasta, sam = _simulate(tmp_path)
    outs = {}
    for devices in (1, 2):
        out = tmp_path / f"tagged_d{devices}.sam"
        assert main([
            "--no-ledger", "preprocess", "--fasta", str(fasta),
            "--sam", str(sam), "--out", str(out), "--psize", "1000",
            "--devices", str(devices), "--workers", "2",
        ]) == 0
        outs[devices] = out.read_text()
    assert outs[2] == outs[1]
    out = capsys.readouterr().out
    assert "devices=2" in out
    assert "device 0:" in out and "device 1:" in out


def _refused(argv, capsys):
    """``main(argv)`` must stop in argparse — one ``error:`` line, exit
    2 — not in a traceback out of the layer that first tripped."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and "Traceback" not in err
    return err


@pytest.mark.parametrize("flag, value", [
    ("--devices", "0"),
    ("--pipelines", "0"),
    ("--workers", "0"),
    ("--wave-timeout", "0"),
    ("--inject-faults", "bogus"),
    ("--max-retries", "-1"),
    ("--psize", "0"),
    ("--overlap", "-1"),
])
def test_preprocess_bad_arguments_exit_2(tmp_path, capsys, flag, value):
    fasta, sam = _simulate(tmp_path)
    err = _refused([
        "--no-ledger", "preprocess", "--fasta", str(fasta), "--sam", str(sam),
        "--out", str(tmp_path / "out.sam"), flag, value,
    ], capsys)
    assert f"argument {flag}" in err
    assert not (tmp_path / "out.sam").exists()


@pytest.mark.parametrize("flag", ["--fasta", "--sam"])
def test_preprocess_missing_input_exits_2(tmp_path, capsys, flag):
    fasta, sam = _simulate(tmp_path)
    absent = str(tmp_path / "absent")
    assert main([
        "--no-ledger", "preprocess", "--fasta", str(fasta), "--sam", str(sam),
        "--out", str(tmp_path / "out.sam"), flag, absent,
    ]) == 2
    assert f"error: cannot read {absent}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--fasta", "--sam"])
def test_call_missing_input_exits_2(tmp_path, capsys, flag):
    fasta, sam = _simulate(tmp_path)
    absent = str(tmp_path / "absent")
    assert main([
        "--no-ledger", "call", "--fasta", str(fasta), "--sam", str(sam),
        "--out", str(tmp_path / "out.vcf"), flag, absent,
    ]) == 2
    assert f"error: cannot read {absent}" in capsys.readouterr().err
    assert not (tmp_path / "out.vcf").exists()


def _corrupt_fasta(fasta, sam):
    """A non-DNA base in the first sequence line."""
    lines = fasta.read_text().splitlines()
    lines[1] = "X" + lines[1][1:]
    fasta.write_text("\n".join(lines) + "\n")
    return fasta


def _corrupt_sam(fasta, sam):
    """The last record cut off inside its QUAL column."""
    text = sam.read_text()
    sam.write_text(text[:text.rindex("\tRG:Z:") - 10] + "\n")
    return sam


#: SAM columns by name (``RG`` is the first tag, ``RG:Z:lane<N>``).
SAM_COLUMNS = dict(QNAME=0, FLAG=1, RNAME=2, POS=3, MAPQ=4, QUAL=10, RG=11)


def _edit_first_read(sam, **edits):
    """The first record with each named column replaced by its edit: a
    text, or a function of the old text."""
    lines = sam.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("@"))
    columns = lines[first].split("\t")
    for name, edit in edits.items():
        old = columns[SAM_COLUMNS[name]]
        columns[SAM_COLUMNS[name]] = edit(old) if callable(edit) else edit
    lines[first] = "\t".join(columns)
    sam.write_text("\n".join(lines) + "\n")
    return sam


def _realign_first_read(sam, chrom, pos):
    """The first record renamed ``stray`` and moved to ``chrom:pos``."""
    return _edit_first_read(sam, QNAME="stray", RNAME=chrom, POS=str(pos))


def _past_contig_end(fasta, sam):
    return _realign_first_read(sam, "21", 25000)


def _overhanging_contig_end(fasta, sam):
    """On the contig's last base (``_simulate`` writes ``LN:2101``), so
    only the read's reference span leaves it."""
    assert "@SQ\tSN:21\tLN:2101\n" in sam.read_text()
    return _realign_first_read(sam, "21", 2101)


def _absent_chromosome(fasta, sam):
    return _realign_first_read(sam, "5", 1)


def _qual_below_bang(fasta, sam):
    return _edit_first_read(sam, QUAL=lambda qual: " " * len(qual))


def _qual_above_tilde(fasta, sam):
    return _edit_first_read(sam, QUAL=lambda qual: "\x7f" * len(qual))


def _negative_flag(fasta, sam):
    return _edit_first_read(sam, FLAG="-1")


def _mapq_past_255(fasta, sam):
    return _edit_first_read(sam, MAPQ="256")


def _read_group_past_255(fasta, sam):
    return _edit_first_read(sam, RG="RG:Z:lane300")


def _nameless_header(fasta, sam):
    fasta.write_text(">\n" + fasta.read_text().split("\n", 1)[1])
    return fasta


def _sequence_before_header(fasta, sam):
    fasta.write_text("ACGT\n" + fasta.read_text())
    return fasta


#: Corruptions whose refusal names the read, not the parse.
OFF_GENOME = (_past_contig_end, _overhanging_contig_end, _absent_chromosome)


@pytest.mark.parametrize("command, out", [
    ("preprocess", "out.sam"), ("call", "out.vcf"),
])
@pytest.mark.parametrize("corrupt, reason", [
    (_corrupt_fasta, "not a DNA base: 'X'"),
    (_corrupt_sam, "SEQ and QUAL must have equal length"),
    (_past_contig_end, "read stray at 21:25000 lies outside the reference"),
    (_overhanging_contig_end,
     "read stray at 21:2101 lies outside the reference"),
    (_absent_chromosome, "read stray at 5:1 lies outside the reference"),
    (_qual_below_bang, "QUAL must be characters '!'..'~', got ' '"),
    (_qual_above_tilde, "QUAL must be characters '!'..'~', got '\\x7f'"),
    (_negative_flag, "FLAG must be in 0..65535, got -1"),
    (_mapq_past_255, "MAPQ must be in 0..255, got 256"),
    (_read_group_past_255, "RG must be in 0..255, got 300"),
    (_nameless_header, "a FASTA header names no sequence"),
    (_sequence_before_header, "sequence before the first FASTA header"),
])
def test_malformed_input_exits_2(
    tmp_path, capsys, command, out, corrupt, reason
):
    """A parser's ``ValueError`` (``cannot parse <file>: …``) or a read
    aligned off the genome (``<file>: read …``) is one ``error:`` line
    naming the file, like an unreadable one — not a traceback out of
    ``genomics/``, ``tables/`` or ``variants/``."""
    fasta, sam = _simulate(tmp_path)
    bad = corrupt(fasta, sam)
    assert main([
        "--no-ledger", command, "--fasta", str(fasta), "--sam", str(sam),
        "--out", str(tmp_path / out),
    ]) == 2
    err = capsys.readouterr().err
    parse_error = corrupt not in OFF_GENOME
    assert err == (
        f"error: {'cannot parse ' if parse_error else ''}{bad}: {reason}\n"
    )
    assert not (tmp_path / out).exists()


@functools.lru_cache(maxsize=None)
def _fuzz_inputs():
    """The lines of a valid FASTA and SAM pair: one 1 kb contig, six
    30-base reads."""
    from repro.genomics import ReadSimulator, ReferenceGenome, SimulatorConfig
    from repro.genomics.fasta import write_fasta
    from repro.genomics.sam import write_sam

    genome = ReferenceGenome.random({21: 1000}, seed=1)
    reads = ReadSimulator(
        genome, SimulatorConfig(read_length=30, seed=2)
    ).simulate(6)
    fasta, sam = io.StringIO(), io.StringIO()
    write_fasta(fasta, genome)
    write_sam(sam, reads, genome)
    return tuple(fasta.getvalue().splitlines()), tuple(sam.getvalue().splitlines())


#: One drawn character: anything UTF-8 carries but a field or line break.
_CHARACTER = st.characters(codec="utf-8", exclude_characters="\t\n\r")

#: A drawn field: a number in or out of every range, free text, or a
#: token the readers treat specially.
_FIELD = st.one_of(
    st.integers(-70_000, 70_000).map(str),
    st.text(_CHARACTER, max_size=8),
    st.sampled_from([
        "", "*", ">", ">chr", ">chr99", ">chrX", ">21 extra", "chr21", "X",
        "30S", "15M15I", "15M3D15M", "10S20M", "RG:Z:lane-1", "RG:Z:lane256",
        "NM:i:x", "XX",
    ]),
)


@st.composite
def _mutated_inputs(draw):
    """The fuzz inputs with one field changed: a SAM column of one line,
    or one FASTA line — replaced by a drawn field, or one character of it
    by a drawn character."""
    fasta, sam = map(list, _fuzz_inputs())
    lines, sep = (sam, "\t") if draw(st.booleans()) else (fasta, None)
    row = draw(st.integers(0, len(lines) - 1))
    fields = lines[row].split(sep) if sep else [lines[row]]
    column = draw(st.integers(0, len(fields) - 1))
    old = fields[column]
    if old and draw(st.booleans()):
        at = draw(st.integers(0, len(old) - 1))
        fields[column] = old[:at] + draw(_CHARACTER) + old[at + 1:]
    else:
        fields[column] = draw(_FIELD)
    lines[row] = (sep or "").join(fields)
    return "\n".join(fasta) + "\n", "\n".join(sam) + "\n"


@settings(max_examples=40, deadline=None)
@given(inputs=_mutated_inputs())
def test_mutated_inputs_are_run_or_refused(inputs):
    """A FASTA or SAM with one field changed is run (exit 0) or refused
    (exit 2, one ``error:`` line, no output) by ``preprocess`` and
    ``call`` — never a traceback out of the readers or the stages."""
    with tempfile.TemporaryDirectory() as tmp:
        fasta, sam = os.path.join(tmp, "g.fa"), os.path.join(tmp, "r.sam")
        for path, text in zip((fasta, sam), inputs):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        for command, name in (("preprocess", "o.sam"), ("call", "o.vcf")):
            out = os.path.join(tmp, name)
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main([
                    "--no-ledger", "--quiet", command, "--fasta", fasta,
                    "--sam", sam, "--out", out,
                ])
            err = stderr.getvalue()
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert not os.path.exists(out)
            else:
                assert (code, err) == (0, "")


def test_preprocess_overlap_shorter_than_a_read_exits_2(tmp_path, capsys):
    """An ``--overlap`` too short to hold some read's reference span is
    refused before any wave runs: one ``error:`` line naming the
    smallest overlap that works, exit 2, no output — where it used to
    die inside the wave on an out-of-range SPM address."""
    fasta, sam = tmp_path / "ref.fa", tmp_path / "reads.sam"
    assert main([
        "--no-ledger", "simulate", "--fasta", str(fasta), "--sam", str(sam),
        "--reads", "300", "--read-length", "100", "--seed", "3",
    ]) == 0
    capsys.readouterr()
    out = tmp_path / "out.sam"
    argv = [
        "--no-ledger", "preprocess", "--fasta", str(fasta), "--sam", str(sam),
        "--out", str(out), "--psize", "500", "--overlap",
    ]
    assert main(argv + ["10"]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: --overlap 10 is too short for {sam}: a read reaches 99 "
        "bases past its 500-base partition (use --overlap 99 or more)\n"
    )
    assert not out.exists()
    assert main(argv + ["99"]) == 0
    assert out.exists()


def test_serve_bad_devices_exit_2(capsys):
    err = _refused(["--no-ledger", "serve", "--devices", "0"], capsys)
    assert "argument --devices: must be positive" in err


@pytest.mark.parametrize("flag, value", [
    ("--tenants", "0"),
    ("--quota", "0"),
    ("--backlog", "0"),
    ("--jobs", "-1"),
    ("--mean-gap", "-5"),
    ("--max-retries", "-1"),
    ("--stages", "bogus"),
    ("--stages", ","),
    ("--seed", "-2"),
    ("--read-length", "4"),
    ("--psize", "0"),
    ("--reads", "0"),
])
def test_serve_bad_arguments_exit_2(capsys, flag, value):
    err = _refused(["--no-ledger", "serve", flag, value], capsys)
    assert f"argument {flag}" in err


#: Bad values argparse lets through, each refused where it is used —
#: the validator it reaches, or the writability check of an output path
#: — with this one ``error:`` line.
REFUSED_AFTER_PARSING = {
    ("simulate", "--snp-rate", "2"): "snp_rate must be in [0, 1], got 2.0",
    ("simulate", "--duplicate-rate", "5"):
        "duplicate_rate must be in [0, 1], got 5.0",
    ("simulate", "--duplicate-rate", "-1"):
        "duplicate_rate must be in [0, 1], got -1.0",
    ("simulate", "--chromosomes", "99"):
        "unknown chromosome 99 (expected 1-22, X or Y)",
    ("call", "--min-depth", "-3"): "min_depth must be at least 1, got -3",
    ("call", "--min-depth", "0"): "min_depth must be at least 1, got 0",
    **{
        (command, flag, path): f"cannot write {path}: {reason}"
        for command, flag, path, reason in [
            ("simulate", "--fasta", "absent/g.fa", "No such file or directory"),
            ("simulate", "--sam", "absent/r.sam", "No such file or directory"),
            ("simulate", "--fastq", "absent/r.fq", "No such file or directory"),
            ("preprocess", "--out", "absent/o.sam", "No such file or directory"),
            ("call", "--out", "absent/o.vcf", "No such file or directory"),
            ("profile", "--out", "file/r.json", "File exists"),
            ("profile", "--trace", "file/t.json", "File exists"),
            ("profile", "--csv", "file/r.csv", "File exists"),
            ("serve", "--trace", "file/t.json", "File exists"),
        ]
    },
}

#: The files each command needs named (absent: none is read before the
#: refusal).
REQUIRED_FILES = {
    "simulate": ["--fasta", "g.fa", "--sam", "r.sam"],
    "preprocess": ["--fasta", "g.fa", "--sam", "r.sam", "--out", "o.sam"],
    "call": ["--fasta", "g.fa", "--sam", "r.sam", "--out", "o.vcf"],
}


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--seed", "-1"),
    ("simulate", "--read-length", "0"),
    ("simulate", "--scale", "-1"),
    ("simulate", "--reads", "0"),
    ("profile", "--reads", "0"),
    ("profile", "--seed", "-1"),
    ("reproduce", "--reads", "-5"),
    ("serve", "--drain-at", "-1"),
    *REFUSED_AFTER_PARSING,
])
def test_numeric_bad_arguments_exit_2(
    tmp_path, capsys, monkeypatch, command, flag, value
):
    """Out-of-range counts, seeds, lengths and scales stop in argparse
    with one ``error: argument`` line; out-of-range rates, chromosomes
    and depths in their validator, and output paths under a missing
    directory or a file in the writability check, with one ``error:``
    line — each before anything is simulated, read or written."""
    monkeypatch.chdir(tmp_path)
    if value.startswith("file/"):
        (tmp_path / "file").write_text("")
    argv = ["--no-ledger", command, *REQUIRED_FILES.get(command, []), flag, value]
    refusal = REFUSED_AFTER_PARSING.get((command, flag, value))
    if refusal is None:
        err = _refused(argv, capsys)
        assert f"argument {flag}" in err
    else:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {refusal}\n"
    assert [path.name for path in tmp_path.iterdir()] == (
        ["file"] if value.startswith("file/") else []
    )


@pytest.mark.parametrize("command, item, site", [
    # the runtime API's retired sites
    ("preprocess", "launch_error:2@runtime.launch", "runtime.launch"),
    ("serve", "transfer_error@runtime.transfer", "runtime.transfer"),
    # a retired site
    ("serve", "transfer_error@serve.wave", "serve.wave"),
    # an invented one
    ("preprocess", "worker_crash@a", "a"),
])
def test_unpolled_fault_site_is_refused(capsys, command, item, site):
    """Every fault is a failed wave attempt at ``scheduler.wave``: an
    item naming any other site would be announced and never injected,
    so the plan refuses it where the spec is read — one ``error:`` line
    naming the site asked for and the one site there is."""
    argv = ["--fasta", "f", "--sam", "s", "--out", "o"]
    err = _refused(
        ["--no-ledger", command] + (argv if command == "preprocess" else [])
        + ["--inject-faults", f"worker_crash,{item}"],
        capsys,
    )
    assert err.count("error:") == 1
    assert f"unknown fault site {site!r}" in err
    assert "failed wave attempt at scheduler.wave" in err


@pytest.mark.parametrize("command, item, kind, count", [
    ("preprocess", "transfer_error", "transfer_error", 1),
    ("serve", "launch_error:2", "launch_error", 2),
])
def test_fault_kind_without_a_site_fires_at_the_wave(
    tmp_path, capsys, command, item, kind, count
):
    """``transfer_error`` and ``launch_error`` name no site: like every
    kind they land on ``scheduler.wave``, the one site both commands
    poll, and the run survives them."""
    from repro.obs.ledger import RunLedger

    if command == "preprocess":
        fasta, sam = _simulate(tmp_path)
        argv = [
            "preprocess", "--fasta", str(fasta), "--sam", str(sam),
            "--out", str(tmp_path / "out.sam"),
        ]
    else:
        argv = SERVE_ARGV
    ledger = tmp_path / "ledger.jsonl"
    assert main(
        ["--ledger", str(ledger)] + argv + ["--inject-faults", item]
    ) == 0
    out = capsys.readouterr().out
    if command == "preprocess":
        assert f"survived {count} injected fault(s) ({kind}={count})" in out
    else:
        assert f"0 failed, 8 waves, {count} retries" in out
    injected = RunLedger(str(ledger)).events("fault.injected")
    assert [(r["site"], r["kind"]) for r in injected] == (
        [("scheduler.wave", kind)] * count
    )


def _inject_faults_example(command):
    """The quoted example in ``<command> --inject-faults``'s help."""
    import re

    from repro.cli import build_parser

    commands = build_parser()._subparsers._group_actions[0].choices
    action = next(
        action for action in commands[command]._actions
        if "--inject-faults" in action.option_strings
    )
    return re.search(r"'([^']+)'", action.help).group(1)


def test_preprocess_help_fault_example_fires(tmp_path, capsys):
    """Every kind the ``--help`` example names is actually injected."""
    import re

    from repro.faults import FaultPlan

    example = _inject_faults_example("preprocess")
    fasta, sam = _simulate(tmp_path)
    assert main([
        "--no-ledger", "preprocess", "--fasta", str(fasta), "--sam", str(sam),
        "--out", str(tmp_path / "out.sam"), "--inject-faults", example,
    ]) == 0
    out = capsys.readouterr().out
    survived = re.search(r"survived (\d+) injected fault\(s\) \((.*?)\)", out)
    assert int(survived.group(1)) >= 1
    fired = dict(pair.split("=") for pair in survived.group(2).split(", "))
    for spec in FaultPlan.from_spec(example).specs:
        assert int(fired.get(spec.kind, 0)) >= 1, spec.render()


def test_analyze_sharding_reads_the_ledger(tmp_path, capsys):
    fasta, sam = _simulate(tmp_path)
    ledger = tmp_path / "ledger.jsonl"
    assert main([
        "--ledger", str(ledger), "preprocess", "--fasta", str(fasta),
        "--sam", str(sam), "--out", str(tmp_path / "tagged.sam"),
        "--psize", "1000", "--devices", "2",
    ]) == 0
    capsys.readouterr()
    assert main(["--ledger", str(ledger), "analyze", "--sharding"]) == 0
    out = capsys.readouterr().out
    assert "sharding analysis: metadata" in out
    assert "what-if" in out


def test_analyze_refuses_a_truncated_ledger(tmp_path, capsys):
    """A ledger cut mid-record is refused at the cut line, and the
    records appended after the cut start a line of their own."""
    import json

    fasta, sam = _simulate(tmp_path)
    ledger = tmp_path / "ledger.jsonl"
    assert main([
        "--ledger", str(ledger), "preprocess", "--fasta", str(fasta),
        "--sam", str(sam), "--out", str(tmp_path / "tagged.sam"),
        "--devices", "2",
    ]) == 0
    whole = ledger.read_bytes()
    ledger.write_bytes(whole[:-40])
    cut = whole[:-40].count(b"\n") + 1
    capsys.readouterr()
    assert main(["--ledger", str(ledger), "analyze", "--sharding"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ledger}:{cut}: ")
    assert len(err.strip().splitlines()) == 1
    lines = ledger.read_text().splitlines()
    assert len(lines) > cut
    assert json.loads(lines[cut])["event"] == "run.start"


def _ledger_of(path, *records):
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(str(path))
    for record in records:
        ledger.append({"run_id": "r1", "stage": "metadata", **record})
    return path


def test_analyze_sharding_empty_ledger_exits_cleanly(tmp_path, capsys):
    ledger = tmp_path / "empty.jsonl"
    assert main(["--ledger", str(ledger), "analyze", "--sharding"]) == 2
    assert "no shard.run events" in capsys.readouterr().err
    # a field of the wrong JSON type is refused the same way, by event
    for case, (name, record) in enumerate([
        ("shard.run", {"event": "shard.run", "per_wave_cycles": 5}),
        ("shard.device", {"event": "shard.device", "device": [0]}),
        ("shard.run", {"event": "shard.run", "waves": "many"}),
    ]):
        wrong = _ledger_of(
            tmp_path / f"wrong{case}.jsonl",
            {"event": "shard.run", "devices": 1}, record,
        )
        assert main(["--ledger", str(wrong), "analyze", "--sharding"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ledger has a malformed {name} event: ")
        assert len(err.strip().splitlines()) == 1


def test_analyze_critical_path_malformed_ledger_exits_cleanly(tmp_path, capsys):
    """A traced field of the wrong type is refused by event, in the fold,
    before the critical-path walk compares it or a wave timeline reads it."""
    admit = {"event": "serve.admit", "tenant": "a", "job": 0, "clock": 0}
    dispatch = {"event": "serve.dispatch", "device": 0, "cost_rows": 1}
    wave = {
        "event": "serve.wave.done", "tenant": "a", "job": 0, "wave": 0,
        "device": 0, "attempt": 0, "start_cycles": 0, "end_cycles": 5,
        "cycles": 5,
    }
    done = {
        "event": "serve.job.done", "tenant": "a", "job": 0, "clock": 5,
        "latency_cycles": 5, "queue_cycles": 0,
    }
    for case, (name, records) in enumerate([
        ("serve.job.done", [admit, {**done, "clock": "5"}]),
        ("serve.wave.done", [admit, dispatch, {**wave, "cycles": [1]}, done]),
    ]):
        wrong = _ledger_of(tmp_path / f"wrong{case}.jsonl", *records)
        assert main(["--ledger", str(wrong), "analyze", "--critical-path"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ledger has a malformed {name} event: ")
        assert len(err.strip().splitlines()) == 1


def test_analyze_needs_report_or_sharding(capsys):
    assert main(["--no-ledger", "analyze"]) == 2
    assert "REPORT_JSON, --sharding, --storage, or --critical-path" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("argv, refusal", [
    (["--sharding", "--storage"],
     "argument --storage: not allowed with argument --sharding"),
    (["--critical-path", "r.json"],
     "argument REPORT_JSON: not allowed with argument --critical-path"),
    (["r.json", "--sharding"],
     "argument --sharding: not allowed with argument REPORT_JSON"),
])
def test_analyze_takes_one_source(capsys, argv, refusal):
    """A second source is refused, not dropped without a word."""
    err = _refused(["--no-ledger", "analyze", *argv], capsys)
    assert f"error: {refusal}" in err


@pytest.mark.parametrize("source", [[], ["--sharding"], ["r.json"]])
def test_analyze_job_needs_the_critical_path(capsys, source):
    assert main(["--no-ledger", "analyze", *source, "--job", "3"]) == 2
    assert capsys.readouterr().err == (
        "error: --job narrows --critical-path only\n"
    )


# -- repro serve --------------------------------------------------------------------


SERVE_ARGV = [
    "serve", "--tenants", "3", "--jobs", "5", "--reads", "50",
    "--psize", "800", "--mean-gap", "10000", "--seed", "3",
]


def test_serve_runs_and_records_ledger(tmp_path, capsys):
    from repro.obs.ledger import RunLedger

    ledger = tmp_path / "ledger.jsonl"
    assert main(["--ledger", str(ledger)] + SERVE_ARGV) == 0
    out = capsys.readouterr().out
    assert "serve: clock" in out
    assert "tenant" in out
    records = RunLedger(str(ledger))
    done = records.events("serve.job.done")
    assert done and all(record["latency_cycles"] > 0 for record in done)
    assert records.events("serve.dispatch")
    assert records.events("serve.run")


def test_serve_summary_is_deterministic(capsys):
    def run():
        assert main(["--no-ledger"] + SERVE_ARGV) == 0
        out = capsys.readouterr().out
        # everything but the host wall-time line is virtual, hence exact
        return [line for line in out.splitlines() if "host" not in line]

    assert run() == run()


def test_serve_drain_resume_flag(capsys):
    assert main(["--no-ledger"] + SERVE_ARGV + ["--drain-at", "3"]) == 0
    out = capsys.readouterr().out
    assert "drained at clock" in out
    assert "resuming" in out
    assert "5 admitted" in out and "5 completed" in out


def test_serve_drain_at_zero_drains_before_the_first_dispatch(capsys):
    """``--drain-at 0`` is a drain before any wave went out (it used to
    be ignored): the resumed run's summary is the undrained one's."""
    def summary(extra):
        assert main(["--no-ledger"] + SERVE_ARGV + extra) == 0
        return [
            line for line in capsys.readouterr().out.splitlines()
            if "host" not in line
        ]

    drained = summary(["--drain-at", "0"])
    assert drained[0] == (
        "serve: drained at clock 0 (0 open job(s) requeued); resuming"
    )
    assert drained[1:] == summary([])


def test_serve_with_fault_plan(capsys):
    assert main(
        ["--no-ledger"] + SERVE_ARGV
        + ["--inject-faults", "transfer_error:1@scheduler.wave",
           "--max-retries", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert "fault plan: transfer_error" in out
    assert "1 retries" in out or "retries" in out


def test_serve_survives_a_worker_crash(tmp_path, capsys):
    """``worker_crash`` lands on its default site, ``scheduler.wave`` —
    refused by ``serve`` until the served rounds joined the executor's
    ladder.  Arrivals at cycle 0 fill both devices, so dispatch 0 is on
    the pool when its worker dies; the summary is the one-worker run's,
    where the crash is a parent-side retry, bar the host-seconds line:
    one retry, its backoff charged as penalty cycles either way."""
    from repro.obs.ledger import RunLedger

    argv = SERVE_ARGV + [  # the later --mean-gap wins
        "--mean-gap", "0", "--devices", "2", "--workers", "2",
    ]

    def summary(ledger_argv, extra):
        assert main(ledger_argv + argv + extra) == 0
        return [
            line for line in capsys.readouterr().out.splitlines()
            if "host" not in line and not line.startswith("fault plan:")
        ]

    ledger = tmp_path / "ledger.jsonl"
    crashed = summary(
        ["--ledger", str(ledger)], ["--inject-faults", "worker_crash"]
    )
    assert crashed == summary(
        ["--no-ledger"], ["--inject-faults", "worker_crash", "--workers", "1"]
    )
    assert "1 retries" in crashed[0]
    records = RunLedger(str(ledger))
    (injected,) = records.events("fault.injected")
    assert (injected["site"], injected["slot"]) == ("scheduler.wave", 0)
    assert len(records.events("fault.pool_restart")) == 1
    # the retry is recorded once, as the service's own event
    assert not records.events("fault.retry")
    (retry,) = records.events("serve.retry")
    assert (retry["kind"], retry["attempt"]) == ("worker_crash", 0)


@pytest.mark.parametrize("command", ["preprocess", "serve"])
def test_fault_plan_outlasting_the_retry_budget_exits_1(
    tmp_path, capsys, command
):
    """A wave past its retry budget fails the run, exit code 1: a direct
    run ends in the ladder's own message as one ``error:`` line; a served
    one fails only that wave's job and prints its summary, no error."""
    if command == "preprocess":
        fasta, sam = _simulate(tmp_path)
        argv = [
            "preprocess", "--fasta", str(fasta), "--sam", str(sam),
            "--out", str(tmp_path / "out.sam"),
        ]
    else:
        argv = SERVE_ARGV
    assert main(["--no-ledger"] + argv + [
        "--inject-faults", "worker_crash:1@scheduler.wave+9",
        "--max-retries", "1",
    ]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if command == "preprocess":
        assert (
            "error: wave 0 failed 2 attempt(s); retry budget (1) exhausted"
            in err
        )
        assert not (tmp_path / "out.sam").exists()
    else:
        assert "error" not in err
        assert "5 admitted / 0 rejected, 4 completed / 1 failed" in out


def test_serve_help_fault_example_fires(tmp_path, capsys):
    """Every kind the ``serve --help`` example names is injected, at the
    one site."""
    from repro.faults import FaultPlan
    from repro.obs.ledger import RunLedger

    example = _inject_faults_example("serve")
    ledger = tmp_path / "ledger.jsonl"
    assert main(
        ["--ledger", str(ledger)] + SERVE_ARGV + ["--inject-faults", example]
    ) == 0
    capsys.readouterr()
    injected = RunLedger(str(ledger)).events("fault.injected")
    assert {r["site"] for r in injected} == {"scheduler.wave"}
    assert {r["kind"] for r in injected} == {
        spec.kind for spec in FaultPlan.from_spec(example).specs
    }


# -- in-storage filtering (DESIGN.md §3.10) ------------------------------------------


def test_preprocess_storage_filter_bit_identical_output(tmp_path, capsys):
    """--storage-filter changes transfer accounting, never output bytes."""
    fasta, sam = _simulate(tmp_path)
    outs = {}
    for flag in (False, True):
        out = tmp_path / f"tagged_sf{int(flag)}.sam"
        argv = [
            "--no-ledger", "preprocess", "--fasta", str(fasta),
            "--sam", str(sam), "--out", str(out), "--psize", "1000",
            "--devices", "2",
        ]
        if flag:
            argv.append("--storage-filter")
        assert main(argv) == 0
        outs[flag] = out.read_text()
    assert outs[True] == outs[False]
    out = capsys.readouterr().out
    assert "storage filter:" in out
    assert "pruned in-SSD" in out


def test_analyze_storage_reads_the_ledger(tmp_path, capsys):
    fasta, sam = _simulate(tmp_path)
    ledger = tmp_path / "ledger.jsonl"
    assert main([
        "--ledger", str(ledger), "preprocess", "--fasta", str(fasta),
        "--sam", str(sam), "--out", str(tmp_path / "tagged.sam"),
        "--psize", "1000", "--devices", "2", "--storage-filter",
    ]) == 0
    capsys.readouterr()
    assert main(["--ledger", str(ledger), "analyze", "--storage"]) == 0
    out = capsys.readouterr().out
    assert "storage analysis: metadata" in out
    assert "what-if" in out
    assert "pcie4" in out


def test_analyze_storage_empty_ledger_exits_cleanly(tmp_path, capsys):
    ledger = tmp_path / "empty.jsonl"
    assert main(["--ledger", str(ledger), "analyze", "--storage"]) == 2
    assert "no storage.run events" in capsys.readouterr().err
    # a field of the wrong JSON type is refused the same way, by event
    for field, value in [("kernel_seconds", [1.0]), ("devices", {"n": 2})]:
        wrong = _ledger_of(
            tmp_path / f"{field}.jsonl", {"event": "storage.run", field: value}
        )
        assert main(["--ledger", str(wrong), "analyze", "--storage"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ledger has a malformed storage.run event: ")
        assert len(err.strip().splitlines()) == 1


def test_analyze_storage_unversioned_ledger_exits_cleanly(tmp_path, capsys):
    """Satellite: records missing schema_version refuse cleanly (exit 2,
    no traceback)."""
    import json

    ledger = tmp_path / "old.jsonl"
    ledger.write_text(json.dumps({
        "run_id": "r1", "event": "storage.run", "stage": "metadata",
    }) + "\n")
    assert main(["--ledger", str(ledger), "analyze", "--storage"]) == 2
    err = capsys.readouterr().err
    assert "schema_version" in err


def test_serve_storage_filter_flag(tmp_path, capsys):
    from repro.obs.ledger import RunLedger

    ledger = tmp_path / "ledger.jsonl"
    assert main(
        ["--ledger", str(ledger)] + SERVE_ARGV + ["--storage-filter"]
    ) == 0
    out = capsys.readouterr().out
    assert "storage filter:" in out
    records = RunLedger(str(ledger))
    assert records.events("storage.wave")
    assert records.events("storage.run")
    capsys.readouterr()
    assert main(["--ledger", str(ledger), "analyze", "--storage"]) == 0
    assert "storage analysis: serve" in capsys.readouterr().out
