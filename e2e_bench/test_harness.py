"""Unit tests of the benchmark harness.

    PYTHONPATH=src python -m pytest e2e_bench/test_harness.py

Not collected by tier-1 (``pyproject.toml`` keeps ``testpaths = ["tests"]``).
"""

import json
import math

import pytest

import harness
import run
from harness import Span

#: Test-only scale: seconds, not a measurement.  Not reachable from the CLI.
TINY = {
    "preprocess": {
        "reads": 24, "read_length": 40, "genome_scale": 4.5e-5,
        "chromosomes": (20, 21), "read_groups": 2, "duplicate_rate": 0.15,
        "psize": 2500, "overlap": 100, "pipelines": 2,
    },
    "serve_mixed": {
        "reads": 30, "read_length": 20, "genome_scale": 4.5e-5,
        "chromosomes": (20, 21), "read_groups": 4, "duplicate_rate": 0.15,
        "psize": 2500, "overlap": 37, "pipelines": 2,
        "tenants": 2, "jobs": 6, "mean_gap_cycles": 2000,
        "max_partitions": 2, "devices": 2,
    },
    "sql_fast": {
        "reads": 120, "read_length": 40, "genome_scale": 4.5e-5,
        "chromosomes": (20, 21), "read_groups": 4, "duplicate_rate": 0.15,
        "psize": 2500, "overlap": 57,
    },
}


def _span(id, name, start, end, parent):
    return Span(id=id, name=name, start=start, end=end, parent=parent,
                workload="t")


# -- span arithmetic -----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span(0, "harness.iteration", 0.0, 10.0, None),
        _span(1, "accel.a", 1.0, 4.0, 0),
        _span(2, "accel.b", 3.0, 6.0, 0),       # overlaps span 1 on [3, 4]
        _span(3, "hw.engine", 1.5, 2.5, 1),     # grandchild: not root's child
        _span(4, "tables.build", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    own = harness.self_seconds(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert harness.unattributed_frac(spans) == pytest.approx(0.4)


def test_recorder_links_parents_and_a_disabled_one_records_nothing():
    rec = harness.SpanRecorder("w")
    with rec.span("harness.iteration"):
        with rec.span("accel.stage.bqsr"):
            pass
        with rec.span("genomics.emit"):
            pass
    assert [s.parent for s in rec.spans] == [None, 0, 0]
    assert {s.workload for s in rec.spans} == {"w"}
    assert rec.spans[0].seconds >= rec.spans[1].seconds + rec.spans[2].seconds
    assert 0.0 <= harness.unattributed_frac(rec.spans) <= 1.0
    off = harness.SpanRecorder("w", enabled=False)
    with off.span("harness.iteration"):
        pass
    assert off.spans == [] and off.seconds("harness.iteration") == 0.0


def test_a_step_is_timed_with_tracing_on_or_off():
    for enabled in (True, False):
        rec = harness.SpanRecorder("w", enabled=enabled)
        with rec.span("harness.iteration"):
            with rec.step("sql.stage.markdup"):
                pass
            with rec.step("sql.stage.bqsr"):
                pass
        assert len(rec.steps) == 2 and all(s >= 0 for s in rec.steps)
        assert len(rec.spans) == (3 if enabled else 0)


def test_host_time_is_the_fastest_of_every_step():
    iterations = [[1.0, 5.0, 2.0], [3.0, 4.0, 1.5], [2.0, 6.0, 9.0]]
    assert harness.fastest_steps(iterations) == pytest.approx(1.0 + 4.0 + 1.5)
    assert harness.fastest_steps(iterations) <= min(map(sum, iterations))
    with pytest.raises(ValueError):
        harness.fastest_steps([[1.0, 2.0], [1.0]])


def test_unattributed_needs_one_root():
    with pytest.raises(ValueError):
        harness.unattributed_frac([])


# -- percentiles and failed operations ---------------------------------------------


def test_nearest_rank_and_the_ten_samples_beyond_rule():
    assert harness.nearest_rank(120, 50) == 60
    assert harness.nearest_rank(120, 90) == 108
    assert harness.nearest_rank(1, 99) == 1
    # p90 is the highest reportable percentile of 100-120 samples
    assert harness.samples_beyond(120, 90) == 12
    assert harness.samples_beyond(100, 90) == 10
    assert harness.samples_beyond(120, 95) < 10
    assert harness.samples_beyond(99, 90) < 10
    with pytest.raises(ValueError):
        harness.nearest_rank(0, 50)


def test_the_committed_serve_scale_supports_p90():
    run.program_on_path()
    import workloads

    assert harness.samples_beyond(workloads.SCALES["serve_mixed"]["jobs"], 90) >= 10


def test_a_rejected_job_misses_every_latency_limit():
    latencies = list(range(1, 10)) + [None]   # 9 completed, 1 rejected
    assert harness.latency_percentile(latencies, 50) == 5
    assert harness.latency_percentile(latencies, 90) == 9
    assert harness.latency_percentile(latencies, 91) == math.inf
    tally = harness.OpTally()
    for latency in latencies:
        tally.add(latency is not None)
    assert (tally.attempted, tally.failed) == (10, 1)
    assert tally.failed_frac == pytest.approx(0.1)
    assert harness.OpTally().failed_frac == 0.0


# -- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_names_every_metric_once():
    run.program_on_path()
    import workloads

    spec = run.load_spec()
    layer = [m["name"] for m in spec["per_layer"]]
    e2e = [m["name"] for m in spec["end_to_end"]]
    assert len(set(layer + e2e)) == len(layer) + len(e2e)
    assert "setup_s" in e2e
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert workloads.MODELLED <= set(layer)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SCALES)
    assert spec["paths"] == ["e2e_bench"]


# -- smoke: all four workloads at tiny scale -----------------------------------------


@pytest.fixture(scope="module")
def tiny_results():
    def scale(name):
        return TINY["preprocess" if name.startswith("preprocess") else name]

    names = [w["name"] for w in run.load_spec()["workloads"]]
    return {
        name: run.run_workload(name, seed=5, seconds=0, trace=1,
                               scale=scale(name))
        for name in names
    }


def test_tiny_smoke_is_correct_and_fully_attributed(tiny_results):
    layer_names = {m["name"] for m in run.load_spec()["per_layer"]}
    for name, result in tiny_results.items():
        assert result["correct"], (name, result["problems"])
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["per_layer"]) == layer_names
        layer = {k: v["value"] for k, v in result["per_layer"].items()}
        assert layer["ops_failed_frac"] == 0
        assert layer["harness.unattributed_frac"] <= 0.05, name
        assert all(v["value"] > 0 for v in result["end_to_end"].values())
        # the layer shares are those of one iteration and add up to its wall
        assert sum(result["layer_split_s"].values()) == pytest.approx(
            result["samples"]["traced_wall_s"]["min"], rel=1e-2
        )
        json.dumps(result)  # the result file must serialise


def test_tiny_sharded_filtered_equals_serial(tiny_results):
    serial = tiny_results["preprocess_serial"]
    sharded = tiny_results["preprocess_sharded_filtered"]
    assert sharded["fingerprint"] == serial["fingerprint"]
    for metric in ("hw.cycles.metadata", "hw.cycles.bqsr", "hw.spm_load_cycles"):
        assert sharded["per_layer"][metric] == serial["per_layer"][metric]
    assert sharded["per_layer"]["model_transfer_s"]["value"] > 0
    assert serial["per_layer"]["model_transfer_s"]["value"] == 0
    assert serial["per_layer"]["model_speedup_error_pct"]["value"] > 0


def test_tiny_sql_fast_bypasses_the_hardware_stack(tiny_results):
    layer = tiny_results["sql_fast"]["per_layer"]
    for metric, entry in layer.items():
        if metric.split(".")[0] in ("hw", "accel", "serve", "runtime", "storage"):
            assert entry["value"] == 0, metric
    assert layer["sql.fast_node_frac"]["value"] == 1.0
    split = tiny_results["sql_fast"]["layer_split_s"]
    assert split["hw"] == split["accel"] == split["serve"] == 0


def test_the_seed_redraws_qualities_and_errors_on_a_fixed_layout():
    run.program_on_path()
    import workloads

    _genome, a = workloads._simulate(TINY["preprocess"], seed=1)
    _genome, b = workloads._simulate(TINY["preprocess"], seed=2)
    _genome, again = workloads._simulate(TINY["preprocess"], seed=1)

    def layout(reads):
        return [(r.chrom, r.pos, str(r.cigar), r.read_group, r.flags)
                for r in reads]

    def content(reads):
        return [(r.seq.tolist(), r.qual.tolist()) for r in reads]

    assert layout(a) == layout(b) and content(a) != content(b)
    assert content(a) == content(again)


def test_stepping_the_service_is_run_until_idle_on_the_modelled_clock():
    run.program_on_path()
    import workloads
    from repro.serve import JobService

    workload = workloads.build("serve_mixed", TINY["serve_mixed"])
    inputs = workload.setup(5)
    stepped = workload.run(inputs, harness.SpanRecorder("t")).service
    whole = JobService(devices=TINY["serve_mixed"]["devices"], workers=1,
                       max_backlog=len(inputs.jobs), quota=len(inputs.jobs))
    for at_cycles, spec in inputs.jobs:
        whole.schedule(spec, at_cycles=at_cycles)
    whole.run_until_idle()

    def modelled(service):
        summary = vars(service.summary()).copy()
        summary.pop("host_elapsed_seconds")
        return summary, [
            (s.job_id, s.state, s.latency_cycles) for s in service.jobs()
        ]

    assert modelled(stepped) == modelled(whole)


def test_tiny_serve_reports_latency_and_queueing(tiny_results):
    layer = tiny_results["serve_mixed"]["per_layer"]
    assert layer["serve.jobs_admitted"]["value"] == TINY["serve_mixed"]["jobs"]
    assert layer["serve.jobs_rejected"]["value"] == 0
    assert (layer["serve_latency_p90_cycles"]["value"]
            >= layer["serve_latency_p50_cycles"]["value"] > 0)
    assert layer["model_makespan_cycles"]["value"] > 0
