"""``tools/bench_explain.py`` over two synthetic benchmark results."""

import json
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_explain.py"


def _result(workload, host_wall_s, engine_s, emit_s, cycles):
    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {
        "workload": workload,
        "modelled_metrics": ["hw.cycles.bqsr", "hw.flits.bqsr"],
        "end_to_end": {
            "setup_s": metric(0.40, "s"),
            "host_wall_s": metric(host_wall_s, "s"),
            "host_peak_rss_mb": metric(60.0, "MB"),
        },
        "per_layer": {
            "hw.engine_s.bqsr": metric(engine_s, "s"),
            "hw.engine_s.metadata": metric(0.020, "s"),
            "genomics.emit_s": metric(emit_s, "s"),
            "hw.cycles.bqsr": metric(cycles, "cycles"),
            "hw.flits.bqsr": metric(900, "count"),
        },
    }


def _explain(tmp_path, parent, change):
    paths = []
    for name, document in (("parent", parent), ("change", change)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(document))
    done = subprocess.run(
        [sys.executable, str(TOOL), *map(str, paths)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_names_the_gate_the_exact_metric_and_the_layer(tmp_path):
    """A report against a one-workload result: the shared workload is
    explained — end to end against the BENCHMARK.json bound, the moved
    modelled metric flagged, host movers grouped by layer, biggest first
    — and the tool still exits 0 (it explains, it does not gate)."""
    parent = {"workloads": {
        "preprocess_serial": _result(
            "preprocess_serial", 0.100, 0.050, 0.0100, 7000),
        "sql_fast": _result("sql_fast", 0.3, 0.0, 0.0, 0),
    }}
    change = _result("preprocess_serial", 0.140, 0.080, 0.0101, 7001)
    lines = _explain(tmp_path, parent, change)

    assert lines[0] == "== preprocess_serial"
    assert not any("sql_fast" in line for line in lines)
    (wall,) = [line for line in lines if "host_wall_s" in line]
    assert "worse by +40.0%" in wall and "OVER BOUND 25%" in wall
    (setup,) = [line for line in lines if "setup_s" in line]
    assert "worse by +0.0%" in setup and "within 25%" in setup
    (moved,) = [line for line in lines if "MOVED" in line]
    assert "must be exact: hw.cycles.bqsr 7000 -> 7001 cycles" in moved
    assert any("modelled: 1 exact metrics identical" in line for line in lines)
    movers = [line.split()[0:2] for line in lines if " worse by " in line][3:]
    assert movers == [
        ["hw:", "hw.engine_s.bqsr"], ["genomics:", "genomics.emit_s"],
    ]


def test_untraced_results_explain_end_to_end_only(tmp_path):
    parent = _result("sql_fast", 0.30, 0.0, 0.0, 0)
    del parent["per_layer"]
    lines = _explain(tmp_path, parent, parent)
    assert sum(" worse by +0.0%" in line for line in lines) == 3
    assert "no per-layer metrics" in lines[-1]
