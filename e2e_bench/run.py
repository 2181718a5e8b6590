"""End-to-end benchmark of the Genesis reproduction: one command, four
workloads, two clocks, every layer.

Benchmark-contract form (one workload, one JSON object on the last line)::

    python3 e2e_bench/run.py --workload preprocess_serial --seed 2024 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones from the traced iterations.  Without
``--workload`` it runs all four workloads both ways, each in a fresh
subprocess, prints the full tables and writes ``e2e_bench/out/report.json``.

See README.md for what each metric means and which should move when.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Set-up is sampled this many times in a run, at even distances over
#: ``--seconds`` between the timed iterations: samples taken back to
#: back share one phase of the host, and ``setup_s`` takes the fastest.
SETUP_SAMPLES = 6
#: A timing comes from at least this many iterations, however slow the
#: host (a traced run alternates traced and untraced ones).
MIN_ITERATIONS = 3
#: Host timings are the *fastest* of the repeats, and ``host_wall_s``
#: takes the fastest step by step (``harness.fastest_steps``).
#: Interference on a shared host only ever adds time, and on the
#: reference host it comes in bursts with quiet moments of well under a
#: second between them (README.md "Measured spread").  Median, min, max,
#: n and the raw whole-iteration samples are kept in the result file.
best = min

_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); "
    f"sys.path[:0] = [{str(BENCH_DIR)!r}, {str(SRC)!r}]; "
    "import workloads; print(time.perf_counter() - t)"
)


def program_on_path() -> None:
    """Make ``harness``/``workloads`` and the program under test
    (``src/repro``) importable, wherever the command was started."""
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _import_seconds() -> float:
    """Wall seconds a fresh interpreter needs to import everything the
    workloads use — the part of set-up a process pays once."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
        text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def layer_split(m: Dict[str, float], traced_wall: float) -> Dict[str, float]:
    """Host seconds of the traced region per layer.  Engine time runs
    inside ``run_sharded`` / the serve loop, so it is moved out of the
    enclosing layer using the engine seconds the returned stats report
    (critical worker only, so the shares add up to the wall)."""
    stages = ("markdup", "metadata", "bqsr")
    accel_wall = sum(m[f"accel.stage_s.{s}"] for s in stages)
    accel_own = sum(m[f"accel.nonengine_s.{s}"] for s in stages)
    return {
        "genomics": m["genomics.ingest_s"] + m["genomics.emit_s"],
        "tables": m["tables.build_s"],
        "storage": m["storage.plan_s"],
        "accel": accel_own + m["accel.merge_s"],
        "hw": (accel_wall - accel_own) + (m["serve.run_s"] - m["serve.loop_s"]),
        "serve": m["serve.schedule_s"] + m["serve.loop_s"],
        "sql": sum(m[f"sql.stage_s.{s}"] for s in stages),
        "unattributed": m["harness.unattributed_frac"] * traced_wall,
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: int,
    scale: Optional[dict] = None,
) -> dict:
    """Measure one workload in this process; returns the full result
    (contract fields plus raw samples, environment and fingerprint).
    ``scale`` is the test-only override; the CLI never passes it."""
    program_on_path()
    import harness
    import workloads

    spec = load_spec()
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workload = workloads.build(name, scale)

    import_samples: List[float] = []
    generate_samples: List[float] = []

    def set_up():
        """One more sample of set-up; returns the inputs."""
        import_samples.append(_import_seconds())
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        generate_samples.append(time.perf_counter() - t0)
        return inputs

    # --seconds covers everything measured: every sample of set-up, the
    # stand-alone probes of a traced run and the timed iterations
    started = time.perf_counter()
    inputs = set_up()
    probe = workload.probe(inputs) if trace else {}

    walls: Dict[bool, List[float]] = {False: [], True: []}
    steps: Dict[bool, List[List[float]]] = {False: [], True: []}
    fastest_traced: Optional[tuple] = None  # (metrics, recorder)
    ops = harness.OpTally()
    problems: List[str] = []
    exact_first: Optional[Dict[str, float]] = None
    iteration = 0
    # stop where the measured time lands nearest to --seconds
    while iteration < MIN_ITERATIONS or (
        time.perf_counter() - started
        + 0.5 * statistics.median(walls[False] + walls[True]) < seconds
    ):
        due = seconds * len(import_samples) / SETUP_SAMPLES
        if (len(import_samples) < SETUP_SAMPLES
                and time.perf_counter() - started >= due):
            # the same seed gives the same inputs; the old ones go first
            # so that two sets never add up in host_peak_rss_mb
            inputs = None
            inputs = set_up()
        traced = bool(trace) and iteration % 2 == 0
        rec = harness.SpanRecorder(name, enabled=traced)
        t0 = time.perf_counter()
        with rec.span("harness.iteration"):
            out = workload.run(inputs, rec)
        wall = time.perf_counter() - t0
        walls[traced].append(wall)
        steps[traced].append(rec.steps)

        tally, whole = workload.check(inputs, out)
        ops.attempted += tally.attempted
        ops.failed += tally.failed
        if tally.failed or not whole:
            problems.append(
                f"iteration {iteration}: {tally.failed}/{tally.attempted} "
                f"operations differ from the repro.gatk oracle"
                + ("" if whole else "; whole-run output check failed")
            )
        metrics = workload.metrics(inputs, out, rec, probe)
        unknown = sorted(set(metrics) - set(layer_units))
        if unknown:
            raise KeyError(f"metrics not in BENCHMARK.json: {unknown}")
        exact = {k: v for k, v in metrics.items() if k in workloads.MODELLED}
        if exact_first is None:
            exact_first = exact
        elif exact != exact_first:
            moved = sorted(
                k for k in exact if exact[k] != exact_first.get(k)
            )
            problems.append(
                f"iteration {iteration}: modelled metrics moved between "
                f"repeats: {moved}"
            )
        if traced and wall == best(walls[True]):
            fastest_traced = (metrics, rec)
        iteration += 1

    host_wall = harness.fastest_steps(steps[False])
    end_to_end = {
        "setup_s": best(import_samples) + best(generate_samples),
        "host_wall_s": host_wall,
        "host_peak_rss_mb": harness.peak_rss_mb(),
    }
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": workload.scale,
        "environment": harness.environment(str(ROOT)),
        "correct": not problems,
        "problems": problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "fingerprint": workload.fingerprint(out),
        "modelled_metrics": sorted(workloads.MODELLED),
        "samples": {
            "import_s": harness.summarize(import_samples),
            "generate_s": harness.summarize(generate_samples),
            "host_wall_s": harness.summarize(walls[False]),
        },
        "end_to_end": {
            k: {"value": v, "unit": e2e_units[k]} for k, v in end_to_end.items()
        },
    }
    if trace:
        # one coherent set of numbers: those of the fastest traced iteration
        metrics, rec = fastest_traced
        traced_wall = best(walls[True])
        layer = {metric: metrics.get(metric, 0.0) for metric in layer_units}
        layer["host_reads_per_s"] = workload.stage_reads(inputs) / host_wall
        layer["ops_failed_frac"] = ops.failed_frac
        layer["harness.trace_overhead_frac"] = (
            harness.fastest_steps(steps[True]) / host_wall - 1.0
        )
        layer["harness.unattributed_frac"] = harness.unattributed_frac(rec.spans)
        result["samples"]["traced_wall_s"] = harness.summarize(walls[True])
        result["per_layer"] = {
            k: {"value": v, "unit": layer_units[k]} for k, v in layer.items()
        }
        result["layer_split_s"] = layer_split(layer, traced_wall)
        result["spans"] = rec.to_json()
    return result


# -- presentation -------------------------------------------------------------------


def _format(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):>14d}"
    return f"{value:>14.6g}"


def render(result: dict) -> str:
    lines = [
        f"== {result['workload']} (seed {result['seed']}, "
        f"{result['samples']['host_wall_s']['n']} untraced iterations, "
        f"{result['failed']}/{result['attempted']} operations failed)"
    ]
    wall = result["samples"]["host_wall_s"]
    lines.append(
        f"   whole iterations: min {wall['min']:.4f} median "
        f"{wall['median']:.4f} max {wall['max']:.4f} n {wall['n']}"
    )
    zero = []
    for section in ("end_to_end", "per_layer"):
        for name, metric in result.get(section, {}).items():
            if metric["value"] == 0:
                zero.append(name)
                continue
            lines.append(
                f"   {name:<34}{_format(metric['value'])} {metric['unit']}"
            )
    if zero:
        lines.append(f"   zero on this workload: {', '.join(zero)}")
    if "layer_split_s" in result:
        total = sum(result["layer_split_s"].values())
        shares = ", ".join(
            f"{layer} {seconds / total:.1%}"
            for layer, seconds in result["layer_split_s"].items() if seconds
        )
        lines.append(f"   layer split of the traced wall: {shares}")
    lines.extend(f"   PROBLEM: {problem}" for problem in result["problems"])
    return "\n".join(lines)


def contract_line(result: dict) -> str:
    section = "per_layer" if result["trace"] else "end_to_end"
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result[section],
    })


# -- entry points ---------------------------------------------------------------------


def run_isolated(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in this process, with the working directory moved
    to a scratch directory under ``out/`` so nothing the program writes
    relative to ``cwd`` (``.repro/ledger.jsonl``) lands in the checkout."""
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="cwd-", dir=OUT_DIR)
    home = os.getcwd()
    os.chdir(scratch)
    try:
        result = run_workload(name, seed, seconds, trace)
    finally:
        os.chdir(home)
        shutil.rmtree(scratch, ignore_errors=True)
    spans = result.pop("spans", None)
    if spans is not None:
        with open(OUT_DIR / f"trace_{name}.json", "w") as handle:
            json.dump({"workload": name, "seed": seed, "spans": spans}, handle)
    with open(OUT_DIR / f"result_{name}_trace{trace}.json", "w") as handle:
        json.dump(result, handle, indent=1)
    return result


def invoke(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One contract-form run in a fresh subprocess; returns its result
    file.  Runs are made one at a time, so at most ``nproc`` processes
    are ever busy."""
    path = OUT_DIR / f"result_{workload}_trace{trace}.json"
    path.unlink(missing_ok=True)
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if not path.exists():
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} --trace {trace} crashed")
    with open(path) as handle:
        return json.load(handle)


def run_suite(seed: int, seconds: float) -> dict:
    """All four workloads, untraced then traced."""
    spec = load_spec()
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        merged = invoke(workload, seed, seconds, 0)
        traced = invoke(workload, seed, seconds, 1)
        merged["per_layer"] = traced["per_layer"]
        merged["layer_split_s"] = traced["layer_split_s"]
        merged["samples"]["traced_wall_s"] = traced["samples"]["traced_wall_s"]
        merged["correct"] = merged["correct"] and traced["correct"]
        merged["problems"] += traced["problems"]
        report["workloads"][workload] = merged
        print(render(merged), flush=True)
    serial = report["workloads"]["preprocess_serial"]
    sharded = report["workloads"]["preprocess_sharded_filtered"]
    report["sharded_equals_serial"] = (
        serial["fingerprint"] == sharded["fingerprint"]
    )
    report["correct"] = report["sharded_equals_serial"] and all(
        w["correct"] for w in report["workloads"].values()
    )
    report["environment"] = serial["environment"]
    report["claim"] = None
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload is None:
        report = run_suite(args.seed, seconds)
        with open(OUT_DIR / "report.json", "w") as handle:
            json.dump(report, handle, indent=1)
        if not report["sharded_equals_serial"]:
            print("PROBLEM: preprocess_sharded_filtered outputs or kernel "
                  "cycles differ from preprocess_serial")
        print(f"wrote {OUT_DIR / 'report.json'}; correct={report['correct']}")
        return 0 if report["correct"] else 1
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run_isolated(args.workload, args.seed, seconds, args.trace)
    print(render(result))
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
