#!/usr/bin/env python
"""Explain what moved between two results of the repo benchmark.

    python tools/bench_explain.py PARENT.json CHANGE.json

Each file is an ``e2e_bench/out/report.json`` (all four workloads) or a
``result_<workload>_trace<0|1>.json`` (one).  Per workload present in
both it prints the end-to-end metrics with "worse by" against their
``BENCHMARK.json`` bound, every metric of the file's own
``modelled_metrics`` list that differs at all (those must be exact), and
the host per-layer metrics grouped by layer and ranked by movement — so
a red gate reads "hw: hw.engine_s.bqsr 0.071 -> 0.052 s" rather than
being diffed by hand.

It explains; it does not gate: the driver and ``e2e_bench/aa_check.py``
do, over ten runs a side, and this always exits 0.
"""

import argparse
import json
import math
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "e2e_bench"))

import aa_check  # noqa: E402  (the one comparison rule lives there)
import run  # noqa: E402

#: Host per-layer movers shown per layer; the rest are counted.
TOP_PER_LAYER = 3


def workloads_of(document: dict) -> dict:
    """``{workload: result}`` of a report or of a one-workload result."""
    if "workloads" in document:
        return document["workloads"]
    return {document["workload"]: document}


def worse_by(first: float, second: float, better: str) -> float:
    """``aa_check.worse_by``, defined where the parent reads zero."""
    if first == second:
        return 0.0
    if first == 0:
        return math.inf
    return aa_check.worse_by(first, second, better)


def line(name: str, first: dict, second: dict, worse: float) -> str:
    return (f"{name:<36}{first['value']:>12.6g} -> {second['value']:<12.6g}"
            f"{first['unit']:<9} worse by {worse:+.1%}")


def explain(name: str, parent: dict, change: dict, spec: dict) -> list:
    out = [f"== {name}"]
    for metric in spec["end_to_end"]:
        a = parent["end_to_end"][metric["name"]]
        b = change["end_to_end"][metric["name"]]
        worse = worse_by(a["value"], b["value"], metric["better"])
        verdict = "OVER BOUND" if worse > metric["bound"] else "within"
        out.append("   " + line(metric["name"], a, b, worse)
                   + f"  ({verdict} {metric['bound']:.0%})")
    layers_a = parent.get("per_layer")
    layers_b = change.get("per_layer")
    if not layers_a or not layers_b:
        out.append("   no per-layer metrics in both files (--trace 0 results)")
        return out
    modelled = set(parent["modelled_metrics"])
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    exact = 0
    moved = {}  # layer -> [(worse by, metric name)]
    for metric in sorted(set(layers_a) & set(layers_b)):
        a, b = layers_a[metric], layers_b[metric]
        if a["value"] == b["value"]:
            exact += metric in modelled
        elif metric in modelled:
            out.append(f"   MOVED — must be exact: {metric} "
                       f"{a['value']!r} -> {b['value']!r} {a['unit']}")
        else:
            worse = worse_by(a["value"], b["value"], better.get(metric, "lower"))
            layer = metric.split(".")[0] if "." in metric else "end to end"
            moved.setdefault(layer, []).append((worse, metric))
    out.append(f"   modelled: {exact} exact metrics identical")
    ranked = sorted(
        moved.items(), key=lambda item: -max(abs(w) for w, _ in item[1])
    )
    for layer, movers in ranked:
        movers.sort(key=lambda mover: -abs(mover[0]))
        for worse, metric in movers[:TOP_PER_LAYER]:
            out.append(f"   {layer + ':':<12}"
                       + line(metric, layers_a[metric], layers_b[metric], worse))
        if len(movers) > TOP_PER_LAYER:
            out.append(f"   {layer + ':':<12}(+{len(movers) - TOP_PER_LAYER} "
                       "more moved less)")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT.json")
    parser.add_argument("change", metavar="CHANGE.json")
    args = parser.parse_args()
    documents = []
    for path in (args.parent, args.change):
        with open(path) as handle:
            documents.append(workloads_of(json.load(handle)))
    parent, change = documents
    spec = run.load_spec()
    shared = [name for name in parent if name in change]
    if not shared:
        print("no workload is present in both files")
    for name in shared:
        print("\n".join(explain(name, parent[name], change[name], spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
