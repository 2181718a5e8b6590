"""A/A check: two sets of runs of one checkout, compared as the
benchmark's driver compares a change with its parent.

    python3 e2e_bench/aa_check.py [--runs N] [--seed S] [--seconds T]

Each set is, per workload, N untraced runs on N different seeds (the same
seeds in both sets) plus one traced run.  Prints, per workload x
end-to-end metric, both medians, how much worse the second is, each set's
spread ((Q3 - Q1) / median) and pass/fail against the bound in
``BENCHMARK.json``; every modelled metric, exact counter and output
fingerprint of the traced runs must be identical.  Exit code 1 if
anything fails.  The driver uses N = 10; the default 5 takes ~25 min.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def spread(values) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def measure_set(workload: str, seeds, seconds: float) -> dict:
    runs = [run.invoke(workload, seed, seconds, 0) for seed in seeds]
    traced = run.invoke(workload, seeds[0], seconds, 1)
    return {
        "correct": traced["correct"] and all(r["correct"] for r in runs),
        "values": {
            name: [r["end_to_end"][name]["value"] for r in runs]
            for name in runs[0]["end_to_end"]
        },
        "exact": {
            name: traced["per_layer"][name]["value"]
            for name in traced["modelled_metrics"]
        },
        "fingerprint": traced["fingerprint"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("a spread needs --runs >= 2")
    spec = run.load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    seeds = [args.seed + i for i in range(args.runs)]
    names = [w["name"] for w in spec["workloads"]]
    sets = [
        {name: measure_set(name, seeds, seconds) for name in names}
        for _ in range(2)
    ]

    ok = True
    print(f"{'workload':<30}{'metric':<18}{'first':>10}{'second':>10}"
          f"{'worse by':>10}{'spreads':>14}{'bound':>7}  verdict")
    for name in names:
        first, second = sets[0][name], sets[1][name]
        for metric in spec["end_to_end"]:
            a = first["values"][metric["name"]]
            b = second["values"][metric["name"]]
            worse = worse_by(
                statistics.median(a), statistics.median(b), metric["better"]
            )
            # as the driver: setup_s is held to the median shift only
            passed = worse <= metric["bound"] and (
                metric["name"] == "setup_s"
                or max(spread(a), spread(b)) <= metric["bound"]
            )
            ok = ok and passed
            print(f"{name:<30}{metric['name']:<18}"
                  f"{statistics.median(a):>10.4g}{statistics.median(b):>10.4g}"
                  f"{worse:>+10.1%}{spread(a):>7.1%}{spread(b):>7.1%}"
                  f"{metric['bound']:>7.0%}  {'pass' if passed else 'FAIL'}")
        moved = [k for k in first["exact"]
                 if first["exact"][k] != second["exact"][k]]
        passed = (first["correct"] and second["correct"] and not moved
                  and first["fingerprint"] == second["fingerprint"])
        ok = ok and passed
        print(f"{name:<30}{'modelled, exact':<18}{'':>44}{'0%':>7}  "
              f"{'pass' if passed else 'FAIL ' + ', '.join(moved)}")
    print("A/A " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
