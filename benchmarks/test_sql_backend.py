"""The vectorized SQL backend's speedup gate.

The multi-backend engine only earns its keep if the ``fast`` backend
beats the row-at-a-time reference by an order of magnitude on the
figure-scale stage scripts.  This gate measures **backend execution
time only** (the ``sql_operator_seconds`` counters, via
:func:`sql_stage_backend_seconds`) so host-side prep common to both
backends does not dilute the ratio, takes the median of three runs per
backend, and requires ≥10x on every stage.

Measured on a 2-vCPU host: 36x / 172x / 232x (markdup / metadata /
BQSR) with the dense-key slot kernels for JOIN and GROUP BY, against
27x / 119x / 134x with the sort kernels alone.  The report also breaks
the fast backend's seconds down by operator (join, group_by,
explode_reads, project, filter), summed over the three stages, so the
gate says where backend time sits.
"""

from __future__ import annotations

import copy
import statistics
from typing import Dict, Optional

import pytest

from repro.eval.workloads import make_workload
from repro.gatk.sql_driver import (
    sql_build_covariate_tables,
    sql_mark_duplicates,
    sql_update_metadata,
)
from repro.obs import MetricsRegistry

#: The gate: vectorized backend execution must be at least this much
#: faster than the reference interpreter, per stage.
MIN_SPEEDUP = 10.0

STAGES = ("markdup", "metadata", "bqsr")

#: The fast backend's operators the report breaks its seconds down by.
OPERATORS = ("join", "group_by", "explode_reads", "project", "filter")


@pytest.fixture(scope="module")
def gate_workload():
    """Figure-scale inputs: enough reads and partition width that the
    vectorized kernels run in their intended regime."""
    return make_workload(
        n_reads=400,
        read_length=100,
        chromosomes=(20,),
        genome_scale=4.5e-5,
        psize=8000,
        seed=5,
    )


def sql_stage_backend_seconds(
    workload, backend: str, by_operator: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Backend execution seconds of the three SQL stage drivers.

    Runs the markdup/metadata/BQSR stage scripts of
    :mod:`repro.gatk.sql_driver` on ``backend`` and charges only the
    plan-execution time — the ``sql_operator_seconds`` counters the
    executor publishes — so host-side prep common to every backend does
    not dilute the comparison.  Returns ``{stage: seconds}``; a given
    ``by_operator`` dict also gains each operator's seconds, summed over
    the three stages.
    """
    runs = {
        "markdup": lambda metrics: sql_mark_duplicates(
            copy.deepcopy(workload.reads), backend=backend, metrics=metrics
        ),
        "metadata": lambda metrics: sql_update_metadata(
            workload.partitions, workload.reference, workload.read_length,
            backend=backend, metrics=metrics,
        ),
        "bqsr": lambda metrics: sql_build_covariate_tables(
            workload.group_partitions, workload.reference,
            workload.read_length, backend=backend, metrics=metrics,
        ),
    }
    out: Dict[str, float] = {}
    for stage, run in runs.items():
        metrics = MetricsRegistry()
        run(metrics)
        out[stage] = float(metrics.total("sql_operator_seconds"))
        if by_operator is not None:
            for labels, counter in metrics.values("sql_operator_seconds").items():
                op = dict(labels)["op"]
                by_operator[op] = by_operator.get(op, 0.0) + counter.value
    return out


def _median_stage_seconds(workload, backend: str, repeats: int = 3):
    """Per-stage and per-operator median seconds over ``repeats`` runs."""
    samples, operators = [], []
    for _ in range(repeats):
        operators.append({})
        samples.append(
            sql_stage_backend_seconds(workload, backend, operators[-1])
        )
    stages = {
        stage: statistics.median(sample[stage] for sample in samples)
        for stage in STAGES
    }
    by_operator = {
        op: statistics.median(sample.get(op, 0.0) for sample in operators)
        for op in OPERATORS
    }
    return stages, by_operator


def test_fast_backend_10x_gate(gate_workload, report):
    """Median backend-execution speedup ≥10x on every stage script."""
    reference, _ = _median_stage_seconds(gate_workload, "reference")
    fast, fast_by_operator = _median_stage_seconds(gate_workload, "fast")
    speedups = {
        stage: reference[stage] / max(fast[stage], 1e-9) for stage in STAGES
    }
    report(
        "SQL backend speedup (fast vs reference, backend execution only)",
        [
            f"{stage:<10} {reference[stage]:>8.4f}s -> {fast[stage]:>8.4f}s"
            f"  ({speedups[stage]:.1f}x)"
            for stage in STAGES
        ] + ["fast backend, per operator (three stages summed):"] + [
            f"  {op:<14} {fast_by_operator[op]:>8.4f}s" for op in OPERATORS
        ],
    )
    for stage, speedup in speedups.items():
        assert speedup >= MIN_SPEEDUP, (
            f"{stage}: fast backend only {speedup:.1f}x vs reference "
            f"(gate {MIN_SPEEDUP}x); reference {reference[stage]:.4f}s, "
            f"fast {fast[stage]:.4f}s"
        )
