"""Evaluation harness: standard workloads and per-figure experiment drivers."""

from .experiments import (
    NHGRI_COST_PER_GENOME,
    PAPER_TARGETS,
    CpbMeasurement,
    figure1_sequencing_cost,
    figure8_scaling,
    figure9_breakdown,
    figure13,
    figure13_per_chromosome,
    measure_cycles_per_base,
    table3,
    table4_estimates,
)
from .workloads import Workload, make_workload

__all__ = [
    "CpbMeasurement",
    "NHGRI_COST_PER_GENOME",
    "PAPER_TARGETS",
    "Workload",
    "figure13",
    "figure13_per_chromosome",
    "figure1_sequencing_cost",
    "figure8_scaling",
    "figure9_breakdown",
    "make_workload",
    "measure_cycles_per_base",
    "table3",
    "table4_estimates",
]
