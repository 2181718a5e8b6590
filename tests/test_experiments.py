"""Tests for the per-figure experiment drivers."""

import pytest

from repro.eval.experiments import (
    PAPER_TARGETS,
    figure1_sequencing_cost,
    figure8_scaling,
    figure9_breakdown,
    figure13,
    figure13_per_chromosome,
    measure_cycles_per_base,
    table3,
    table4_estimates,
)
from repro.eval.workloads import make_workload
from repro.hw.resources import VU9P_BRAM_BYTES, VU9P_LUTS, VU9P_REGISTERS
from repro.perf.cpu_model import PAPER_READS
from repro.perf.timing import model_stage


@pytest.fixture(scope="module")
def tiny_workload():
    return make_workload(
        n_reads=60, read_length=50, chromosomes=(21,), genome_scale=1e-6,
        psize=2000, seed=5,
    )


def test_figure1_cost_monotonically_falls():
    data = figure1_sequencing_cost()
    years = [year for year, _ in data]
    costs = [cost for _, cost in data]
    assert years == sorted(years)
    assert costs[0] > 9e7 and costs[-1] < 1100  # $100M -> ~$1000 (Figure 1)
    # The fall is five orders of magnitude.
    assert costs[0] / costs[-1] > 1e4


def test_figure9_driver_shapes():
    result = figure9_breakdown()
    assert set(result) == {"gatk4", "gatk4_with_alignment_accel", "seconds"}


def test_figure9_shares_match_the_paper():
    """Model ≈ paper in tier-1 (ROADMAP 1(b)) at the tolerances of
    ``benchmarks/test_fig9_runtime_breakdown.py``: every GATK4 stage's
    runtime share within ±0.03 of Fig. 9's; with alignment accelerated,
    alignment below 0.03 and the four GATK stages above 0.9 together."""
    result = figure9_breakdown()
    for stage, target in PAPER_TARGETS["fig9_fractions"].items():
        assert result["gatk4"][stage] == pytest.approx(target, abs=0.03), stage
    accelerated = result["gatk4_with_alignment_accel"]
    assert accelerated["alignment"] < 0.03
    assert sum(
        accelerated[stage]
        for stage in ("markdup", "metadata", "bqsr_table", "bqsr_update")
    ) > 0.9


def test_measured_cpb_close_to_one(tiny_workload):
    for stage in ("markdup", "metadata", "bqsr_table"):
        measurement = measure_cycles_per_base(stage, tiny_workload)
        assert 0.9 < measurement.cycles_per_base < 2.5, stage


#: Exact (cycles, bases) of each accelerator on the calibration workload
#: below.  The modelled clock is a pure function of the input, so these
#: do not drift by accident: a deliberate modelled-clock change (ROADMAP
#: items 1 and 4) re-pins them in the same PR.
CALIBRATION_CYCLES_AND_BASES = {
    "markdup": (3244, 3200),
    "metadata": (3449, 3200),
    "bqsr_table": (2796, 2480),
}


def test_model_calibration_is_pinned():
    """Model ≈ paper, in tier-1 (ROADMAP 3(c)): cycles/base exact and
    repeatable, every Fig. 13 speed-up with a paper target within 10 %
    of it (worst today: bqsr_table on PCIe 4, 6.7 %)."""
    workload = make_workload(
        n_reads=40, read_length=80, chromosomes=(20,), genome_scale=4.5e-5,
        psize=2000, seed=2024,
    )
    for stage, pinned in CALIBRATION_CYCLES_AND_BASES.items():
        first = measure_cycles_per_base(stage, workload)
        assert (first.cycles, first.bases) == pinned, stage
        assert measure_cycles_per_base(stage, workload) == first, stage
    timings = figure13(workload)
    for link, targets in (("pcie3", "speedup"), ("pcie4", "speedup_pcie4")):
        for stage, target in PAPER_TARGETS[targets].items():
            assert timings[link][stage].speedup == pytest.approx(
                target, rel=0.10
            ), (link, stage)


def test_table3_from_measured_cycles_matches_the_paper():
    """Table III from the calibration workload's measured cycles/base
    (pinned above), at the tolerances of ``benchmarks/test_table3_cost.py``:
    metadata and BQSR cost reduction within 40 % of the paper, metadata
    performance per dollar within 60 %, and cost reduction ordered
    metadata > BQSR > markdup (the paper's markdup row omits the price
    ratio, EXPERIMENTS.md)."""
    rows = table3({
        stage: model_stage(stage, PAPER_READS, 151, cycles / bases)
        for stage, (cycles, bases) in CALIBRATION_CYCLES_AND_BASES.items()
    })
    for stage in ("metadata", "bqsr_table"):
        assert rows[stage]["cost_reduction"] == pytest.approx(
            PAPER_TARGETS["cost_reduction"][stage], rel=0.4
        ), stage
    assert rows["metadata"]["performance_per_dollar"] == pytest.approx(
        PAPER_TARGETS["performance_per_dollar"]["metadata"], rel=0.6
    )
    assert (
        rows["metadata"]["cost_reduction"]
        > rows["bqsr_table"]["cost_reduction"]
        > rows["markdup"]["cost_reduction"]
    )


def test_untimed_stage_kernel_cycles_are_pinned():
    """The stages with no timing-model row, pinned the same way on the
    same workload: together with the calibration above and
    ``tests/data/event_values.json`` every stage built on the shared
    read ⋈ reference front end has its modelled clock held exactly."""
    workload = make_workload(
        n_reads=40, read_length=80, chromosomes=(20,), genome_scale=4.5e-5,
        psize=2000, seed=2024,
    )
    for stage, pinned in {
        "example": (3430, 3200), "active_region": (3436, 3200),
    }.items():
        measured = measure_cycles_per_base(stage, workload)
        assert (measured.cycles, measured.bases) == pinned, stage


def test_measure_unknown_stage(tiny_workload):
    with pytest.raises(KeyError):
        measure_cycles_per_base("alignment", tiny_workload)


def test_per_chromosome_speedups(tiny_workload):
    speedups = figure13_per_chromosome(tiny_workload, "metadata")
    assert set(speedups) == {21}
    assert speedups[21] > 5


def test_table3_derivation():
    timings = {
        stage: model_stage(stage, 700e6, 151)
        for stage in ("markdup", "metadata", "bqsr_table")
    }
    rows = table3(timings)
    target = PAPER_TARGETS["cost_reduction"]
    assert rows["metadata"]["cost_reduction"] == pytest.approx(
        target["metadata"], rel=0.2
    )
    assert rows["bqsr_table"]["cost_reduction"] == pytest.approx(
        target["bqsr_table"], rel=0.2
    )


def test_table4_fits_on_vu9p_and_orders_like_paper():
    estimates = table4_estimates()
    for name, vector in estimates.items():
        assert vector.luts < VU9P_LUTS, name
        assert vector.registers < VU9P_REGISTERS, name
        assert vector.bram_bytes < VU9P_BRAM_BYTES, name
    # Paper ordering: BQSR most LUTs, metadata most BRAM, markdup smallest.
    assert estimates["bqsr_table"].luts > estimates["metadata"].luts
    assert estimates["metadata"].luts > estimates["markdup"].luts
    assert estimates["metadata"].bram_bytes > estimates["bqsr_table"].bram_bytes
    assert estimates["metadata"].bram_bytes > estimates["markdup"].bram_bytes


def test_table4_within_2x_of_paper():
    estimates = table4_estimates()
    for name, (luts, _regs, bram_mb) in PAPER_TARGETS["resources"].items():
        model = estimates[name]
        assert 0.5 < model.luts / luts < 2.0, name
        assert 0.5 < (model.bram_bytes / 1048576) / bram_mb < 2.0, name


def test_figure8_throughput_scales_then_saturates():
    throughput = figure8_scaling(pipeline_counts=(1, 2, 4))
    assert throughput[2] > 1.5 * throughput[1]
    assert throughput[4] > throughput[2]
