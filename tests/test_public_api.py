"""Public API surface checks: everything advertised imports and works."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.accel",
    "repro.eval",
    "repro.faults",
    "repro.gatk",
    "repro.genomics",
    "repro.hw",
    "repro.hw.modules",
    "repro.obs",
    "repro.perf",
    "repro.runtime",
    "repro.serve",
    "repro.sql",
    "repro.storage",
    "repro.tables",
    "repro.variants",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_sorted_unique(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", []))
    assert len(exported) == len(set(exported)), f"{name} has duplicate exports"


def test_obs_exports_no_retired_bench_names():
    """The in-package perf harness is retired: ``e2e_bench/`` and
    ``benchmarks/`` are the performance authority, so ``repro.obs``
    exports none of its names."""
    import repro.obs

    retired = [
        symbol for symbol in repro.obs.__all__
        if any(part in symbol.lower() for part in ("bench", "sweep", "probe"))
    ]
    assert retired == []


def test_model_constants_are_declared_once():
    """``repro.constants`` is the one declaration; the device model,
    the timing model, the storage filter and the analyzers re-export or
    default to the same objects, not equal-valued copies."""
    import ast
    import inspect

    from repro import constants
    from repro.obs import analyze, spans
    from repro.perf import timing
    from repro.runtime import device
    from repro.storage import filter as storage_filter

    for name, homes in {
        "CLOCK_HZ": (device, timing, analyze, spans),
        "PCIE3_BANDWIDTH": (device, timing, analyze, storage_filter),
        "PCIE4_BANDWIDTH": (timing, analyze),
        "MODEL_ROW_BYTES": (device, analyze, storage_filter),
        "DESCRIPTOR_BYTES": (analyze, storage_filter),
    }.items():
        for home in homes:
            assert getattr(home, name) is getattr(constants, name), (
                f"{home.__name__}.{name} is a second declaration"
            )
    what_if = inspect.signature(analyze.storage_what_if).parameters
    assert what_if["pcie_bandwidth"].default is constants.PCIE3_BANDWIDTH
    assert dict(analyze.STORAGE_WHAT_IF_GENERATIONS) == {
        "pcie3": constants.PCIE3_BANDWIDTH, "pcie4": constants.PCIE4_BANDWIDTH,
    }
    fold = inspect.signature(spans.trace_spans).parameters
    assert fold["clock_hz"].default is constants.CLOCK_HZ
    assert device.DeviceConfig().clock_hz is constants.CLOCK_HZ
    # and the leaf imports nothing, so anything may import it
    tree = ast.parse(inspect.getsource(constants))
    assert not [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


#: The run path's callables and every parameter they take (``self`` /
#: ``cls`` aside).  A parameter stays only while something outside
#: ``tests/`` sets it (EXPERIMENTS.md "Seams in traffic" has the setter
#: of each), so adding one is a deliberate edit here, not a default
#: argument nobody notices.
RUN_PATH_SIGNATURES = {
    "repro.accel.scheduler:WaveDriver.run_wave": ("wave", "probe"),
    "repro.accel.scheduler:WaveDriver.run_one": ("part",),
    "repro.accel:run_quality_sums": ("quals", "memory_config"),
    "repro.accel:run_metadata_update": (
        "partition", "ref_row", "memory_config",
    ),
    "repro.accel:run_bqsr_partition": (
        "partition", "ref_row", "read_length", "memory_config", "drain",
    ),
    "repro.accel:run_example_query": (
        "partition", "ref_row", "memory_config",
    ),
    "repro.accel:run_active_region_partition": (
        "partition", "ref_row", "memory_config",
    ),
    "repro.accel.scheduler:run_waves": (
        "tasks", "fan_out", "injector", "retry_policy", "wave_timeout",
        "tally",
    ),
    "repro.accel.scheduler:_pool_task": (
        "driver", "index", "wave", "fault_kind", "hang_seconds", "attempt",
    ),
    "repro.accel:load_reference_spm": (
        "ref_row", "memory_config", "with_snp", "mode",
    ),
    "repro.accel:drain_spms": ("spms", "memory_config", "mode"),
    "repro.accel.sharding:run_sharded": (
        "driver", "partitions", "n_pipelines", "devices", "workers",
        "spm_cache", "fault_plan", "retry_policy", "wave_timeout",
        "storage",
    ),
    "repro.accel.sharding:plan_shards": (
        "partitions", "n_pipelines", "devices",
    ),
    "repro.serve:JobService.__init__": (
        "devices", "workers", "max_backlog", "quota", "weights",
        "fault_plan", "retry_policy", "storage",
    ),
    "repro.serve:JobService.resume": ("checkpoint",),
    "repro.runtime:DevicePool.__init__": ("devices", "storage"),
    "repro.runtime:GenesisRuntime.__init__": ("config",),
    "repro.storage:plan_storage_filter": (
        "partitions", "reference", "record",
    ),
    "repro.accel.scheduler:SpmImageCache.__init__": (),
    "repro.obs:Profiler.__init__": ("name",),
    "repro.obs:MetricsRegistry.__init__": (),
    "repro.obs:storage_what_if": (
        "kernel_seconds", "transfer_seconds", "pcie_bandwidth",
    ),
    "repro.obs:device_what_if": ("per_wave_cycles",),
}


@pytest.mark.parametrize("target", sorted(RUN_PATH_SIGNATURES))
def test_run_path_signatures_are_pinned(target):
    import inspect
    from functools import reduce

    module, _, path = target.partition(":")
    func = reduce(getattr, path.split("."), importlib.import_module(module))
    taken = tuple(
        name for name in inspect.signature(func).parameters
        if name != "self"
    )
    assert taken == RUN_PATH_SIGNATURES[target]


def test_stage_table_keys_are_pinned():
    """One table names the stages: the job service's mix and the
    ``profile`` choices are read off it, and every row's driver is the
    stage it is filed under."""
    from repro.accel import PAPER_STAGES, STAGES, stage_named
    from repro.cli import PROFILE_STAGES
    from repro.eval.workloads import make_workload
    from repro.serve import SERVE_STAGES

    assert tuple(STAGES) == (
        "markdup", "metadata", "bqsr", "example", "active_region",
    )
    assert SERVE_STAGES == PAPER_STAGES == ("markdup", "metadata", "bqsr")
    assert PROFILE_STAGES == ("markdup", "metadata", "bqsr", "bqsr_table")
    assert stage_named("bqsr_table") is stage_named("bqsr") is STAGES["bqsr"]
    workload = make_workload(n_reads=4, read_length=30, chromosomes=(21,))
    for name, row in STAGES.items():
        assert row.over(workload).stage == name


def test_accel_namespace_is_stages_executor_and_sharding():
    """``repro.accel`` exports the stage drivers with their serial
    runners, the wave executor and sharding — nothing from a module
    outside those.  The standalone Section IV-E example, ``callset_ops``,
    is imported as a submodule."""
    import repro.accel

    homes = {
        f"repro.accel.{module}" for module in (
            "common", "markdup", "metadata", "bqsr", "example_query",
            "active_region", "stages", "scheduler", "sharding",
        )
    }
    tables = {"STAGES", "PAPER_STAGES"}
    strays = [
        symbol for symbol in repro.accel.__all__
        if symbol not in tables
        and getattr(repro.accel, symbol).__module__ not in homes
    ]
    assert strays == []


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_public_docstrings():
    """Every public package and exported class/function carries a
    docstring (deliverable (e): doc comments on every public item)."""
    import inspect

    missing = []
    for name in PACKAGES:
        module = importlib.import_module(name)
        if not (module.__doc__ or "").strip():
            missing.append(name)
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (getattr(obj, "__doc__", "") or "").strip():
                    missing.append(f"{name}.{symbol}")
    assert not missing, f"undocumented public items: {missing}"


def test_quickstart_snippet_from_readme():
    """The README quickstart must actually run."""
    from repro import make_workload, run_metadata_update
    from repro.gatk import compute_read_metadata
    from repro.tables import table_to_reads

    wl = make_workload(n_reads=30, read_length=50, chromosomes=(21,), seed=2)
    pid, partition = next(
        (p, t) for p, t in wl.partitions if t.num_rows > 0
    )
    result = run_metadata_update(partition, wl.reference.lookup(pid))
    expected = [
        compute_read_metadata(r, wl.genome) for r in table_to_reads(partition)
    ]
    assert result.md == [m.md for m in expected]
