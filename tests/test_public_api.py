"""Public API surface checks: everything advertised imports and works."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.accel",
    "repro.compiler",
    "repro.eval",
    "repro.faults",
    "repro.fmindex",
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
