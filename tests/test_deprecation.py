"""The deprecated ``repro.accel.parallel`` shim was removed after a full
deprecation cycle (warned since PR 4, banned from package code via ruff
TID251 until removal): importing it must now fail loudly."""

import importlib
import sys

import pytest


def test_parallel_shim_is_gone():
    sys.modules.pop("repro.accel.parallel", None)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.accel.parallel")
    assert "repro.accel.parallel" not in sys.modules

