"""The benchmark's tracer (``perfbench/tracing.py``) wraps program functions
by layer and name; every name it lists must exist in the program."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PROGRAM_FUNCTIONS


@pytest.mark.parametrize("layer,name", traced_functions())
def test_traced_function_resolves_to_a_callable(layer, name):
    assert callable(getattr(importlib.import_module(f"bsdkit.{layer}"), name, None))


def test_traced_kernel_expm_resolves_to_a_callable():
    # the tracer wraps bsdkit.autgroups.expm by name as kernel.expm, outside
    # PROGRAM_FUNCTIONS
    assert "bsdkit.autgroups.expm" in TRACING.read_text()
    assert callable(getattr(importlib.import_module("bsdkit.autgroups"), "expm", None))
