"""The benchmark's tracer wraps some drsim names it looks up by name.

perfbench/tracing.py fetches each TRACED_PRIVATE function with getattr and
each TRACED_METHODS method from its class __dict__, so a renamed or deleted
target crashes every traced benchmark run. The file is loaded read-only: no
bytecode is written next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


tracing = load_tracing()


def test_targets_are_listed():
    assert tracing.TRACED_PRIVATE and tracing.TRACED_METHODS


@pytest.mark.parametrize("mod_name, attr", tracing.TRACED_PRIVATE)
def test_private_function_resolves(mod_name, attr):
    assert callable(getattr(importlib.import_module(mod_name), attr))


@pytest.mark.parametrize("mod_name, cls_name, attr", tracing.TRACED_METHODS)
def test_method_resolves(mod_name, cls_name, attr):
    cls = getattr(importlib.import_module(mod_name), cls_name)
    assert callable(cls.__dict__[attr])
