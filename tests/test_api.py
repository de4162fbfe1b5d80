"""The public surface: every exported name and every traced function resolves."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import ionotto

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
SUBMODULES = sorted(
    f"ionotto.{info.name}" for info in pkgutil.iter_modules(ionotto.__path__)
)


def test_package_exports_resolve():
    missing = [name for name in ionotto.__all__ if not hasattr(ionotto, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_submodule_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_benchmark_trace_targets_resolve(monkeypatch):
    # loaded by path and without a bytecode cache, so the benchmark's
    # directory stays as it is
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the body runs
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, function in tracing.TARGETS:
        target = getattr(importlib.import_module(module_name), function, None)
        assert callable(target), f"{module_name}.{function}"
