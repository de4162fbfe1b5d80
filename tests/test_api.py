"""The public surface: every exported name and every traced function
resolves, and the benchmark's span recorder reads a traced sweep."""

import importlib
import importlib.util
import inspect
import pkgutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ionotto
from ionotto.cycle import CycleMode

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
CONFIG_DIR = ROOT / "configs"
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


@pytest.mark.parametrize(
    "function, parameters",
    [
        ("evolve", "(model, rho0, t)"),
        ("equilibrate", "(model, rho0, *, change_tol)"),
        ("equilibrate_lanes", "(model, rhos)"),
        ("_dormand_prince", "(gen, y, t)"),
        # the model builders read lamb, the rates and the target bath from
        # the settings; bench/workloads.py calls the oscillator ones
        ("reservoirs.full_interaction_hamiltonian", "(settings, n_max)"),
        ("reservoirs.full_joint_model", "(settings, n_max)"),
        ("reservoirs.channels_from_settings", "(settings, lower)"),
        ("oscillator.match_rabi_for_mode", "(spec, lamb, gamma_ge, gamma_gf)"),
        ("oscillator.effective_mode_model", "(spec, settings, fock_dim)"),
        ("oscillator.full_v_model", "(config, settings, fock_dim)"),
        ("oscillator.mode_collapse_channels", "(settings, fock_dim)"),
    ],
)
def test_solver_signatures(function, parameters):
    # the solvers run at the library's fixed accuracy and window rule: no
    # option beyond these; a bare name is a solver of ionotto.lindblad
    module, _, name = function.rpartition(".")
    module = importlib.import_module(f"ionotto.{module or 'lindblad'}")
    signature = inspect.signature(getattr(module, name))
    bare = [
        p.replace(annotation=p.empty, default=p.empty)
        for p in signature.parameters.values()
    ]
    assert str(signature.replace(parameters=bare, return_annotation=signature.empty)) == parameters


@pytest.fixture
def tracing(monkeypatch):
    """``bench/tracing.py``, loaded by path and without a bytecode cache,
    so the benchmark's directory stays as it is."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_resolve(tracing):
    assert tracing.TARGETS
    for module_name, function in tracing.TARGETS:
        target = getattr(importlib.import_module(module_name), function, None)
        assert callable(target), f"{module_name}.{function}"


def test_traced_sweep_yields_layer_metrics(tracing):
    # the sweep runs its effective rows as lanes, outside every traced
    # name; a single effective row still equilibrates through evolve
    import ionotto.sweep

    config = ionotto.sweep.load_config(CONFIG_DIR / "fig2a.json")
    config = ionotto.sweep.SweepConfig(
        replace(config.cycle, fock_dim=4), (0.0, 0.25), tuple(CycleMode), None
    )
    recorder = tracing.SpanRecorder()
    with tracing.installed(recorder):
        result = ionotto.sweep.run_sweep(config)
        ionotto.cycle.run_cycle_effective(config.cycle, 0.1)
    assert result.failed_rows == ()
    spans = recorder.spans
    names = {span.name for span in spans}
    assert {"sweep.run_sweep", "cycle.run_cycle_effective", "lindblad.evolve",
            "lindblad.equilibrate", "cycle.prepare_bath_equilibria"} <= names
    for index, span in enumerate(spans):
        if span.name == "lindblad.evolve":
            assert not tracing._within(spans, index, "sweep.run_sweep")
            assert tracing._within(spans, index, "cycle.run_cycle_effective")
    metrics = tracing.layer_metrics([spans])
    assert metrics["sweep.rows"] == 6
    assert metrics["sweep.rows_failed"] == 0
    assert metrics["lindblad.evolve.steps"] > 0
    assert metrics["lindblad.equilibrate.windows"] > 0
    assert metrics["sweep.run_sweep_s"] > 0
