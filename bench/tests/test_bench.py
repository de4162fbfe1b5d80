"""Tests of the benchmark's own code.

Run from the repository root: python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import scipy.sparse.linalg as spla  # noqa: E402

import ionotto  # noqa: E402
import ionotto.cli  # noqa: E402  (loaded so its bindings are patched too)
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_times_of_a_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 5.0, 7.0, parent=0),
        Span("a.child", 2.0, 3.0, parent=1),
        Span("a.child", 3.5, 4.5, parent=1),  # runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.5, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0), Span("x", 1.0, 4.0, 0), Span("y", 3.0, 6.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_layer_metrics_add_times_and_reduce_counters():
    bath = [
        Span("cycle.prepare_bath_equilibria", 0.0, 10.0),
        Span("lindblad.equilibrate", 1.0, 9.0, 0, {"windows": 3}),
        Span("lindblad.splu", 1.0, 7.0, 1, {"fill": 100}),
        Span("bench.lu_factor_count", 7.0, 8.0, 1),
        Span("lindblad.lu_solve", 8.0, 8.5, 1),
    ]
    other = [
        Span("lindblad.equilibrate", 0.0, 2.0, None, {"windows": 4}),
        Span("lindblad.splu", 0.0, 1.0, 0, {"fill": 40}),
    ]
    metrics = tracing.layer_metrics([bath, other])
    assert metrics["lindblad.splu_s"] == pytest.approx(7.0)
    assert metrics["lindblad.equilibrate_s"] == pytest.approx(0.5 + 1.0)
    assert metrics["cycle.prepare_bath_equilibria_s"] == pytest.approx(2.0)
    assert metrics["lindblad.equilibrate.windows"] == 7
    assert metrics["lindblad.splu_calls"] == 2
    assert metrics["lindblad.lu_fill"] == 100
    assert metrics["lindblad.lu_bytes"] == 1600
    assert metrics["lindblad.lu_solves"] == 1
    # inside the bath solve: 6 s of LU out of 9 s of library time
    assert metrics["lindblad.splu_share"] == pytest.approx(6.0 / 9.0)
    assert metrics["lindblad.evolve_s"] == 0.0


def _reference() -> str:
    return (BENCH / "reference" / "fig2a.csv").read_text(encoding="utf-8")


def test_csv_comparator_accepts_the_reference():
    assert checks.compare_csv(_reference(), _reference()) == 0.0


def test_csv_comparator_rejects_a_one_digit_perturbation():
    reference = _reference()
    line = reference.splitlines()[5]
    cells = line.split(",")
    # W_net: change the digit in its eighth decimal place, a 1e-8 move
    value = cells[4]
    digit_at = value.index(".") + 8
    flipped = str((int(value[digit_at]) + 1) % 10)
    cells[4] = value[:digit_at] + flipped + value[digit_at + 1:]
    with pytest.raises(checks.CsvMismatch, match="W_net"):
        checks.compare_csv(reference.replace(line, ",".join(cells)), reference)


def test_csv_comparator_rejects_a_changed_regime():
    reference = _reference()
    line = next(row for row in reference.splitlines() if ",heat_engine," in row)
    changed = reference.replace(line, line.replace(",heat_engine,", ",heater,"))
    with pytest.raises(checks.CsvMismatch, match="regime"):
        checks.compare_csv(changed, reference)


def test_stratified_grid_is_reproducible_per_seed():
    grid = workloads.stratified_grid(np.random.default_rng(3), 50)
    assert grid == workloads.stratified_grid(np.random.default_rng(3), 50)
    assert grid != workloads.stratified_grid(np.random.default_rng(4), 50)
    cells = np.floor(np.array(grid) / (0.5 / 50))
    assert list(cells) == list(range(50))


def test_failed_row_counts_in_failed_frac(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads.EffectiveDense, "XI_POINTS", 2)
    workload = workloads.EffectiveDense(ROOT, 0, tmp_path)
    doomed = workload.panels[1][2][0]
    real = ionotto.run_cycle_effective

    def flaky(config, xi):
        if xi == doomed:
            raise FloatingPointError("injected")
        return real(config, xi)

    monkeypatch.setattr(ionotto, "run_cycle_effective", flaky)
    ledger = workloads.Ledger()
    workload.run_pass(ledger, traced=False)
    assert ledger.rows == 12
    assert ledger.rows_failed == 1
    assert ledger.failed == 1
    assert ledger.checks_failed == 0
    assert 0 < ledger.failed / ledger.attempted < 1
    assert "FloatingPointError: injected" in ledger.problems[0]


def test_failed_check_counts(tmp_path):
    ledger = workloads.Ledger()
    ledger.check(2e-6, checks.EFFECTIVE_VS_CLOSED, "too far")
    ledger.check(float("nan"), checks.EFFECTIVE_VS_CLOSED, "not a number")
    ledger.check(1e-7, checks.EFFECTIVE_VS_CLOSED, "fine")
    assert (ledger.checks, ledger.checks_failed, ledger.ref_err) == (3, 2, 2e-6)


def _bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "ionotto" or name.startswith("ionotto.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_patches_are_removed_after_a_traced_run():
    before = _bindings()
    splu = spla.splu
    config = workloads.load_panels(ROOT)["fig2c"]
    small = ionotto.cycle.CycleConfig(**{**config.__dict__, "fock_dim": 4})
    recorder = tracing.SpanRecorder()
    with tracing.installed(recorder):
        assert ionotto.cycle.equilibrate is not before[("ionotto.cycle", "equilibrate")]
        assert ionotto.cli.steady_state is not before[("ionotto.cli", "steady_state")]
        ionotto.run_cycle_effective(config, 0.1)
        ionotto.prepare_bath_equilibria(small)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert spla.splu is splu
    names = {span.name for span in recorder.spans}
    assert {"cycle.run_cycle_effective", "lindblad.evolve", "lindblad.equilibrate",
            "cycle.prepare_bath_equilibria", "reservoirs.full_joint_model",
            "lindblad.splu", "lindblad.lu_solve", "operators.partial_trace"} <= names
    by_name = {span.name: span for span in recorder.spans}
    parent = recorder.spans[by_name["lindblad.splu"].parent]
    assert parent.name == "lindblad.equilibrate"


def test_patches_are_removed_when_the_traced_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.SpanRecorder()):
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["bench"]


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "joint_bath", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
