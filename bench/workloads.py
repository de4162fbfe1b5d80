"""The four benchmark workloads.

Each workload is built once (the set-up that ``setup_s`` times) and then
runs identical passes; a pass records its rows, checks and timings in a
:class:`Ledger`.  Library functions are looked up on the ``ionotto``
modules at call time, so a traced pass sees the rebound names.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

import ionotto
import ionotto.oscillator
import ionotto.reservoirs
from ionotto.operators import ketbra, number_op, vacuum_state

import checks
from tracing import Span

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
PANELS = ("fig2a", "fig2b", "fig2c")


def _no_probe() -> None:
    return None


@dataclasses.dataclass
class Ledger:
    """Rows, checks and timings of one pass.

    ``tick`` marks a point between rows where the runner may sample the
    machine's speed; the runner does not count that time as pass time.
    """

    tick: Callable[[], None] = _no_probe
    rows: int = 0
    rows_failed: int = 0
    checks: int = 0
    checks_failed: int = 0
    ref_err: float = 0.0
    row_ms: list[float] = dataclasses.field(default_factory=list)
    bath_solve_s: list[float] = dataclasses.field(default_factory=list)
    span_lists: list[list[Span]] = dataclasses.field(default_factory=list)
    import_s: list[float] = dataclasses.field(default_factory=list)
    csv_byte_identical: int = 0
    csv_max_dev: float = 0.0
    problems: list[str] = dataclasses.field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.rows + self.checks

    @property
    def failed(self) -> int:
        return self.rows_failed + self.checks_failed

    @property
    def completed(self) -> int:
        return self.rows - self.rows_failed

    def row(self, fn: Callable, *args, timed: bool = True, **kwargs) -> Any:
        """Evaluate one row; an exception fails the row, not the pass."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any error in a row is a failed row
            self.rows_failed += 1
            self.problems.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.rows += 1
            if timed:
                self.row_ms.append((time.perf_counter() - start) * 1e3)

    def check(self, deviation: float, tol: float, what: str, oracle: bool = True) -> None:
        """Require ``deviation <= tol``; ``oracle`` deviations feed ref_err."""
        self.checks += 1
        if oracle and deviation > self.ref_err:
            self.ref_err = deviation
        if not deviation <= tol:
            self.checks_failed += 1
            self.problems.append(f"{what}: deviation {deviation:.3e} > {tol:.1e}")

    def require(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.checks_failed += 1
            self.problems.append(what)


def stratified_grid(rng: np.random.Generator, points: int, xi_max: float = 0.5) -> tuple[float, ...]:
    """One uniform draw in each of ``points`` equal cells of [0, xi_max]."""
    cells = (np.arange(points) + rng.random(points)) * (xi_max / points)
    return tuple(float(x) for x in cells)


def load_panels(root: Path) -> dict[str, Any]:
    return {name: ionotto.load_config(root / "configs" / f"{name}.json").cycle for name in PANELS}


def _efficiency_gap(ledger: Ledger, closed: Any, other: Any, tol: float, what: str, oracle: bool) -> None:
    """Engine rows of the closed form must stay engines within ``tol`` in eta."""
    if closed.regime is not ionotto.Regime.HEAT_ENGINE:
        return
    if other.regime is not ionotto.Regime.HEAT_ENGINE:
        ledger.require(False, f"{what}: regime {other.regime.value}, closed form heat_engine")
        return
    ledger.check(abs(other.efficiency - closed.efficiency), tol, what, oracle=oracle)


class EffectiveDense:
    """closed_form and effective rows for the three shipped baths on a dense grid."""

    XI_POINTS = 82  # per bath, twice the shipped 41
    TICK_EVERY = 8  # xi points between speed samples

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.panels = [(name, config, stratified_grid(rng, self.XI_POINTS))
                       for name, config in load_panels(root).items()]

    def run_pass(self, ledger: Ledger, traced: bool) -> None:
        for name, config, grid in self.panels:
            for index, xi in enumerate(grid):
                closed = ledger.row(ionotto.run_cycle_closed_form, config, xi, timed=False)
                effective = ledger.row(ionotto.run_cycle_effective, config, xi)
                if closed is not None and effective is not None:
                    _efficiency_gap(ledger, closed, effective, checks.EFFECTIVE_VS_CLOSED,
                                    f"{name} xi={xi:.6f} effective vs closed", oracle=True)
                if index % self.TICK_EVERY == self.TICK_EVERY - 1:
                    ledger.tick()


def _bath_state(spec: Any) -> np.ndarray:
    theta = ionotto.reservoirs.spec_theta(spec)
    if spec.kind is ionotto.BathKind.SQUEEZED_THERMAL:
        return ionotto.squeezed_gibbs_state(theta, spec.squeezing)
    return ionotto.gibbs_state(theta)


class JointBath:
    """Full joint-model bath solves, then a few full rows on the cached endpoints."""

    FOCK = {"fig2a": 8, "fig2b": 8, "fig2c": 7}
    FULL_ROWS = 8  # per bath

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.panels = [
            (name, dataclasses.replace(config, fock_dim=self.FOCK[name]),
             tuple(float(x) for x in np.sort(rng.uniform(0.0, 0.5, self.FULL_ROWS))))
            for name, config in load_panels(root).items()
        ]

    def run_pass(self, ledger: Ledger, traced: bool) -> None:
        for name, config, grid in self.panels:
            start = time.perf_counter()
            equilibria = ledger.row(ionotto.prepare_bath_equilibria, config, timed=False)
            ledger.bath_solve_s.append(time.perf_counter() - start)
            ledger.tick()
            if equilibria is None:
                continue
            for label, state, spec in (("cold", equilibria.cold_state, config.cold),
                                       ("hot", equilibria.hot_state, config.hot)):
                deviation = float(np.abs(np.diag(state - _bath_state(spec)).real).max())
                ledger.check(deviation, checks.BATH_POPULATION, f"{name} {label} bath populations")
            for xi in grid:
                closed = ledger.row(ionotto.run_cycle_closed_form, config, xi, timed=False)
                full = ledger.row(ionotto.run_cycle_full, config, xi, equilibria=equilibria)
                if closed is not None and full is not None:
                    _efficiency_gap(ledger, closed, full, checks.FULL_VS_EFFECTIVE,
                                    f"{name} xi={xi:.6f} full vs closed", oracle=False)


class ModeOscillator:
    """V-type variant: a harmonic oscillator is the working substance."""

    LAMB = 0.01
    GAMMA_E = 2 * math.pi
    STEADY_FOCK = 20  # dense-SVD steady state of the effective thermal mode
    SQUEEZED_FOCK = 48  # implicit equilibration of the effective squeezed mode
    FULL_V_FOCK = {"thermal": 20, "squeezed": 16}

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        two_pi = 2 * math.pi
        # Bath rates at regime ratio 50 (thermal) and 53 (squeezed), as in
        # acceptance criterion 8.
        self.specs = {
            "thermal": ionotto.ReservoirSpec.thermal(two_pi * 2.5e-4, 0.6),
            "squeezed": ionotto.ReservoirSpec.squeezed_thermal(two_pi * 2e-4, 0.4, 0.5),
        }

    def _v_config(self, settings: Any, fock: int) -> Any:
        two_pi = 2 * math.pi
        return ionotto.VSystemConfig(
            omega_ge=two_pi * 1e6, omega_gf=1.2 * two_pi * 1e6, omega_m=10 * two_pi,
            lamb=self.LAMB, gamma_ge=self.GAMMA_E, gamma_gf=self.GAMMA_E,
            rabi=settings.rabi, fock_dim=fock,
        )

    @staticmethod
    def _oracle(settings: Any, fock: int) -> tuple[float, complex]:
        channels = ionotto.oscillator.mode_collapse_channels(settings, fock)
        return ionotto.quadratic_mode_moments(channels)

    def run_pass(self, ledger: Ledger, traced: bool) -> None:
        settings = {
            label: ledger.row(ionotto.match_rabi_for_mode, spec, self.LAMB,
                              self.GAMMA_E, self.GAMMA_E, timed=False)
            for label, spec in self.specs.items()
        }
        if None in settings.values():
            return

        fock = self.STEADY_FOCK
        model = ionotto.effective_mode_model(self.specs["thermal"], settings["thermal"], fock)
        rho = ledger.row(ionotto.steady_state, model)
        ledger.tick()
        if rho is not None:
            n_oracle, _ = self._oracle(settings["thermal"], fock)
            ledger.check(abs(ionotto.expectation(number_op(fock), rho) - n_oracle),
                         checks.MODE_MOMENT, "thermal mode <n>")

        fock = self.SQUEEZED_FOCK
        model = ionotto.effective_mode_model(self.specs["squeezed"], settings["squeezed"], fock)
        report = ledger.row(ionotto.equilibrate, model, vacuum_state(fock), change_tol=1e-10)
        ledger.tick()
        if report is not None:
            n_oracle, a2_oracle = self._oracle(settings["squeezed"], fock)
            a = ionotto.destroy(fock)
            ledger.check(abs(ionotto.expectation(number_op(fock), report.final_state) - n_oracle),
                         checks.MODE_MOMENT, "squeezed mode <n>")
            ledger.check(abs(ionotto.expectation(a @ a, report.final_state) - a2_oracle),
                         checks.MODE_MOMENT, "squeezed mode <a^2>")

        for label, fock in self.FULL_V_FOCK.items():
            model = ionotto.full_v_model(self._v_config(settings[label], fock), settings[label], fock)
            rho0 = ionotto.kron(ketbra(3, 0, 0), vacuum_state(fock))
            report = ledger.row(ionotto.equilibrate, model, rho0, change_tol=1e-10)
            ledger.tick()
            if report is None:
                continue
            reduced = ionotto.partial_trace(report.final_state, ionotto.SpaceLayout((3, fock)), keep=(1,))
            n_oracle, _ = self._oracle(settings[label], fock)
            ledger.check(abs(ionotto.expectation(number_op(fock), reduced) - n_oracle),
                         checks.OSCILLATOR_FULL_RELATIVE * n_oracle, f"full V {label} <n>")


class FiguresCli:
    """Cold ``ionotto sweep`` processes on the shipped configs, one after another."""

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        load_panels(root)  # the configs must load before anything is timed
        self.references = {name: (REFERENCE_DIR / f"{name}.csv").read_text(encoding="utf-8")
                           for name in PANELS}
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.traced_runs = 0

    def run_pass(self, ledger: Ledger, traced: bool) -> None:
        for name in PANELS:
            output = self.workdir / f"{name}.csv"
            output.unlink(missing_ok=True)
            args = ["sweep", str(self.root / "configs" / f"{name}.json"), "--output", str(output)]
            if traced:
                self.traced_runs += 1
                spans_path = self.workdir / f"spans-{self.traced_runs}.json"
                command = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path), *args]
            else:
                command = [sys.executable, "-m", "ionotto.cli", *args]
            proc = subprocess.run(command, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=120)
            ledger.tick()
            ledger.require(proc.returncode == 0,
                           f"{name}: ionotto sweep exited {proc.returncode}: {proc.stderr[-500:]}")
            if traced and spans_path.exists():
                trace = json.loads(spans_path.read_text(encoding="utf-8"))
                ledger.import_s.append(trace["import_s"])
                ledger.span_lists.append([Span.from_json(item) for item in trace["spans"]])
            if not output.exists():
                ledger.require(False, f"{name}: no CSV written")
                continue
            text = output.read_text(encoding="utf-8")
            lines = text.splitlines()[1:]
            ledger.rows += len(lines)
            ledger.rows_failed += sum(1 for line in lines if ",error=" in line)
            try:
                deviation = checks.compare_csv(text, self.references[name])
            except checks.CsvMismatch as exc:
                ledger.require(False, f"{name}: {exc}")
            else:
                ledger.require(True, f"{name}: CSV matches")
                ledger.csv_max_dev = max(ledger.csv_max_dev, deviation)
            ledger.csv_byte_identical += int(text == self.references[name])
            gap = checks.engine_efficiency_gap(text)
            if gap > ledger.ref_err:
                ledger.ref_err = gap


WORKLOADS = {
    "figures_cli": FiguresCli,
    "effective_dense": EffectiveDense,
    "joint_bath": JointBath,
    "mode_oscillator": ModeOscillator,
}
