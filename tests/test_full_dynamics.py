"""Full joint dynamics against the eliminated effective dynamics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ionotto.cycle import (
    CycleConfig,
    CycleMode,
    Regime,
    prepare_bath_equilibria,
    run_cycle_closed_form,
    run_cycle_effective,
    run_cycle_full,
    truncation_shift,
)
from ionotto.lindblad import equilibrate
from ionotto.operators import SpaceLayout, kron, partial_trace, vacuum_state
from ionotto.reservoirs import (
    ReservoirSpec,
    full_joint_model,
    gibbs_state,
    spec_theta,
    squeezed_gibbs_state,
)

TWO_PI = 2 * math.pi
GAMMA = TWO_PI * 1e-4


def panel_config(hot: ReservoirSpec, fock_dim: int = 6) -> CycleConfig:
    return CycleConfig(
        omega_e_cold=TWO_PI * 1e6,
        omega_e_hot=1.5 * TWO_PI * 1e6,
        omega_m=10 * TWO_PI,
        lamb=0.01,
        kappa=TWO_PI,
        drive_rabi=0.01 * TWO_PI,
        cold=ReservoirSpec.thermal(GAMMA, 0.6),
        hot=hot,
        fock_dim=fock_dim,
    )


def effective_bath_state(spec: ReservoirSpec) -> np.ndarray:
    if spec.squeezing > 0:
        return squeezed_gibbs_state(spec_theta(spec), spec.squeezing)
    return gibbs_state(spec_theta(spec))


def full_bath_state(spec: ReservoirSpec, kappa: float, n_max: int = 6) -> np.ndarray:
    model = full_joint_model(spec, 0.01, kappa, n_max)
    layout = SpaceLayout((2, n_max, n_max))
    start = kron(effective_bath_state(spec), vacuum_state(n_max), vacuum_state(n_max))
    report = equilibrate(model, start)
    assert report.max_trace_drift <= 1e-8
    assert report.min_eigenvalue >= -1e-9
    return partial_trace(report.final_state, layout, keep=(0,))


class TestAdiabaticElimination:
    @pytest.mark.parametrize(
        "spec",
        [
            ReservoirSpec.thermal(GAMMA, 1.2),
            ReservoirSpec.negative_temperature(GAMMA, 0.8),
            ReservoirSpec.squeezed_thermal(GAMMA, 0.4, 0.5),
        ],
        ids=["thermal", "inverted", "squeezed"],
    )
    def test_full_reduced_state_near_effective(self, spec):
        reduced = full_bath_state(spec, TWO_PI)
        target = effective_bath_state(spec)
        assert np.abs(np.diag(reduced - target).real).max() <= 1e-2

    def test_error_shrinks_with_kappa(self):
        # the squeezed settings carry a genuine elimination correction
        spec = ReservoirSpec.squeezed_thermal(GAMMA, 0.4, 0.5)
        target = effective_bath_state(spec)
        err = np.abs(np.diag(full_bath_state(spec, TWO_PI) - target).real).max()
        err_doubled = np.abs(
            np.diag(full_bath_state(spec, 2 * TWO_PI) - target).real
        ).max()
        assert err_doubled < err

    def test_zero_temperature_bath_cools_to_ground(self):
        spec = ReservoirSpec.thermal(GAMMA, 1e-12)
        reduced = full_bath_state(spec, TWO_PI)
        assert reduced[1, 1].real <= 1e-3


class TestFullCycle:
    def test_equilibria_flags_clean_at_reference_point(self):
        config = panel_config(ReservoirSpec.thermal(GAMMA, 1.2))
        equilibria = prepare_bath_equilibria(config)
        assert equilibria.flags == ()
        assert equilibria.diagnostics["cold_regime_ratio"] > 50
        assert equilibria.diagnostics["hot_regime_ratio"] > 50
        # perturbative estimate of the motional excitation
        for label in ("cold", "hot"):
            assert equilibria.diagnostics[f"{label}_max_mode_occupation"] < 0.05
            assert equilibria.diagnostics[f"{label}_lamb_dicke"] < 0.1

    def test_cached_equilibria_match_per_row_evolution(self):
        config = panel_config(ReservoirSpec.squeezed_thermal(GAMMA, 0.4, 0.5))
        equilibria = prepare_bath_equilibria(config)
        cached = run_cycle_full(config, 0.01, equilibria=equilibria)
        honest = run_cycle_full(config, 0.01)
        for name in ("w_expansion", "w_compression", "q_hot", "q_cold"):
            assert abs(
                getattr(cached.energies, name) - getattr(honest.energies, name)
            ) < 1e-8

    def test_efficiency_tracks_effective_mode(self):
        config = panel_config(ReservoirSpec.negative_temperature(GAMMA, 0.8))
        equilibria = prepare_bath_equilibria(config)
        for xi in (0.0, 0.2, 0.4):
            full = run_cycle_full(config, xi, equilibria=equilibria)
            effective = run_cycle_effective(config, xi)
            assert full.mode is CycleMode.FULL
            if effective.regime is Regime.HEAT_ENGINE:
                assert full.regime is Regime.HEAT_ENGINE
                assert abs(full.efficiency - effective.efficiency) <= 0.02

    def test_first_law_closure(self):
        config = panel_config(ReservoirSpec.thermal(GAMMA, 1.2))
        equilibria = prepare_bath_equilibria(config)
        result = run_cycle_full(config, 0.02, equilibria=equilibria)
        assert abs(result.energies.first_law_defect) < 1e-9
        assert result.diagnostics["cycle_closure"] < 1e-8

    def test_uncached_cycle_reports_every_stroke(self):
        # a slow motional decay lowers the regime ratio of both baths, so
        # every stroke raises its own flag
        config = replace(
            panel_config(ReservoirSpec.thermal(GAMMA, 1.2), fock_dim=4),
            kappa=0.3 * TWO_PI,
        )
        with pytest.warns(RuntimeWarning, match="kappa /"):
            result = run_cycle_full(config, 0.2)
        labels = ("cold", "hot", "cold_return")
        assert result.flags == tuple(f"adiabatic_ratio_low:{label}" for label in labels)
        expected = {
            f"{label}_{name}"
            for label in labels
            for name in (
                "regime_ratio",
                "max_mode_occupation",
                "lamb_dicke",
                "trace_drift",
                "min_eigenvalue",
                "windows",
            )
        }
        assert set(result.diagnostics) == expected | {"cycle_closure"}
        assert result.diagnostics["cycle_closure"] < 1e-8

    def test_matches_closed_form_at_zero_mixing(self):
        config = panel_config(ReservoirSpec.thermal(GAMMA, 1.2))
        full = run_cycle_full(config, 0.0)
        closed = run_cycle_closed_form(config, 0.0)
        assert abs(full.efficiency - closed.efficiency) <= 0.02


HOT_SPECS = [
    ReservoirSpec.thermal(GAMMA, 1.2),
    ReservoirSpec.negative_temperature(GAMMA, 0.8),
    ReservoirSpec.squeezed_thermal(GAMMA, 0.4, 0.5),
]


class TestExcitationWindow:
    """The bath solves keep n_x + n_y < fock_dim; the box model is the oracle."""

    @pytest.mark.parametrize("kappa", [TWO_PI, 0.3 * TWO_PI], ids=["kappa1", "kappa0.3"])
    @pytest.mark.parametrize("fock_dim, tol", [(4, 1e-10), (5, 1e-12), (6, 1e-12)])
    @pytest.mark.parametrize("hot", HOT_SPECS, ids=["thermal", "inverted", "squeezed"])
    @pytest.mark.filterwarnings("ignore:kappa /:RuntimeWarning")
    def test_matches_box_truncation(self, hot, fock_dim, tol, kappa):
        config = replace(panel_config(hot, fock_dim=fock_dim), kappa=kappa)
        equilibria = prepare_bath_equilibria(config)
        layout = SpaceLayout((2, fock_dim, fock_dim))
        vac = vacuum_state(fock_dim)
        for label, spec in (("cold", config.cold), ("hot", config.hot)):
            model = full_joint_model(spec, config.lamb, kappa, fock_dim)
            start = kron(effective_bath_state(spec), vac, vac)
            report = equilibrate(model, start, method="implicit")
            box = partial_trace(report.final_state, layout, keep=(0,))
            assert np.abs(getattr(equilibria, f"{label}_state") - box).max() <= tol
            assert equilibria.diagnostics[f"{label}_windows"] == report.windows

    def test_bath_solves_stay_implicit_below_auto_threshold(self, monkeypatch):
        # the fock-4 window has dimension 20, where method="auto" picks rk
        reports = []

        def spy(*args, **kwargs):
            reports.append(equilibrate(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr("ionotto.cycle.equilibrate", spy)
        prepare_bath_equilibria(panel_config(HOT_SPECS[2], fock_dim=4))
        assert len(reports) == 2
        assert all(report.method == "implicit" for report in reports)


class TestTruncation:
    def test_steady_populations_converged_at_default_fock(self):
        config = panel_config(ReservoirSpec.squeezed_thermal(GAMMA, 0.4, 0.5))
        assert truncation_shift(config) <= 1e-4

    def test_squeezed_panel_converged_at_fock_8(self):
        config = panel_config(ReservoirSpec.squeezed_thermal(GAMMA, 0.4, 0.5), fock_dim=8)
        assert truncation_shift(config) <= 1e-10
