"""Full joint dynamics against the eliminated effective dynamics."""

import math
from dataclasses import replace

import numpy as np
import pytest

import ionotto.cycle as cycle_module
from ionotto.cycle import (
    CycleMode,
    Regime,
    apply_transition_mixing,
    prepare_bath_equilibria,
    run_cycle_closed_form,
    run_cycle_effective,
    run_cycle_full,
)
from ionotto.lindblad import equilibrate, expectation
from ionotto.operators import SpaceLayout, kron, partial_trace, vacuum_state
from ionotto.reservoirs import ReservoirSpec, bath_steady_state, match_rabi_frequencies
from oracles import box_joint_model, truncation_shift
from panels import PANELS, panel

TWO_PI = 2 * math.pi
# the panels' hot baths: thermal, inverted and squeezed
HOT_SPECS = [panel(name).hot for name in PANELS]


def full_bath_state(spec: ReservoirSpec, kappa: float, n_max: int = 6) -> np.ndarray:
    model = box_joint_model(match_rabi_frequencies(spec, 0.01, kappa), n_max)
    layout = SpaceLayout((2, n_max, n_max))
    start = kron(bath_steady_state(spec), vacuum_state(n_max), vacuum_state(n_max))
    report = equilibrate(model, start)
    assert report.max_trace_drift <= 1e-8
    assert report.min_eigenvalue >= -1e-9
    return partial_trace(report.final_state, layout, keep=(0,))


class TestAdiabaticElimination:
    @pytest.mark.parametrize("spec", HOT_SPECS, ids=["thermal", "inverted", "squeezed"])
    def test_full_reduced_state_near_effective(self, spec):
        reduced = full_bath_state(spec, TWO_PI)
        target = bath_steady_state(spec)
        assert np.abs(np.diag(reduced - target).real).max() <= 1e-2

    def test_error_shrinks_with_kappa(self):
        # the squeezed settings carry a genuine elimination correction
        spec = panel("fig2c").hot
        target = bath_steady_state(spec)
        err = np.abs(np.diag(full_bath_state(spec, TWO_PI) - target).real).max()
        err_doubled = np.abs(
            np.diag(full_bath_state(spec, 2 * TWO_PI) - target).real
        ).max()
        assert err_doubled < err

    @pytest.mark.parametrize("name", ["fig2a", "fig2b"])
    def test_unsqueezed_baths_match_effective_to_rounding(self, name):
        # thermal and inverted baths carry no elimination correction: at
        # fock 6 the reduced bath states equal the effective ones to 1e-13
        # (measured 1.9e-15), far inside the 1e-2 of criterion 3
        config = panel(name)
        assert config.fock_dim == 6
        equilibria = prepare_bath_equilibria(config)
        for label, spec in (("cold", config.cold), ("hot", config.hot)):
            state = getattr(equilibria, f"{label}_state")
            assert np.abs(state - bath_steady_state(spec)).max() <= 1e-13

    @pytest.mark.parametrize("name", PANELS)
    def test_kappa_sweep_orders(self, name):
        # ROADMAP section 3: only the squeezed hot bath carries an
        # elimination correction, and it falls as 1/kappa (measured orders
        # 1.000); every other bath state matches to rounding at every kappa
        # (measured at most 2.2e-15)
        config = panel(name)
        assert config.fock_dim == 6
        hot_deviations = []
        for multiple in (1, 2, 4, 8):
            swept = replace(config, kappa=multiple * TWO_PI)
            equilibria = prepare_bath_equilibria(swept)
            cold = np.abs(equilibria.cold_state - bath_steady_state(swept.cold)).max()
            assert cold <= 1e-13
            hot = np.abs(equilibria.hot_state - bath_steady_state(swept.hot)).max()
            hot_deviations.append(hot)
        if config.hot.squeezing > 0:
            orders = np.log2(np.array(hot_deviations[:-1]) / hot_deviations[1:])
            assert np.all((orders >= 0.9) & (orders <= 1.1)), orders
        else:
            assert max(hot_deviations) <= 1e-13

    def test_zero_temperature_bath_cools_to_ground(self):
        spec = replace(panel("fig2a").cold, n_occupation=1e-12)
        reduced = full_bath_state(spec, TWO_PI)
        assert reduced[1, 1].real <= 1e-3


class TestFullCycle:
    def test_equilibria_flags_clean_at_reference_point(self):
        config = panel("fig2a")
        equilibria = prepare_bath_equilibria(config)
        assert equilibria.flags == ()
        assert equilibria.diagnostics["cold_regime_ratio"] > 50
        assert equilibria.diagnostics["hot_regime_ratio"] > 50
        # perturbative estimate of the motional excitation
        for label in ("cold", "hot"):
            assert equilibria.diagnostics[f"{label}_max_mode_occupation"] < 0.05
            assert equilibria.diagnostics[f"{label}_lamb_dicke"] < 0.1

    @pytest.mark.parametrize("hot", [HOT_SPECS[0], HOT_SPECS[2]])
    def test_occupation_is_the_larger_mean_mode_number(self, hot, monkeypatch):
        # against <n_x> and <n_y> of the reduced two-mode state, on the box
        fock = 4
        finals = []

        def spy(model, rho0, **kwargs):
            report = equilibrate(model, rho0, **kwargs)
            finals.append(report.final_state)
            return report

        monkeypatch.setattr(cycle_module, "equilibrate", spy)
        equilibria = prepare_bath_equilibria(panel("fig2a", hot=hot, fock_dim=fock))
        window = np.flatnonzero(np.add.outer(np.arange(fock), np.arange(fock)).ravel() < fock)
        number = np.diag(np.arange(fock)).astype(complex)
        for label, final in zip(("cold", "hot"), finals):
            modes = partial_trace(final, SpaceLayout((2, window.size)), keep=(1,))
            box = np.zeros((fock * fock, fock * fock), dtype=complex)
            box[np.ix_(window, window)] = modes
            layout = SpaceLayout((fock, fock))
            expected = max(
                expectation(layout.embed(number, site), box) for site in (0, 1)
            )
            value = equilibria.diagnostics[f"{label}_max_mode_occupation"]
            assert type(value) is float
            assert value == pytest.approx(expected, rel=1e-12, abs=0)

    def test_efficiency_tracks_effective_mode(self):
        config = panel("fig2b")
        equilibria = prepare_bath_equilibria(config)
        for xi in (0.0, 0.2, 0.4):
            full = run_cycle_full(config, xi, equilibria=equilibria)
            effective = run_cycle_effective(config, xi)
            assert full.mode is CycleMode.FULL
            if effective.regime is Regime.HEAT_ENGINE:
                assert full.regime is Regime.HEAT_ENGINE
                assert abs(full.efficiency - effective.efficiency) <= 0.02

    def test_first_law_closure(self):
        config = panel("fig2a")
        equilibria = prepare_bath_equilibria(config)
        result = run_cycle_full(config, 0.02, equilibria=equilibria)
        assert abs(result.energies.first_law_defect) < 1e-9
        # a full row's cooling stroke ends in its start state by
        # construction, so only an effective row measures the closure
        assert "cycle_closure" not in result.diagnostics
        assert run_cycle_effective(config, 0.02).diagnostics["cycle_closure"] < 1e-8

    def test_cycle_carries_every_bath_flag(self):
        # a slow motional decay lowers the regime ratio of both baths, so
        # each bath solve raises its own flag and the row carries both
        config = panel("fig2a", fock_dim=4, kappa=0.3 * TWO_PI)
        equilibria = prepare_bath_equilibria(config)
        result = run_cycle_full(config, 0.2, equilibria)
        labels = ("cold", "hot")
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
                "last_change",
                "rhs_residual",
                "sector_dim",
            )
        }
        assert set(result.diagnostics) == expected
        assert run_cycle_effective(config, 0.2).diagnostics["cycle_closure"] < 1e-8

    def test_solve_that_does_not_move_is_flagged(self):
        # at hot squeezing r = 50 the window 5 / slow_rate shrinks with
        # cosh 2r while the joint model's rates do not: the hot solve passes
        # its change test after one window without moving, so its rows equal
        # the closed form, but max |B rho| is 0.22 of max |B|
        config = panel("fig2c")
        config = replace(config, hot=replace(config.hot, squeezing=50.0))
        equilibria = prepare_bath_equilibria(config)
        diagnostics = equilibria.diagnostics
        assert diagnostics["hot_windows"] == 1 and diagnostics["hot_last_change"] < 1e-18
        assert diagnostics["hot_rhs_residual"] > 0.1
        assert diagnostics["cold_rhs_residual"] < 1e-14
        for xi in (0.0, 0.25):
            result = run_cycle_full(config, xi, equilibria)
            assert "solver_residual_high:hot" in result.flags
            assert "solver_residual_high:cold" not in result.flags

    def test_matches_closed_form_at_zero_mixing(self):
        config = panel("fig2a")
        full = run_cycle_full(config, 0.0, prepare_bath_equilibria(config))
        closed = run_cycle_closed_form(config, 0.0)
        assert abs(full.efficiency - closed.efficiency) <= 0.02


class TestExcitationWindow:
    """The bath solves keep n_x + n_y < fock_dim; the box model is the oracle."""

    @pytest.mark.parametrize("kappa", [TWO_PI, 0.3 * TWO_PI], ids=["kappa1", "kappa0.3"])
    @pytest.mark.parametrize("fock_dim, tol", [(4, 1e-10), (5, 1e-12), (6, 1e-12)])
    @pytest.mark.parametrize("hot", HOT_SPECS, ids=["thermal", "inverted", "squeezed"])
    @pytest.mark.filterwarnings("ignore:kappa /:RuntimeWarning")
    def test_matches_box_truncation(self, hot, fock_dim, tol, kappa):
        config = panel("fig2a", hot=hot, fock_dim=fock_dim, kappa=kappa)
        equilibria = prepare_bath_equilibria(config)
        layout = SpaceLayout((2, fock_dim, fock_dim))
        vac = vacuum_state(fock_dim)
        for label, spec in (("cold", config.cold), ("hot", config.hot)):
            settings = match_rabi_frequencies(spec, config.lamb, kappa)
            model = box_joint_model(settings, fock_dim)
            start = kron(bath_steady_state(spec), vac, vac)
            report = equilibrate(model, start)
            box = partial_trace(report.final_state, layout, keep=(0,))
            assert np.abs(getattr(equilibria, f"{label}_state") - box).max() <= tol
            assert equilibria.diagnostics[f"{label}_windows"] == report.windows

    @pytest.mark.parametrize("xi", [0.01, 0.3])
    @pytest.mark.parametrize("name", PANELS)
    def test_carrier_mixed_starts_reach_the_cached_equilibria(self, name, xi):
        # within a row each bath stroke starts from the other bath's state
        # after the carrier pulse; the box model relaxed from there must end
        # where the one window solve per bath did (measured at most 3.9e-10)
        config = panel(name)
        equilibria = prepare_bath_equilibria(config)
        n_max = config.fock_dim
        layout = SpaceLayout((2, n_max, n_max))
        vac = vacuum_state(n_max)
        strokes = (
            (config.hot, equilibria.cold_state, equilibria.hot_state),
            (config.cold, equilibria.hot_state, equilibria.cold_state),
        )
        for spec, other_bath_state, cached in strokes:
            settings = match_rabi_frequencies(spec, config.lamb, config.kappa)
            model = box_joint_model(settings, n_max)
            start = kron(apply_transition_mixing(other_bath_state, xi), vac, vac)
            report = equilibrate(model, start)
            box = partial_trace(report.final_state, layout, keep=(0,))
            assert np.abs(box - cached).max() <= 1e-8

    @pytest.mark.parametrize("name", PANELS)
    def test_shipped_bath_solves_report_convergence(self, name):
        # measured: last_change at most 3.6e-9, rhs_residual (relative to
        # the sector block's largest entry) at most 1.0e-14
        config = panel(name)
        equilibria = prepare_bath_equilibria(config)
        diagnostics, flags = equilibria.diagnostics, equilibria.flags
        window_dim = config.fock_dim * (config.fock_dim + 1)
        for label in ("cold", "hot"):
            assert diagnostics[f"{label}_last_change"] < 1e-8
            assert diagnostics[f"{label}_rhs_residual"] < 1e-10
            assert 0 < diagnostics[f"{label}_sector_dim"] <= window_dim**2
        assert not any(flag.startswith("solver_residual_high") for flag in flags)

    def test_bath_solves_stay_implicit_below_the_sparse_size(self, monkeypatch):
        # the fock-4 window has dimension 20, so its generator is dense, but
        # its window is stiff
        reports = []

        def spy(*args, **kwargs):
            reports.append(equilibrate(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr("ionotto.cycle.equilibrate", spy)
        prepare_bath_equilibria(panel("fig2c", fock_dim=4))
        assert len(reports) == 2
        assert all(report.method == "implicit" for report in reports)


class TestTruncation:
    def test_steady_populations_converged_at_default_fock(self):
        assert truncation_shift(panel("fig2c")) <= 1e-4

    def test_squeezed_panel_converged_at_fock_8(self):
        assert truncation_shift(panel("fig2c", fock_dim=8)) <= 1e-10
