import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ionotto
import ionotto.cycle as cycle_module
from ionotto.cycle import (
    BathEquilibria,
    CycleConfig,
    CycleMode,
    Regime,
    apply_transition_mixing,
    classify_regime,
    reference_efficiencies,
    run_cycle_closed_form,
    run_cycle_effective,
    run_cycle_effective_grid,
    run_cycle_full,
)
from ionotto.reservoirs import MAX_SQUEEZING, ReservoirSpec, bath_steady_state
from ionotto.sweep import load_config
from oracles import (
    carrier_propagator_numeric,
    closed_form_thermo,
    engine_efficiency_formula,
    pulse_duration,
    rabi_mixing_unitary,
    transition_probability,
    unitarity_defect,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
TWO_PI = 2 * math.pi
STROKES = ("w_expansion", "w_compression", "q_hot", "q_cold")


def panel_config(hot: ReservoirSpec) -> CycleConfig:
    return CycleConfig(
        omega_e_cold=TWO_PI * 1e6,
        omega_e_hot=1.5 * TWO_PI * 1e6,
        lamb=0.01,
        kappa=TWO_PI,
        cold=ReservoirSpec.thermal(TWO_PI * 1e-4, 0.6),
        hot=hot,
    )


CONFIG_THERMAL = panel_config(ReservoirSpec.thermal(TWO_PI * 1e-4, 1.2))
CONFIG_INVERTED = panel_config(ReservoirSpec.negative_temperature(TWO_PI * 1e-4, 0.8))
CONFIG_SQUEEZED = panel_config(ReservoirSpec.squeezed_thermal(TWO_PI * 1e-4, 0.4, 0.5))
ALL_CONFIGS = (CONFIG_THERMAL, CONFIG_INVERTED, CONFIG_SQUEEZED)


class TestTransitionProbability:
    def test_zero_duration(self):
        assert transition_probability(1.0, 0.0) == 0.0

    def test_pi_pulse(self):
        assert abs(transition_probability(2.0, math.pi / 2.0) - 1.0) < 1e-15

    def test_half_pulse(self):
        assert abs(transition_probability(1.0, math.pi / 2.0) - 0.5) < 1e-15

    def test_inverse_round_trip(self):
        for xi in (0.0, 0.1, 0.5, 0.93, 1.0):
            tau = pulse_duration(0.7, xi)
            assert abs(transition_probability(0.7, tau) - xi) < 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            transition_probability(0.0, 1.0)
        with pytest.raises(ValueError):
            pulse_duration(1.0, 1.5)


class TestCarrierPropagator:
    def test_pi_pulse_full_transfer(self):
        omega = 0.01 * TWO_PI
        u = carrier_propagator_numeric(omega, math.pi / omega)
        assert abs(abs(u[1, 0]) ** 2 - 1.0) < 1e-9

    def test_zero_duration_identity(self):
        assert np.array_equal(carrier_propagator_numeric(1.0, 0.0), np.eye(2))

    def test_unitary_and_matches_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            omega = 10.0 ** rng.uniform(-3, 1)
            tau = rng.uniform(0.0, 2 * math.pi / omega)
            u = carrier_propagator_numeric(omega, tau)
            assert unitarity_defect(u) <= 1e-10
            assert abs(abs(u[1, 0]) ** 2 - transition_probability(omega, tau)) < 1e-9

    def test_minimum_steps_enforced(self):
        with pytest.raises(ValueError):
            carrier_propagator_numeric(1.0, 1.0, steps=10)

    def test_step_counts_that_are_not_powers_of_two(self):
        # the pairwise product reduction must handle odd rounds
        reference = carrier_propagator_numeric(0.3, 11.7, steps=4096)
        for steps in (999, 1000, 1001):
            u = carrier_propagator_numeric(0.3, 11.7, steps=steps)
            assert unitarity_defect(u) <= 1e-12
            assert np.abs(u - reference).max() < 1e-9


class TestTransitionMixing:
    def test_relabeling_alone_preserves_populations(self):
        state = np.diag([0.73, 0.27]).astype(complex)
        mixed = apply_transition_mixing(state, 0.0)
        assert np.abs(mixed - state).max() <= 1e-14
        assert np.abs(rabi_mixing_unitary(0.0) - np.eye(2)).max() <= 1e-14

    def test_unitary_reproduces_population_map(self):
        state = np.diag([0.64, 0.36]).astype(complex)
        for xi in (0.05, 0.3, 0.5, 0.9):
            u = rabi_mixing_unitary(xi)
            rotated = u @ state @ u.conj().T
            mapped = apply_transition_mixing(state, xi)
            assert abs(rotated[0, 0] - mapped[0, 0]) < 1e-14
            assert abs(rotated[1, 1] - mapped[1, 1]) < 1e-14

    def test_full_swap(self):
        state = np.diag([0.8, 0.2]).astype(complex)
        swapped = apply_transition_mixing(state, 1.0)
        assert abs(swapped[0, 0] - 0.2) < 1e-15
        assert abs(swapped[1, 1] - 0.8) < 1e-15


class TestClosedFormThermo:
    def test_equal_reservoirs_idle(self):
        config = panel_config(ReservoirSpec.thermal(TWO_PI * 1e-4, 0.6))
        # equal thetas, xi = 0: every energy term cancels except the gap
        # relabeling, which transfers tanh(theta) (R - 1) / 2 through each
        # unitary stroke with opposite signs
        energies = run_cycle_closed_form(config, 0.0).energies
        assert abs(energies.net_work) < 1e-15
        assert abs(energies.q_hot) < 1e-15
        assert abs(energies.q_cold) < 1e-15

    def test_thermal_panel_reference_value(self):
        # tanh(theta) = 1/(1+2n) for a Bose-Einstein bath, so at xi = 0
        # W_net / (hbar omega_c) = -(R-1)/2 (1/2.2 - 1/3.4) = -7.5/187
        energies = run_cycle_closed_form(CONFIG_THERMAL, 0.0).energies
        assert abs(energies.net_work - (-7.5 / 187.0)) < 1e-15
        assert energies.net_work < 0

    def test_first_law_identity_random_sweep(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            config = CycleConfig(
                omega_e_cold=1.0,
                omega_e_hot=rng.uniform(1.01, 5.0),
                lamb=0.01,
                kappa=1.0,
                cold=ReservoirSpec.thermal(1e-3, rng.uniform(0.05, 3.0)),
                hot=ReservoirSpec.squeezed_thermal(
                    1e-3, rng.uniform(0.05, 3.0), rng.uniform(0.01, 2.0)
                ),
            )
            energies = run_cycle_closed_form(config, rng.uniform(0.0, 1.0)).energies
            assert abs(energies.first_law_defect) <= 1e-12


def analytic_equilibria(config: CycleConfig) -> BathEquilibria:
    """Bath endpoints without a solve: the effective baths' steady states."""
    return BathEquilibria(
        cold_state=bath_steady_state(config.cold),
        hot_state=bath_steady_state(config.hot),
        flags=("a_flag:hot",),
        diagnostics={"hot_windows": 1.0},
    )


class TestOneBookkeeping:
    """The closed form books its analytic bath endpoints through the stroke
    engine that books the simulated modes."""

    @pytest.mark.parametrize("panel", ["fig2a", "fig2b", "fig2c"])
    def test_closed_form_matches_the_analytic_energies(self, panel):
        sweep = load_config(CONFIG_DIR / f"{panel}.json")
        for xi in sweep.xi_grid:
            result = run_cycle_closed_form(sweep.cycle, xi)
            expected = closed_form_thermo(sweep.cycle, xi)
            for name in STROKES:
                delta = abs(getattr(result.energies, name) - getattr(expected, name))
                assert delta <= 4e-16, (xi, name, delta)
            assert result.flags == () and result.diagnostics is None
            assert result.mode is CycleMode.CLOSED_FORM

    def test_closed_form_and_full_share_one_row_helper(self, monkeypatch):
        # neither public row function calls the other; both book through
        # _fixed_endpoint_row, so analytic endpoints give the closed form's
        # energies in the full mode bit for bit
        modes = []
        helper = cycle_module._fixed_endpoint_row

        def spy(*args, **kwargs):
            modes.append(args[2])
            return helper(*args, **kwargs)

        def cross_call(*args, **kwargs):
            raise AssertionError("a row function called the other one")

        monkeypatch.setattr(cycle_module, "_fixed_endpoint_row", spy)
        monkeypatch.setattr(cycle_module, "run_cycle_closed_form", cross_call)
        monkeypatch.setattr(cycle_module, "run_cycle_full", cross_call)
        for config in ALL_CONFIGS:
            equilibria = analytic_equilibria(config)
            for xi in (0.0, 0.02, 0.3, 1.0):
                closed = run_cycle_closed_form(config, xi)
                full = run_cycle_full(config, xi, equilibria)
                assert full.energies == closed.energies
                assert full.regime is closed.regime
                assert full.efficiency == closed.efficiency
                assert full.flags == ("a_flag:hot",)
                assert full.diagnostics == {"hot_windows": 1.0}
        assert modes == [CycleMode.CLOSED_FORM, CycleMode.FULL] * 12

    @pytest.mark.parametrize("xi", [-0.1, 1.1, math.nan])
    def test_transition_probability_checked_before_any_solve(self, xi, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("a bath solve ran")

        monkeypatch.setattr(cycle_module, "equilibrate", solve)
        monkeypatch.setattr(cycle_module, "equilibrate_lanes", solve)
        equilibria = analytic_equilibria(CONFIG_SQUEEZED)
        runs = (
            lambda: run_cycle_closed_form(CONFIG_SQUEEZED, xi),
            lambda: run_cycle_effective(CONFIG_SQUEEZED, xi),
            lambda: run_cycle_effective_grid(CONFIG_SQUEEZED, [0.1, xi]),
            lambda: run_cycle_full(CONFIG_SQUEEZED, xi, equilibria),
        )
        for run in runs:
            with pytest.raises(
                ValueError, match=r"transition probability must lie in \[0, 1\], got"
            ):
                run()


class TestRegimeClassifier:
    def test_canonical_patterns(self):
        assert classify_regime(-1.0, 2.0, -1.0) is Regime.HEAT_ENGINE
        assert classify_regime(-1.0, 0.5, 0.5) is Regime.DOUBLE_ABSORPTION
        assert classify_regime(1.0, -2.0, 1.0) is Regime.REFRIGERATOR
        assert classify_regime(1.0, 2.0, -3.0) is Regime.ACCELERATOR
        assert classify_regime(2.0, -1.0, -1.0) is Regime.HEATER

    def test_total_over_all_sign_patterns(self):
        labels = set()
        for w in (-1.0, 0.0, 1.0):
            for qh in (-1.0, 0.0, 1.0):
                for qc in (-1.0, 0.0, 1.0):
                    labels.add(classify_regime(w, qh, qc))
        assert labels <= set(Regime)

    def test_degenerate_zero_cycle(self):
        assert classify_regime(0.0, 0.0, 0.0) is Regime.HEATER


class TestClosedFormCycle:
    def test_otto_efficiency_at_zero_mixing_all_kinds(self):
        for config in ALL_CONFIGS:
            result = run_cycle_closed_form(config, 0.0)
            assert result.regime is Regime.HEAT_ENGINE
            assert abs(result.efficiency - 1.0 / 3.0) < 1e-12

    def test_inverted_bath_half_mixing_value(self):
        # eta = 1 - (2/3) (5/11) / (3/5) = 49/99 at xi = 1/2
        result = run_cycle_closed_form(CONFIG_INVERTED, 0.5)
        assert result.regime is Regime.HEAT_ENGINE
        assert abs(result.efficiency - 49.0 / 99.0) < 1e-12
        assert result.efficiency > result.eta_otto

    def test_engine_boundary_thermal_panel(self):
        # sign scan of the net work: the engine window closes at
        # xi* = (R-1)(Tc - Th) / (2 (R Tc + Th)) = 3/73
        xi_grid = np.linspace(0.0, 0.2, 2001)
        works = [
            run_cycle_closed_form(CONFIG_THERMAL, x).energies.net_work for x in xi_grid
        ]
        crossing = next(i for i in range(len(works) - 1) if works[i] < 0 <= works[i + 1])
        lo, hi = xi_grid[crossing], xi_grid[crossing + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if run_cycle_closed_form(CONFIG_THERMAL, mid).energies.net_work < 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - 3.0 / 73.0) < 1e-9

    def test_beyond_engine_boundary_is_accelerator(self):
        result = run_cycle_closed_form(CONFIG_THERMAL, 0.05)
        assert result.regime is Regime.ACCELERATOR
        assert result.efficiency is None

    def test_efficiency_agrees_with_formula_in_engine_window(self):
        for config, xi in ((CONFIG_THERMAL, 0.02), (CONFIG_SQUEEZED, 0.01),
                           (CONFIG_INVERTED, 0.3)):
            result = run_cycle_closed_form(config, xi)
            assert result.regime is Regime.HEAT_ENGINE
            assert abs(result.efficiency - engine_efficiency_formula(config, xi)) < 1e-12

    def test_double_absorption_unit_efficiency(self):
        # with the inverted hot bath past xi = 1/2 the cold heat turns
        # positive while work is still extracted
        for xi in np.linspace(0.0, 1.0, 101):
            result = run_cycle_closed_form(CONFIG_INVERTED, xi)
            if result.regime is Regime.DOUBLE_ABSORPTION:
                assert abs(result.efficiency - 1.0) < 1e-12
                break
        else:
            pytest.fail("no double-absorption window found")

    def test_engine_never_beats_otto_with_positive_temperatures(self):
        rng = np.random.default_rng(23)
        seen = 0
        for _ in range(500):
            config = CycleConfig(
                omega_e_cold=1.0,
                omega_e_hot=rng.uniform(1.01, 4.0),
                lamb=0.01,
                kappa=1.0,
                cold=ReservoirSpec.thermal(1e-3, rng.uniform(0.05, 3.0)),
                hot=ReservoirSpec.squeezed_thermal(
                    1e-3, rng.uniform(0.05, 3.0), rng.uniform(0.01, 2.0)
                ),
            )
            result = run_cycle_closed_form(config, rng.uniform(0.0, 1.0))
            if result.regime is Regime.HEAT_ENGINE:
                seen += 1
                assert result.efficiency <= result.eta_otto + 1e-12
        assert seen > 50


class TestReferenceEfficiencies:
    def test_otto_did_not_change(self):
        for config in ALL_CONFIGS:
            eta_otto, _ = reference_efficiencies(config)
            assert abs(eta_otto - 1.0 / 3.0) < 1e-15

    def test_carnot_thermal_panel(self):
        _, eta_carnot = reference_efficiencies(CONFIG_THERMAL)
        theta_c = 0.5 * math.log(1 + 1 / 0.6)
        theta_h = 0.5 * math.log(1 + 1 / 1.2)
        assert abs(eta_carnot - (1 - (theta_h / theta_c) * (2.0 / 3.0))) < 1e-12
        assert abs(eta_carnot - 0.5880) < 1e-3

    def test_carnot_undefined_for_inverted_bath(self):
        assert reference_efficiencies(CONFIG_INVERTED)[1] is None

    def test_carnot_squeezed_uses_pre_squeezing_temperature(self):
        _, eta_carnot = reference_efficiencies(CONFIG_SQUEEZED)
        theta_c = 0.5 * math.log(1 + 1 / 0.6)
        theta_h = 0.5 * math.log(1 + 1 / 0.4)
        assert abs(eta_carnot - (1 - (theta_h / theta_c) * (2.0 / 3.0))) < 1e-12

    def test_degenerate_frequencies_rejected(self):
        with pytest.raises(ValueError):
            panel_config(ReservoirSpec.thermal(1e-4, 1.2)).__class__(
                omega_e_cold=1.0,
                omega_e_hot=1.0,
                lamb=0.01,
                kappa=1.0,
                cold=ReservoirSpec.thermal(1e-3, 0.6),
                hot=ReservoirSpec.thermal(1e-3, 1.2),
            )

    @pytest.mark.parametrize("fock_dim", [1, 33])
    def test_fock_dim_out_of_range_rejected(self, fock_dim):
        with pytest.raises(ValueError, match=r"fock_dim must lie in \[2, 32\]"):
            replace(CONFIG_THERMAL, fock_dim=fock_dim)
        assert replace(CONFIG_THERMAL, fock_dim=32).fock_dim == 32

    @pytest.mark.parametrize("fock_dim", [6.5, 6.0, "6"])
    def test_non_integer_fock_dim_rejected(self, fock_dim):
        # a float used to construct and then fail the full mode's bath solves
        # with a TypeError, which run_sweep does not catch
        cycle = load_config(CONFIG_DIR / "fig2a.json").cycle
        with pytest.raises(ValueError, match="fock_dim must be an integer"):
            replace(cycle, fock_dim=fock_dim)
        assert replace(cycle, fock_dim=np.int64(6)).fock_dim == 6


class TestEffectiveCycle:
    @pytest.mark.parametrize("xi", [0.0, 0.2, 0.41])
    def test_matches_closed_form_componentwise(self, xi):
        for config in ALL_CONFIGS:
            simulated = run_cycle_effective(config, xi)
            analytic = run_cycle_closed_form(config, xi)
            for name in ("w_expansion", "w_compression", "q_hot", "q_cold"):
                delta = abs(
                    getattr(simulated.energies, name) - getattr(analytic.energies, name)
                )
                assert delta < 1e-6, (config.hot.kind, name, delta)
            assert simulated.regime is analytic.regime

    @pytest.mark.parametrize("squeezing", [171.4, 250.0, MAX_SQUEEZING])
    def test_hot_squeezing_up_to_the_rate_limit(self, squeezing):
        # past r = 171.4 the hot bath's generator exceeds 2e145, where the
        # squares in the starting step's derivative norm overflow; one row
        # and a grid of lanes must both run to MAX_SQUEEZING
        config = panel_config(ReservoirSpec.squeezed_thermal(TWO_PI * 1e-4, 0.4, squeezing))
        xis = [0.0, 0.25, 0.5]
        rows = run_cycle_effective_grid(config, xis)
        assert rows[1].energies == run_cycle_effective(config, 0.25).energies
        for xi, simulated in zip(xis, rows):
            analytic = run_cycle_closed_form(config, xi)
            for name in ("w_expansion", "w_compression", "q_hot", "q_cold"):
                delta = abs(
                    getattr(simulated.energies, name) - getattr(analytic.energies, name)
                )
                assert delta < 1e-6, (squeezing, xi, name, delta)

    def test_identical_reservoirs_do_nothing(self):
        # the two gap relabelings shift energy by opposite amounts; the
        # cycle-level net work and both heats vanish
        config = panel_config(ReservoirSpec.thermal(TWO_PI * 1e-4, 0.6))
        result = run_cycle_effective(config, 0.0)
        assert abs(result.energies.net_work) < 1e-9
        assert abs(result.energies.q_hot) < 1e-9
        assert abs(result.energies.q_cold) < 1e-9

    def test_cycle_closes(self):
        result = run_cycle_effective(CONFIG_THERMAL, 0.3)
        assert result.diagnostics["cycle_closure"] < 1e-8

    def test_first_law_closure(self):
        for config in ALL_CONFIGS:
            result = run_cycle_effective(config, 0.17)
            assert abs(result.energies.first_law_defect) < 1e-9

    def test_mode_label(self):
        assert run_cycle_effective(CONFIG_THERMAL, 0.1).mode is CycleMode.EFFECTIVE


MOVED_TO_ORACLES = (
    "transition_probability",
    "pulse_duration",
    "rabi_mixing_unitary",
    "carrier_propagator_numeric",
    "engine_efficiency_formula",
    "closed_form_thermo",
    "truncation_shift",
    "thermal_state",
    "hermitian_propagator",
    "unitarity_defect",
)


def test_public_names_resolve_and_test_oracles_stay_out():
    for name in ionotto.__all__:
        assert getattr(ionotto, name) is not None, name
    for module in (ionotto, cycle_module, ionotto.operators):
        for name in MOVED_TO_ORACLES:
            assert name not in module.__all__, (module.__name__, name)
            assert not hasattr(module, name), (module.__name__, name)
