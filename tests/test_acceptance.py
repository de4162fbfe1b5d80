"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (run pytest with -s to see
them).  Solver hygiene metrics from every run executed here are pooled
and checked by the final criterion.
"""

import math
import time
import warnings
from contextlib import contextmanager

import numpy as np

from ionotto.cycle import (
    CycleConfig,
    Regime,
    apply_transition_mixing,
    prepare_bath_equilibria,
    reference_efficiencies,
    run_cycle_closed_form,
    run_cycle_effective,
    run_cycle_full,
)
from ionotto.lindblad import LindbladModel, equilibrate, evolve, steady_state
from ionotto.operators import (
    SpaceLayout,
    destroy,
    ketbra,
    kron,
    number_op,
    partial_trace,
    sigma_minus,
    vacuum_state,
)
from ionotto.oscillator import (
    VSystemConfig,
    effective_mode_model,
    full_v_model,
    match_rabi_for_mode,
    mode_collapse_channels,
    quadratic_mode_moments,
)
from ionotto.reservoirs import (
    BathKind,
    ReservoirSpec,
    channels_from_settings,
    effective_collapse_channels,
    gibbs_state,
    match_rabi_frequencies,
    spec_theta,
    squeezed_gibbs_state,
)
from oracles import (
    box_joint_model,
    carrier_propagator_numeric,
    rabi_mixing_unitary,
    transition_probability,
)
from ionotto.lindblad import liouvillian_matrix, expectation

TWO_PI = 2 * math.pi
GAMMA = TWO_PI * 1e-4

# hygiene metrics pooled across every acceptance run; criterion 9 checks them
HYGIENE: list[tuple[str, float, float]] = []


def record_hygiene(label: str, max_trace_drift: float, min_eigenvalue: float) -> None:
    HYGIENE.append((label, float(max_trace_drift), float(min_eigenvalue)))


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed <= budget_seconds else "PASS (over time budget)"
    print(f"[criterion {number}] {name}: {status} ({elapsed:.2f}s)", flush=True)
    assert elapsed <= budget_seconds, f"runtime {elapsed:.1f}s over {budget_seconds}s"


def panel_config(hot: ReservoirSpec, fock_dim: int = 6) -> CycleConfig:
    return CycleConfig(
        omega_e_cold=TWO_PI * 1e6,
        omega_e_hot=1.5 * TWO_PI * 1e6,
        lamb=0.01,
        kappa=TWO_PI,
        cold=ReservoirSpec.thermal(GAMMA, 0.6),
        hot=hot,
        fock_dim=fock_dim,
    )


PANELS = {
    "a": panel_config(ReservoirSpec.thermal(GAMMA, 1.2)),
    "b": panel_config(ReservoirSpec.negative_temperature(GAMMA, 0.8)),
    "c": panel_config(ReservoirSpec.squeezed_thermal(GAMMA, 0.4, 0.5)),
}


def bath_reference_state(spec: ReservoirSpec) -> np.ndarray:
    if spec.squeezing > 0:
        return squeezed_gibbs_state(spec_theta(spec), spec.squeezing)
    return gibbs_state(spec_theta(spec))


def test_criterion_1_bath_steady_states():
    with criterion(1, "bath steady states vs null-space oracle", 1.0):
        cases = [
            (ReservoirSpec.thermal(GAMMA, 0.6), 0.6 / 2.2),
            (ReservoirSpec.negative_temperature(GAMMA, 0.8), 0.8),
            (ReservoirSpec.squeezed_thermal(GAMMA, 0.4, 0.5), None),
        ]
        for spec, expected_pe in cases:
            solved = steady_state(spec.bath_model)
            analytic = bath_reference_state(spec)
            assert np.abs(solved - analytic).max() <= 1e-8
            if expected_pe is not None:
                assert abs(solved[1, 1].real - expected_pe) <= 1e-8
            record_hygiene(
                f"c1:{spec.kind.value}",
                abs(np.trace(solved).real - 1.0),
                float(np.linalg.eigvalsh(solved).min()),
            )


def test_criterion_2_matching_identity():
    with criterion(2, "laser-settings Liouvillian equals target bath", 1.0):
        rng = np.random.default_rng(2024)
        h0 = np.zeros((2, 2), dtype=complex)
        for trial in range(20):
            gamma = 10.0 ** rng.uniform(-4, -2)
            lamb = rng.uniform(0.005, 0.05)
            kappa = rng.uniform(1.0, 10.0)
            kind = trial % 3
            if kind == 0:
                spec = ReservoirSpec.thermal(gamma, rng.uniform(0.02, 3.0))
            elif kind == 1:
                spec = ReservoirSpec.negative_temperature(
                    gamma, rng.uniform(0.55, 0.95)
                )
            else:
                spec = ReservoirSpec.squeezed_thermal(
                    gamma, rng.uniform(0.05, 2.0), rng.uniform(0.05, 1.5)
                )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                settings = match_rabi_frequencies(spec, lamb, kappa)
            lhs = liouvillian_matrix(
                LindbladModel(h0, channels_from_settings(settings, sigma_minus()))
            )
            rhs = liouvillian_matrix(
                LindbladModel(h0, effective_collapse_channels(spec))
            )
            assert np.abs(lhs - rhs).max() <= 1e-12


def test_criterion_3_adiabatic_elimination_validity():
    with criterion(3, "full joint model reaches the effective steady state", 120.0):
        lamb, n_max = 0.01, 6

        def reduced_full_state(spec: ReservoirSpec, kappa: float) -> np.ndarray:
            model = box_joint_model(match_rabi_frequencies(spec, lamb, kappa), n_max)
            layout = SpaceLayout((2, n_max, n_max))
            start = kron(
                bath_reference_state(spec), vacuum_state(n_max), vacuum_state(n_max)
            )
            report = equilibrate(model, start)
            record_hygiene(
                f"c3:{spec.kind.value}:kappa={kappa:.3f}",
                report.max_trace_drift,
                report.min_eigenvalue,
            )
            return partial_trace(report.final_state, layout, keep=(0,))

        for spec in (
            ReservoirSpec.thermal(GAMMA, 1.2),
            ReservoirSpec.negative_temperature(GAMMA, 0.8),
            ReservoirSpec.squeezed_thermal(GAMMA, 0.4, 0.5),
        ):
            target = bath_reference_state(spec)
            error = np.abs(
                np.diag(reduced_full_state(spec, TWO_PI) - target).real
            ).max()
            assert error <= 1e-2
        # the squeezed settings carry a measurable elimination correction;
        # doubling kappa must shrink it
        spec = ReservoirSpec.squeezed_thermal(GAMMA, 0.4, 0.5)
        target = bath_reference_state(spec)
        error_base = np.abs(np.diag(reduced_full_state(spec, TWO_PI) - target).real).max()
        error_doubled = np.abs(
            np.diag(reduced_full_state(spec, 2 * TWO_PI) - target).real
        ).max()
        assert error_doubled < error_base


def test_criterion_4_closed_form_identities():
    with criterion(4, "first law, Otto bound, zero-mixing endpoint", 5.0):
        rng = np.random.default_rng(4)
        engines = 0
        for _ in range(10_000):
            ratio = rng.uniform(1.01, 5.0)
            hot_kind = rng.integers(0, 3)
            if hot_kind == 0:
                hot = ReservoirSpec.thermal(1e-3, rng.uniform(0.02, 4.0))
            elif hot_kind == 1:
                hot = ReservoirSpec.negative_temperature(1e-3, rng.uniform(0.51, 0.99))
            else:
                hot = ReservoirSpec.squeezed_thermal(
                    1e-3, rng.uniform(0.02, 4.0), rng.uniform(0.01, 2.5)
                )
            config = CycleConfig(
                omega_e_cold=1.0,
                omega_e_hot=ratio,
                lamb=0.01,
                kappa=1.0,
                cold=ReservoirSpec.thermal(1e-3, rng.uniform(0.02, 4.0)),
                hot=hot,
            )
            xi = rng.uniform(0.0, 1.0)
            result = run_cycle_closed_form(config, xi)
            assert abs(result.energies.first_law_defect) <= 1e-12
            if hot.kind is not BathKind.NEGATIVE_TEMPERATURE:
                if result.regime is Regime.HEAT_ENGINE:
                    engines += 1
                    assert result.efficiency <= result.eta_otto + 1e-12
        assert engines > 100
        for config in PANELS.values():
            result = run_cycle_closed_form(config, 0.0)
            assert abs(result.efficiency - 1.0 / 3.0) <= 1e-12


def test_criterion_5_figure_endpoints_and_threshold():
    with criterion(5, "panel endpoints, engine boundary, Carnot reference", 5.0):
        for config in PANELS.values():
            assert abs(run_cycle_closed_form(config, 0.0).efficiency - 1 / 3) <= 1e-12
        eta_half = run_cycle_closed_form(PANELS["b"], 0.5).efficiency
        assert abs(eta_half - 0.4953) <= 1e-3
        # engine boundary of the hot-thermal panel by sign scan plus bisection
        config = PANELS["a"]
        grid = np.linspace(0.0, 0.2, 4001)
        works = [run_cycle_closed_form(config, x).energies.net_work for x in grid]
        k = next(i for i in range(len(works) - 1) if works[i] < 0 <= works[i + 1])
        lo, hi = grid[k], grid[k + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if run_cycle_closed_form(config, mid).energies.net_work < 0:
                lo = mid
            else:
                hi = mid
        xi_star = 0.5 * (lo + hi)
        assert abs(xi_star - 0.0410) <= 5e-4
        _, eta_carnot = reference_efficiencies(config)
        assert abs(eta_carnot - 0.5880) <= 1e-3


def test_criterion_6_mode_agreement():
    with criterion(6, "closed-form, effective and full modes agree", 900.0):
        for label, config in PANELS.items():
            equilibria = prepare_bath_equilibria(config)
            for key, value in equilibria.diagnostics.items():
                if key.endswith("trace_drift"):
                    record_hygiene(f"c6:{label}:{key}", value, 0.0)
                if key.endswith("min_eigenvalue"):
                    record_hygiene(f"c6:{label}:{key}", 0.0, value)
            worst_full = 0.0
            worst_effective = 0.0
            engine_points = 0
            for xi in np.linspace(0.0, 0.5, 41):
                closed = run_cycle_closed_form(config, xi)
                if closed.regime is not Regime.HEAT_ENGINE:
                    continue
                effective = run_cycle_effective(config, xi)
                full = run_cycle_full(config, xi, equilibria=equilibria)
                assert effective.regime is Regime.HEAT_ENGINE
                assert full.regime is Regime.HEAT_ENGINE
                engine_points += 1
                worst_effective = max(
                    worst_effective, abs(effective.efficiency - closed.efficiency)
                )
                worst_full = max(
                    worst_full, abs(full.efficiency - effective.efficiency)
                )
            assert engine_points >= 2, f"panel {label}: engine window too small"
            assert worst_effective <= 1e-6, f"panel {label}: {worst_effective:.2e}"
            assert worst_full <= 0.02, f"panel {label}: {worst_full:.2e}"


def test_criterion_7_unitary_stroke_validation():
    with criterion(7, "carrier propagator against the closed form", 5.0):
        rng = np.random.default_rng(7)
        for _ in range(100):
            omega = 10.0 ** rng.uniform(-3, 1)
            tau = rng.uniform(0.0, 2 * math.pi / omega)
            u = carrier_propagator_numeric(omega, tau)
            assert abs(abs(u[1, 0]) ** 2 - transition_probability(omega, tau)) <= 1e-9
        # relabeling alone never touches populations
        state = np.diag([0.815, 0.185]).astype(complex)
        assert np.abs(apply_transition_mixing(state, 0.0) - state).max() <= 1e-14
        assert np.abs(rabi_mixing_unitary(0.0) - np.eye(2)).max() <= 1e-14


def test_criterion_8_oscillator_variant():
    with criterion(8, "mode working substance: effective and full", 120.0):
        gamma_e = TWO_PI
        target = TWO_PI * 2.5e-4  # regime ratio 50 for the thermal bath
        thermal = ReservoirSpec.thermal(target, 0.6)
        settings = match_rabi_for_mode(thermal, 0.01, gamma_e, gamma_e)
        assert settings.regime_ratio >= 50

        rho = steady_state(effective_mode_model(thermal, settings, 20))
        assert abs(expectation(number_op(20), rho) - 0.6) <= 1e-6
        record_hygiene(
            "c8:thermal_mode",
            abs(np.trace(rho).real - 1.0),
            float(np.linalg.eigvalsh(rho).min()),
        )

        # squeezed bath: anomalous moment against the linear-solve oracle
        squeezed = ReservoirSpec.squeezed_thermal(TWO_PI * 2e-4, 0.4, 0.5)
        sq_settings = match_rabi_for_mode(squeezed, 0.01, gamma_e, gamma_e)
        fock = 48
        report = equilibrate(
            effective_mode_model(squeezed, sq_settings, fock),
            vacuum_state(fock),
            change_tol=1e-10,
        )
        record_hygiene("c8:squeezed_mode", report.max_trace_drift, report.min_eigenvalue)
        n_oracle, a2_oracle = quadratic_mode_moments(
            mode_collapse_channels(sq_settings, fock)
        )
        a = destroy(fock)
        assert abs(expectation(number_op(fock), report.final_state) - n_oracle) <= 1e-6
        a2_sim = expectation(a @ a, report.final_state)
        assert abs(a2_sim - a2_oracle) <= 1e-6
        assert abs(a2_sim) > 0.5

        # full three-level dynamics from the electronic ground state
        fock_v = 12
        config = VSystemConfig(
            omega_ge=TWO_PI * 1e6,
            omega_gf=1.2 * TWO_PI * 1e6,
            omega_m=10 * TWO_PI,
            lamb=0.01,
            gamma_ge=gamma_e,
            gamma_gf=gamma_e,
            rabi=settings.rabi,
            fock_dim=fock_v,
        )
        model = full_v_model(config, settings, fock_v)
        layout = SpaceLayout((3, fock_v))
        rho0 = kron(ketbra(3, 0, 0), vacuum_state(fock_v))
        report = equilibrate(model, rho0, change_tol=1e-10)
        record_hygiene("c8:full_v", report.max_trace_drift, report.min_eigenvalue)
        reduced = partial_trace(report.final_state, layout, keep=(1,))
        effective = equilibrate(
            effective_mode_model(thermal, settings, fock_v),
            vacuum_state(fock_v),
            change_tol=1e-10,
        ).final_state
        n_full = expectation(number_op(fock_v), reduced)
        n_eff = expectation(number_op(fock_v), effective)
        assert abs(n_full - n_eff) / n_eff <= 0.02
        assert abs(n_full - 0.6) / 0.6 <= 0.02


def test_criterion_9_solver_hygiene():
    with criterion(9, "trace drift, positivity, solver cross-checks", 30.0):
        assert HYGIENE, "no hygiene records were collected"
        for label, drift, min_eig in HYGIENE:
            assert drift <= 1e-8, f"{label}: trace drift {drift:.2e}"
            assert min_eig >= -1e-9, f"{label}: min eigenvalue {min_eig:.2e}"
        # direct null-space solve against long-time integration, for every
        # bath used above
        for spec in (
            ReservoirSpec.thermal(GAMMA, 0.6),
            ReservoirSpec.thermal(GAMMA, 1.2),
            ReservoirSpec.negative_temperature(GAMMA, 0.8),
            ReservoirSpec.squeezed_thermal(GAMMA, 0.4, 0.5),
        ):
            model = spec.bath_model
            direct = steady_state(model)
            evolved = evolve(
                model, np.diag([0.7, 0.3]).astype(complex), 40.0 / GAMMA
            )
            assert np.abs(direct - evolved.final_state).max() <= 1e-6
            record_hygiene(
                f"c9:{spec.kind.value}",
                evolved.max_trace_drift,
                evolved.min_eigenvalue,
            )
            assert evolved.max_trace_drift <= 1e-8
            assert evolved.min_eigenvalue >= -1e-9
