"""Four-stroke quantum Otto cycle on the electronic two-level system.

The working substance starts in the cold Gibbs state.  An expansion
stroke widens the electronic gap from omega_c to omega_h (which by itself
never changes populations) and an on-resonance carrier pulse then mixes
the populations with transition probability xi.  A heating stroke
equilibrates with the engineered hot bath, compression mirrors the
expansion back to omega_c, and a cooling stroke re-thermalizes with the
cold bath, closing the loop.

Work is booked on the unitary strokes and heat on the bath strokes as
energy differences of the bare gap Hamiltonian at the stroke boundaries,
with the carrier-drive energy counted as work injected by the classical
field.  Three execution modes produce the same bookkeeping: closed-form
expressions, simulated effective two-level dynamics, and the full joint
dynamics of electron plus two damped motional modes.

All energies are reported in units of hbar * omega_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .lindblad import EquilibrationReport, LindbladModel, equilibrate, expectation
from .operators import SpaceLayout, partial_trace, sigma_z, vacuum_state
from .reservoirs import (
    ADIABATIC_RATIO_FLOOR,
    BathKind,
    ReservoirSpec,
    bath_steady_state,
    electronic_bath_model,
    full_joint_model,
    match_rabi_frequencies,
    spec_theta,
)

__all__ = [
    "CycleMode",
    "Regime",
    "Tolerances",
    "CycleConfig",
    "StrokeEnergy",
    "CycleResult",
    "BathEquilibria",
    "transition_probability",
    "pulse_duration",
    "rabi_mixing_unitary",
    "apply_transition_mixing",
    "carrier_propagator_numeric",
    "closed_form_thermo",
    "classify_regime",
    "engine_efficiency_formula",
    "reference_efficiencies",
    "run_cycle_closed_form",
    "run_cycle_effective",
    "run_cycle_full",
    "prepare_bath_equilibria",
    "LAMB_DICKE_CEILING",
]

# Validity ceiling for lambda * sqrt(max <a^dag a>) after a joint run.
LAMB_DICKE_CEILING = 0.1


class CycleMode(str, Enum):
    CLOSED_FORM = "closed_form"
    EFFECTIVE = "effective"
    FULL = "full"


class Regime(str, Enum):
    HEAT_ENGINE = "heat_engine"
    REFRIGERATOR = "refrigerator"
    ACCELERATOR = "accelerator"
    HEATER = "heater"
    DOUBLE_ABSORPTION = "double_absorption"


@dataclass(frozen=True)
class Tolerances:
    integrator_rtol: float = 1e-9
    integrator_atol: float = 1e-12
    equilibration_change: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("integrator_rtol", "integrator_atol", "equilibration_change"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.integrator_rtol > 1e-4:
            raise ValueError(
                f"integrator_rtol must be <= 1e-4, got {self.integrator_rtol}"
            )
        # a looser absolute error would keep the window change above its test
        if self.integrator_atol > self.equilibration_change:
            raise ValueError(
                f"integrator_atol {self.integrator_atol} must not exceed "
                f"equilibration_change {self.equilibration_change}"
            )


@dataclass(frozen=True)
class CycleConfig:
    """All engine parameters.

    The optical frequencies omega_e_cold and omega_e_hot (rad/us) enter
    the results only through their ratio and through the bath occupation
    numbers; the simulated dynamics run in frames where they drop out.
    ``fock_dim`` truncates the two motional modes of the full mode: its
    joint bath solves keep the basis states with n_x + n_y < fock_dim.
    """

    omega_e_cold: float
    omega_e_hot: float
    omega_m: float
    lamb: float
    kappa: float
    drive_rabi: float
    cold: ReservoirSpec
    hot: ReservoirSpec
    fock_dim: int = 6
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self) -> None:
        if self.omega_e_hot <= self.omega_e_cold:
            raise ValueError(
                "expansion must widen the electronic gap: "
                f"omega_e_hot {self.omega_e_hot} <= omega_e_cold {self.omega_e_cold}"
            )
        for name in (
            "omega_e_cold", "omega_e_hot", "omega_m", "lamb", "kappa", "drive_rabi"
        ):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.cold.kind is not BathKind.THERMAL:
            raise ValueError("the cold reservoir must be a thermal bath")
        if self.cold.n_occupation <= 0:
            raise ValueError("the cold reservoir needs occupation > 0")
        if self.fock_dim < 2:
            raise ValueError(f"fock_dim must be at least 2, got {self.fock_dim}")

    @property
    def frequency_ratio(self) -> float:
        return self.omega_e_hot / self.omega_e_cold

    @property
    def theta_cold(self) -> float:
        return spec_theta(self.cold).theta

    @property
    def theta_hot(self) -> float:
        """Signed theta of the hot bath (negative for inverted baths)."""
        return spec_theta(self.hot).theta

    @property
    def zeta(self) -> float:
        return self.hot.zeta


@dataclass(frozen=True)
class StrokeEnergy:
    """Per-stroke energy bookkeeping in units of hbar * omega_c."""

    w_expansion: float
    w_compression: float
    q_hot: float
    q_cold: float

    @property
    def net_work(self) -> float:
        return self.w_expansion + self.w_compression

    @property
    def first_law_defect(self) -> float:
        """Should vanish for a closed cycle."""
        return self.w_expansion + self.w_compression + self.q_hot + self.q_cold


@dataclass(frozen=True)
class CycleResult:
    energies: StrokeEnergy
    efficiency: float | None
    regime: Regime
    xi: float
    mode: CycleMode
    eta_otto: float
    eta_carnot: float | None
    flags: tuple[str, ...] = ()
    diagnostics: Mapping[str, float] | None = None


def transition_probability(drive_rabi: float, tau_prime: float) -> float:
    """Carrier-pulse transition probability sin^2(Omega tau' / 2)."""
    if drive_rabi <= 0:
        raise ValueError(f"drive Rabi frequency must be > 0, got {drive_rabi}")
    if tau_prime < 0:
        raise ValueError(f"pulse duration must be >= 0, got {tau_prime}")
    return math.sin(drive_rabi * tau_prime / 2.0) ** 2


def pulse_duration(drive_rabi: float, xi: float) -> float:
    """Inverse of :func:`transition_probability` on the first half period."""
    if drive_rabi <= 0:
        raise ValueError(f"drive Rabi frequency must be > 0, got {drive_rabi}")
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"transition probability must lie in [0, 1], got {xi}")
    return 2.0 * math.asin(math.sqrt(xi)) / drive_rabi


def rabi_mixing_unitary(xi: float) -> np.ndarray:
    """Rotating-frame carrier unitary with |<e|U|g>|^2 = xi."""
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"transition probability must lie in [0, 1], got {xi}")
    half = math.asin(math.sqrt(xi))
    c, s = math.cos(half), math.sin(half)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def apply_transition_mixing(state: np.ndarray, xi: float) -> np.ndarray:
    """Population map of the carrier pulse on a diagonal two-level state.

    Every stroke-boundary state in this cycle is diagonal (bath contact
    leaves no coherence and the gap relabeling creates none), so only the
    populations move: p_e -> (1 - xi) p_e + xi p_g.  Residual off-diagonal
    entries of the input are dropped.
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"transition probability must lie in [0, 1], got {xi}")
    p_g = state[0, 0].real
    p_e = state[1, 1].real
    return np.diag(
        [(1.0 - xi) * p_g + xi * p_e, (1.0 - xi) * p_e + xi * p_g]
    ).astype(complex)


# Fourth-order commutator-free scheme: two exponentials per step with
# Gauss-Legendre nodes, coefficients 1/4 +/- sqrt(3)/6.
_CF4_NODE_OFFSET = math.sqrt(3.0) / 6.0
_CF4_A1 = 0.25 + _CF4_NODE_OFFSET
_CF4_A2 = 0.25 - _CF4_NODE_OFFSET


def _su2_exponentials(cx: np.ndarray, cy: np.ndarray, cz: np.ndarray) -> np.ndarray:
    """Stacked exp(-i (cx sx + cy sy + cz sz)) via the axis-angle form."""
    angle = np.sqrt(cx**2 + cy**2 + cz**2)
    small = angle < 1e-30
    sinc = np.where(small, 1.0, np.sin(angle) / np.where(small, 1.0, angle))
    out = np.zeros(cx.shape + (2, 2), dtype=complex)
    cos = np.cos(angle)
    out[..., 0, 0] = cos + 1j * cz * sinc
    out[..., 1, 1] = cos - 1j * cz * sinc
    out[..., 0, 1] = -sinc * (1j * cx + cy)
    out[..., 1, 0] = -sinc * (1j * cx - cy)
    return out


def carrier_propagator_numeric(
    drive_rabi: float,
    tau_prime: float,
    steps: int = 4096,
    omega_e: float | None = None,
) -> np.ndarray:
    """Time-ordered carrier propagator in the lab frame.

    Integrates the gap Hamiltonian plus the resonant drive, whose
    noncommuting time dependence requires genuine time ordering, as a
    product of short-step fourth-order commutator-free exponentials.
    The transition probability |<e|U|g>|^2 must reproduce the closed form
    sin^2(Omega tau'/2) for any electronic frequency; ``omega_e``
    defaults to a modest multiple of the drive so the product stays well
    conditioned (the physical optical frequency is irrelevant here).
    """
    if steps < 100:
        raise ValueError(f"need at least 100 steps, got {steps}")
    if drive_rabi <= 0:
        raise ValueError(f"drive Rabi frequency must be > 0, got {drive_rabi}")
    if tau_prime < 0:
        raise ValueError(f"pulse duration must be >= 0, got {tau_prime}")
    if tau_prime == 0.0:
        return np.eye(2, dtype=complex)
    if omega_e is None:
        omega_e = 5.0 * drive_rabi
    h = tau_prime / steps
    starts = h * np.arange(steps)
    # two-point Gauss-Legendre nodes 1/2 -/+ sqrt(3)/6 on each step
    t1 = starts + (0.5 - _CF4_NODE_OFFSET) * h
    t2 = starts + (0.5 + _CF4_NODE_OFFSET) * h

    def factor(w1: float, w2: float) -> np.ndarray:
        # combined generator h * (w1 H(t1) + w2 H(t2)) as sx, sy, sz parts
        cx = 0.5 * drive_rabi * h * (w1 * np.cos(omega_e * t1) + w2 * np.cos(omega_e * t2))
        cy = -0.5 * drive_rabi * h * (w1 * np.sin(omega_e * t1) + w2 * np.sin(omega_e * t2))
        cz = 0.5 * omega_e * h * (w1 + w2) * np.ones_like(t1)
        return _su2_exponentials(cx, cy, cz)

    # per step: exp(X2) exp(X1), applied after all earlier steps
    first = factor(_CF4_A1, _CF4_A2)
    second = factor(_CF4_A2, _CF4_A1)
    product = second @ first
    # pairwise time-ordered reduction; an odd leftover is the latest
    # factor of the current round and moves into the left carry
    carry = np.eye(2, dtype=complex)
    while product.shape[0] > 1:
        if product.shape[0] % 2:
            carry = carry @ product[-1]
            product = product[:-1]
        product = product[1::2] @ product[0::2]
    return carry @ product[0]


def closed_form_thermo(config: CycleConfig, xi: float) -> StrokeEnergy:
    """Per-stroke energies from the analytic stroke bookkeeping.

    With T_c = tanh(theta_c), T_h = zeta * tanh(theta_h) (theta_h signed,
    negative for an inverted hot bath) and R = omega_h / omega_c:

        W_exp  = T_c (1 - R (1 - 2 xi)) / 2
        W_comp = T_h (R - (1 - 2 xi)) / 2
        Q_hot  = R ((1 - 2 xi) T_c - T_h) / 2
        Q_cold = -(T_c - (1 - 2 xi) T_h) / 2

    which sum to zero identically for every xi, theta and squeezing.
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"transition probability must lie in [0, 1], got {xi}")
    ratio = config.frequency_ratio
    t_c = math.tanh(config.theta_cold)
    t_h = config.zeta * math.tanh(config.theta_hot)
    survival = 1.0 - 2.0 * xi
    return StrokeEnergy(
        w_expansion=0.5 * t_c * (1.0 - ratio * survival),
        w_compression=0.5 * t_h * (ratio - survival),
        q_hot=0.5 * ratio * (survival * t_c - t_h),
        q_cold=-0.5 * (t_c - survival * t_h),
    )


def classify_regime(
    w_net: float, q_hot: float, q_cold: float, tol: float = 1e-12
) -> Regime:
    """Thermal-machine label from the signs of (W_net, Q_hot, Q_cold).

    Work extracted (W < 0) makes an engine, or a double absorption when
    both baths supply heat.  Work consumed pumps heat cold-to-hot
    (refrigerator), assists the natural hot-to-cold flow (accelerator),
    or is dumped into the baths (heater).  Degenerate all-zero corners
    fall through to the heater label.  The map is total over every sign
    combination.
    """
    if w_net < -tol:
        if q_hot > tol and q_cold > tol:
            return Regime.DOUBLE_ABSORPTION
        return Regime.HEAT_ENGINE
    if w_net > tol:
        if q_hot < -tol and q_cold > tol:
            return Regime.REFRIGERATOR
        if q_hot > tol and q_cold < -tol:
            return Regime.ACCELERATOR
        return Regime.HEATER
    if q_hot > tol and q_cold < -tol:
        return Regime.ACCELERATOR
    if q_hot < -tol and q_cold > tol:
        return Regime.REFRIGERATOR
    return Regime.HEATER


def _efficiency_from_energies(energies: StrokeEnergy, regime: Regime) -> float | None:
    """eta = -W_net / Q_absorbed; defined for work-extracting regimes only.

    When both baths feed heat into the working substance the first law
    forces eta = 1 exactly.
    """
    if regime not in (Regime.HEAT_ENGINE, Regime.DOUBLE_ABSORPTION):
        return None
    absorbed = max(energies.q_hot, 0.0) + max(energies.q_cold, 0.0)
    return -energies.net_work / absorbed


def engine_efficiency_formula(config: CycleConfig, xi: float) -> float:
    """Closed-form engine efficiency, one bracket for every bath kind.

    eta = 1 - (omega_c / omega_h) * (T_c - u T_h) / (u T_c - T_h) with
    u = 1 - 2 xi and the signed, squeezing-contracted T_h; specializing
    T_h reproduces the published thermal, inverted and squeezed forms.
    Meaningful in the work-extracting regime (the bracket denominator is
    proportional to Q_hot).
    """
    t_c = math.tanh(config.theta_cold)
    t_h = config.zeta * math.tanh(config.theta_hot)
    survival = 1.0 - 2.0 * xi
    bracket = (t_c - survival * t_h) / (survival * t_c - t_h)
    return 1.0 - bracket / config.frequency_ratio


def reference_efficiencies(config: CycleConfig) -> tuple[float, float | None]:
    """Otto bound 1 - omega_c/omega_h and, when the hot bath has a
    positive temperature before squeezing, the Carnot bound
    1 - beta_h / beta_c."""
    eta_otto = 1.0 - 1.0 / config.frequency_ratio
    theta_h = config.theta_hot
    if theta_h <= 0:
        return eta_otto, None
    beta_ratio = (theta_h / config.theta_cold) / config.frequency_ratio
    return eta_otto, 1.0 - beta_ratio


def _result_from_energies(
    config: CycleConfig,
    xi: float,
    mode: CycleMode,
    energies: StrokeEnergy,
    flags: tuple[str, ...] = (),
    diagnostics: Mapping[str, float] | None = None,
) -> CycleResult:
    regime = classify_regime(energies.net_work, energies.q_hot, energies.q_cold)
    eta = _efficiency_from_energies(energies, regime)
    eta_otto, eta_carnot = reference_efficiencies(config)
    return CycleResult(
        energies=energies,
        efficiency=eta,
        regime=regime,
        xi=xi,
        mode=mode,
        eta_otto=eta_otto,
        eta_carnot=eta_carnot,
        flags=flags,
        diagnostics=diagnostics,
    )


def run_cycle_closed_form(config: CycleConfig, xi: float) -> CycleResult:
    """Evaluate the cycle from the analytic stroke bookkeeping."""
    return _result_from_energies(
        config, xi, CycleMode.CLOSED_FORM, closed_form_thermo(config, xi)
    )


def _gap_energy(state: np.ndarray, gap: float) -> float:
    """tr(H state) with H = (gap / 2) sigma_z, gap in units of omega_c."""
    return 0.5 * gap * expectation(sigma_z(), state)


def _run_strokes(
    config: CycleConfig,
    xi: float,
    start: np.ndarray,
    heat: Callable[[np.ndarray], np.ndarray],
    cool: Callable[[np.ndarray], np.ndarray],
) -> tuple[StrokeEnergy, float]:
    """Run the four strokes from ``start`` and book their energies.

    ``heat`` and ``cool`` map the electronic state entering a bath stroke
    to the state leaving it; they are all that distinguishes the
    simulated modes.  Returns the stroke energies and the cycle closure,
    the largest entrywise distance between the final and the start state.
    """
    ratio = config.frequency_ratio
    mixed_hot_gap = apply_transition_mixing(start, xi)
    hot_state = heat(mixed_hot_gap)
    mixed_cold_gap = apply_transition_mixing(hot_state, xi)
    cold_state = cool(mixed_cold_gap)

    e_start = _gap_energy(start, 1.0)
    e_after_expansion = _gap_energy(mixed_hot_gap, ratio)
    e_after_heating = _gap_energy(hot_state, ratio)
    e_after_compression = _gap_energy(mixed_cold_gap, 1.0)
    e_after_cooling = _gap_energy(cold_state, 1.0)
    energies = StrokeEnergy(
        w_expansion=e_after_expansion - e_start,
        w_compression=e_after_compression - e_after_heating,
        q_hot=e_after_heating - e_after_expansion,
        q_cold=e_after_cooling - e_after_compression,
    )
    return energies, float(np.abs(cold_state - start).max())


def run_cycle_effective(config: CycleConfig, xi: float) -> CycleResult:
    """Simulate the cycle under the eliminated two-level dynamics.

    Bath strokes integrate the engineered collapse channels to
    equilibration; unitary strokes relabel the gap and apply the carrier
    population mixing.  Energies are booked at the stroke boundaries and
    match :func:`closed_form_thermo` to the equilibration tolerance.
    """
    tols = config.tolerances
    reports: list[EquilibrationReport] = []

    def contact(spec: ReservoirSpec) -> Callable[[np.ndarray], np.ndarray]:
        model = electronic_bath_model(spec)

        def stroke(state: np.ndarray) -> np.ndarray:
            reports.append(
                equilibrate(
                    model,
                    state,
                    change_tol=tols.equilibration_change,
                    tol=tols.integrator_rtol,
                    atol=tols.integrator_atol,
                )
            )
            return reports[-1].final_state

        return stroke

    energies, closure = _run_strokes(
        config,
        xi,
        bath_steady_state(config.cold),
        contact(config.hot),
        contact(config.cold),
    )
    diagnostics = {
        "cycle_closure": closure,
        "max_trace_drift": max(report.max_trace_drift for report in reports),
        "min_eigenvalue": min(report.min_eigenvalue for report in reports),
    }
    return _result_from_energies(
        config, xi, CycleMode.EFFECTIVE, energies, diagnostics=diagnostics
    )


@dataclass(frozen=True)
class BathEquilibria:
    """Electronic states reached by full-dynamics bath contact.

    The joint steady state of each bath contact is unique and independent
    of the electronic state the stroke starts from, so one equilibration
    per bath serves every transition probability in a sweep.
    """

    cold_state: np.ndarray
    hot_state: np.ndarray
    flags: tuple[str, ...]
    diagnostics: Mapping[str, float]


def _joint_bath_stroke(
    config: CycleConfig,
    spec: ReservoirSpec,
    electronic_start: np.ndarray,
    label: str,
) -> tuple[np.ndarray, tuple[str, ...], dict[str, float]]:
    """Equilibrate electron x vacuum x vacuum against one engineered bath.

    The solve keeps only the joint basis states with n_x + n_y < fock_dim
    (an excitation-number-restricted truncation; the modes stay near
    vacuum) and scatters its result back into the box layout.
    """
    n_max = config.fock_dim
    layout = SpaceLayout((2, n_max, n_max))
    settings = match_rabi_frequencies(spec, config.lamb, config.kappa)
    model = full_joint_model(spec, config.lamb, config.kappa, n_max, settings=settings)
    vac = vacuum_state(n_max)
    joint0 = np.kron(np.kron(electronic_start, vac), vac)
    excitations = np.add.outer(np.arange(n_max), np.arange(n_max)).ravel()
    window = np.flatnonzero(np.tile(excitations < n_max, 2))
    kept = np.ix_(window, window)
    restricted = LindbladModel(
        hamiltonian=model.hamiltonian[kept],
        channels=tuple((rate, op[kept]) for rate, op in model.channels),
        slow_rate=model.slow_rate,
    )
    report = equilibrate(
        restricted,
        joint0[kept],
        change_tol=config.tolerances.equilibration_change,
        tol=config.tolerances.integrator_rtol,
        atol=config.tolerances.integrator_atol,
        method="implicit",
    )
    final = np.zeros_like(joint0)
    final[kept] = report.final_state
    reduced = partial_trace(final, layout, keep=(0,))
    number = np.diag(np.arange(n_max, dtype=float)).astype(complex)
    occ_x = expectation(layout.embed(number, 1), final)
    occ_y = expectation(layout.embed(number, 2), final)
    max_occ = max(occ_x, occ_y)
    lamb_dicke = config.lamb * math.sqrt(max(max_occ, 0.0))
    flags = []
    if lamb_dicke >= LAMB_DICKE_CEILING:
        flags.append(f"lamb_dicke_violation:{label}")
    if settings.regime_ratio < ADIABATIC_RATIO_FLOOR:
        flags.append(f"adiabatic_ratio_low:{label}")
    diagnostics = {
        f"{label}_regime_ratio": settings.regime_ratio,
        f"{label}_max_mode_occupation": max_occ,
        f"{label}_lamb_dicke": lamb_dicke,
        f"{label}_trace_drift": report.max_trace_drift,
        f"{label}_min_eigenvalue": report.min_eigenvalue,
        f"{label}_windows": float(report.windows),
    }
    return reduced, tuple(flags), diagnostics


def prepare_bath_equilibria(config: CycleConfig) -> BathEquilibria:
    """Equilibrate both bath contacts once under the full joint dynamics."""
    cold_state, cold_flags, cold_diag = _joint_bath_stroke(
        config, config.cold, bath_steady_state(config.cold), "cold"
    )
    hot_state, hot_flags, hot_diag = _joint_bath_stroke(
        config, config.hot, bath_steady_state(config.hot), "hot"
    )
    return BathEquilibria(
        cold_state=cold_state,
        hot_state=hot_state,
        flags=cold_flags + hot_flags,
        diagnostics={**cold_diag, **hot_diag},
    )


def run_cycle_full(
    config: CycleConfig, xi: float, equilibria: BathEquilibria | None = None
) -> CycleResult:
    """Simulate the cycle with joint electron-motion bath strokes.

    Heating and cooling evolve the joint state (electron and two damped
    modes, motional part starting in vacuum) to equilibration and the
    electronic state is read back by partial trace.  Passing precomputed
    ``equilibria`` reuses the bath steady states, which the stroke
    endpoint does not depend on; otherwise each bath stroke is evolved
    from its actual start state.
    """
    if equilibria is not None:
        energies, closure = _run_strokes(
            config,
            xi,
            equilibria.cold_state,
            lambda _: equilibria.hot_state,
            lambda _: equilibria.cold_state,
        )
        flags = equilibria.flags
        diagnostics = dict(equilibria.diagnostics)
    else:
        outputs = [
            _joint_bath_stroke(
                config, config.cold, bath_steady_state(config.cold), "cold"
            )
        ]

        def contact(
            spec: ReservoirSpec, label: str
        ) -> Callable[[np.ndarray], np.ndarray]:
            def stroke(state: np.ndarray) -> np.ndarray:
                outputs.append(_joint_bath_stroke(config, spec, state, label))
                return outputs[-1][0]

            return stroke

        energies, closure = _run_strokes(
            config,
            xi,
            outputs[0][0],
            contact(config.hot, "hot"),
            contact(config.cold, "cold_return"),
        )
        flags = tuple(flag for _, stroke_flags, _ in outputs for flag in stroke_flags)
        diagnostics = {key: value for *_, diag in outputs for key, value in diag.items()}
    diagnostics["cycle_closure"] = closure
    return _result_from_energies(
        config, xi, CycleMode.FULL, energies, flags=flags, diagnostics=diagnostics
    )


def truncation_shift(config: CycleConfig, extra: int = 2) -> float:
    """Largest steady-population move when the Fock truncation grows.

    Reruns both bath equilibrations at fock_dim + ``extra`` and returns
    the largest absolute change of the reduced electronic populations; a
    converged truncation keeps this below 1e-4.
    """
    base = prepare_bath_equilibria(config)
    larger = prepare_bath_equilibria(replace(config, fock_dim=config.fock_dim + extra))
    shift_cold = np.abs(np.diag(base.cold_state - larger.cold_state).real).max()
    shift_hot = np.abs(np.diag(base.hot_state - larger.hot_state).real).max()
    return float(max(shift_cold, shift_hot))
