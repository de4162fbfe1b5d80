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
field.  One stroke engine books every mode; the modes differ only in how
they reach the bath endpoints: the closed form takes the effective baths'
analytic steady states, the effective mode integrates the eliminated
two-level dynamics, and the full mode solves the joint dynamics of
electron plus two damped motional modes.

All energies are reported in units of hbar * omega_c.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .lindblad import (
    EquilibrationReport,
    LindbladModel,
    equilibrate,
    equilibrate_lanes,
)
from .operators import (
    SpaceLayout,
    _truncation,
    kron,
    partial_trace,
    sigma_minus,
    vacuum_state,
)
from .reservoirs import (
    ADIABATIC_RATIO_FLOOR,
    BathKind,
    LaserSettings,
    ReservoirSpec,
    _excitation_window,
    bath_steady_state,
    channels_from_settings,
    full_joint_model,
    match_rabi_frequencies,
    spec_theta,
)

__all__ = [
    "ConfigError",
    "CycleMode",
    "Regime",
    "CycleConfig",
    "StrokeEnergy",
    "CycleResult",
    "BathEquilibria",
    "apply_transition_mixing",
    "classify_regime",
    "reference_efficiencies",
    "run_cycle_closed_form",
    "run_cycle_effective",
    "run_cycle_effective_grid",
    "run_cycle_full",
    "prepare_bath_equilibria",
    "LAMB_DICKE_CEILING",
]

# Validity ceiling for lambda * sqrt(max <a^dag a>) after a joint run.
LAMB_DICKE_CEILING = 0.1
# Ceiling for a joint bath solve's relative residual max |B rho| / max |B|.
_RESIDUAL_CEILING = 1e-8
# Energies closer to zero than this count as zero when classifying a regime.
_REGIME_TOL = 1e-12
# Largest motional truncation: the full-mode joint model has fock_dim
# (fock_dim + 1) states, and building it at 32 peaks at about 98 MB.
_MAX_FOCK_DIM = 32
# Largest matching-identity defect, relative to the target bath's largest
# generator entry, that a config accepts (the shipped configs, and fig2c
# at hot squeezings up to MAX_SQUEEZING, measure at most 6.4e-16).
_MATCHING_TOL = 1e-10


class ConfigError(Exception):
    """A sweep configuration could not be parsed or violates an invariant."""


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
class CycleConfig:
    """All engine parameters.

    The optical frequencies omega_e_cold and omega_e_hot (rad/us) enter
    the results only through their ratio and through the bath occupation
    numbers; the simulated dynamics run in frames where they drop out.
    ``fock_dim`` truncates the two motional modes of the full mode: its
    joint bath solves keep the basis states with n_x + n_y < fock_dim.
    Each bath's laser matching runs once per config, on first use of
    :attr:`matchings`, which every reader of the matched lasers shares.
    """

    omega_e_cold: float
    omega_e_hot: float
    lamb: float
    kappa: float
    cold: ReservoirSpec
    hot: ReservoirSpec
    fock_dim: int = 6

    def __post_init__(self) -> None:
        if self.omega_e_hot <= self.omega_e_cold:
            raise ValueError(
                "expansion must widen the electronic gap: "
                f"omega_e_hot {self.omega_e_hot} <= omega_e_cold {self.omega_e_cold}"
            )
        for name in ("omega_e_cold", "omega_e_hot", "lamb", "kappa"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.cold.kind is not BathKind.THERMAL:
            raise ValueError("the cold reservoir must be a thermal bath")
        # theta, and with it every mode, is undefined at zero occupation
        for label, spec in (("cold", self.cold), ("hot", self.hot)):
            if spec.n_occupation <= 0:
                raise ValueError(f"the {label} reservoir needs occupation > 0")
        if not 2 <= _truncation(self.fock_dim, "fock_dim") <= _MAX_FOCK_DIM:
            raise ValueError(
                f"fock_dim must lie in [2, {_MAX_FOCK_DIM}], got {self.fock_dim}"
            )

    @cached_property
    def matchings(self) -> dict[str, tuple[LaserSettings, float]]:
        """Matched lasers and matching-identity defect max |L_lasers -
        L_target| of each bath, by label ("cold", "hot").

        A defect past ``_MATCHING_TOL`` of the largest |L_target| raises
        ``ConfigError`` naming the bath.  The matching's own warning on a
        low adiabatic ratio is not raised: every reader reports
        ``LaserSettings.regime_ratio`` instead.
        """
        matchings = {}
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", ".*adiabatic elimination quality degrades", RuntimeWarning
            )
            for label, spec in (("cold", self.cold), ("hot", self.hot)):
                settings = match_rabi_frequencies(spec, self.lamb, self.kappa)
                channels = channels_from_settings(settings, sigma_minus())
                lasers = LindbladModel(spec.bath_model.hamiltonian, channels)
                expected = spec.bath_model.generator
                defect = np.abs(lasers.generator - expected).max()
                relative = defect / np.abs(expected).max()
                if not relative <= _MATCHING_TOL:
                    raise ConfigError(
                        f"{label}: the matched laser channels miss the bath's generator "
                        f"by {relative:.3e} of its largest entry "
                        f"(tolerance {_MATCHING_TOL:.0e})"
                    )
                matchings[label] = settings, defect
        return matchings

    @property
    def frequency_ratio(self) -> float:
        return self.omega_e_hot / self.omega_e_cold

    @property
    def theta_cold(self) -> float:
        return spec_theta(self.cold)

    @property
    def theta_hot(self) -> float:
        """Signed theta of the hot bath (negative for inverted baths)."""
        return spec_theta(self.hot)

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


def classify_regime(w_net: float, q_hot: float, q_cold: float) -> Regime:
    """Thermal-machine label from the signs of (W_net, Q_hot, Q_cold).

    Work extracted (W < 0) makes an engine, or a double absorption when
    both baths supply heat.  Work consumed pumps heat cold-to-hot
    (refrigerator), assists the natural hot-to-cold flow (accelerator),
    or is dumped into the baths (heater).  Degenerate all-zero corners
    fall through to the heater label.  The map is total over every sign
    combination.
    """
    if w_net < -_REGIME_TOL:
        if q_hot > _REGIME_TOL and q_cold > _REGIME_TOL:
            return Regime.DOUBLE_ABSORPTION
        return Regime.HEAT_ENGINE
    if w_net > _REGIME_TOL:
        if q_hot < -_REGIME_TOL and q_cold > _REGIME_TOL:
            return Regime.REFRIGERATOR
        if q_hot > _REGIME_TOL and q_cold < -_REGIME_TOL:
            return Regime.ACCELERATOR
        return Regime.HEATER
    if q_hot > _REGIME_TOL and q_cold < -_REGIME_TOL:
        return Regime.ACCELERATOR
    if q_hot < -_REGIME_TOL and q_cold > _REGIME_TOL:
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
    """Evaluate the cycle with the effective baths' analytic steady states
    as its bath endpoints."""
    cold, hot = bath_steady_state(config.cold), bath_steady_state(config.hot)
    return _fixed_endpoint_row(config, xi, CycleMode.CLOSED_FORM, cold, hot)


def _gap_energy(state: np.ndarray, gap: float) -> float:
    """tr(H state) with H = (gap / 2) sigma_z, gap in units of omega_c."""
    return float(0.5 * gap * (state[1, 1].real - state[0, 0].real))


def _run_strokes(
    config: CycleConfig,
    xis: Sequence[float],
    start: np.ndarray,
    heat: Callable[[list[np.ndarray]], list[np.ndarray]],
    cool: Callable[[list[np.ndarray]], list[np.ndarray]],
) -> tuple[list[StrokeEnergy], list[np.ndarray]]:
    """Run the four strokes from ``start`` at each transition probability
    of ``xis`` and book their energies: the one bookkeeping of every mode.

    ``heat`` and ``cool`` map the electronic states entering a bath stroke,
    one per transition probability, to the states leaving it; they are all
    that distinguishes the modes.  Returns the stroke energies and the
    state after cooling of each transition probability.
    """
    ratio = config.frequency_ratio
    mixed_hot_gap = [apply_transition_mixing(start, xi) for xi in xis]
    hot_states = heat(mixed_hot_gap)
    mixed_cold_gap = [apply_transition_mixing(s, xi) for s, xi in zip(hot_states, xis)]
    cold_states = cool(mixed_cold_gap)

    e_start = _gap_energy(start, 1.0)
    energies = []
    for expanded, heated, compressed, cooled in zip(
        mixed_hot_gap, hot_states, mixed_cold_gap, cold_states
    ):
        e_after_expansion = _gap_energy(expanded, ratio)
        e_after_heating = _gap_energy(heated, ratio)
        e_after_compression = _gap_energy(compressed, 1.0)
        e_after_cooling = _gap_energy(cooled, 1.0)
        energies.append(
            StrokeEnergy(
                w_expansion=e_after_expansion - e_start,
                w_compression=e_after_compression - e_after_heating,
                q_hot=e_after_heating - e_after_expansion,
                q_cold=e_after_cooling - e_after_compression,
            )
        )
    return energies, cold_states


def _fixed_endpoint_row(
    config: CycleConfig,
    xi: float,
    mode: CycleMode,
    cold_state: np.ndarray,
    hot_state: np.ndarray,
    flags: tuple[str, ...] = (),
    diagnostics: Mapping[str, float] | None = None,
) -> CycleResult:
    """The row whose bath strokes end in ``cold_state`` and ``hot_state``
    whatever state they start from; the cycle starts in ``cold_state``."""
    (energies,), _ = _run_strokes(
        config, [xi], cold_state, lambda _: [hot_state], lambda _: [cold_state]
    )
    return _result_from_energies(config, xi, mode, energies, flags, diagnostics)


def run_cycle_effective_grid(
    config: CycleConfig, xis: Sequence[float]
) -> list[CycleResult]:
    """Simulate the cycle under the eliminated two-level dynamics at every
    transition probability of ``xis``.

    Bath strokes integrate the engineered collapse channels to
    equilibration; unitary strokes relabel the gap and apply the carrier
    population mixing.  Energies are booked at the stroke boundaries and
    match :func:`run_cycle_closed_form` to the equilibration tolerance.
    Each bath stroke of all rows is integrated by one
    :func:`~ionotto.lindblad.equilibrate_lanes` call, so every row equals
    :func:`run_cycle_effective` at its xi bit for bit.  The first failure
    of any row raises, and :func:`~ionotto.sweep.run_sweep` books that one
    error on every effective row.
    """
    reports: list[list[EquilibrationReport]] = []

    def contact(spec: ReservoirSpec) -> Callable[[list[np.ndarray]], list[np.ndarray]]:
        def stroke(states: list[np.ndarray]) -> list[np.ndarray]:
            reports.append(equilibrate_lanes(spec.bath_model, states))
            return [report.final_state for report in reports[-1]]

        return stroke

    start = bath_steady_state(config.cold)
    energies, cold_states = _run_strokes(
        config, xis, start, contact(config.hot), contact(config.cold)
    )
    rows = []
    for xi, row_energies, cold_state, strokes in zip(
        xis, energies, cold_states, zip(*reports)
    ):
        diagnostics = {
            # the largest entrywise distance between the final and the start state
            "cycle_closure": float(np.abs(cold_state - start).max()),
            "max_trace_drift": max(report.max_trace_drift for report in strokes),
            "min_eigenvalue": min(report.min_eigenvalue for report in strokes),
        }
        rows.append(
            _result_from_energies(
                config, xi, CycleMode.EFFECTIVE, row_energies, diagnostics=diagnostics
            )
        )
    return rows


def run_cycle_effective(config: CycleConfig, xi: float) -> CycleResult:
    """The row of :func:`run_cycle_effective_grid` at the one transition
    probability ``xi``; its bath strokes each make one
    :func:`~ionotto.lindblad.equilibrate` call."""
    return run_cycle_effective_grid(config, [xi])[0]


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
    config: CycleConfig, label: str
) -> tuple[np.ndarray, tuple[str, ...], dict[str, float]]:
    """Equilibrate bath steady state x two-mode vacuum against the bath
    ``label``, driven by its lasers from :attr:`CycleConfig.matchings`.

    The joint model keeps the two-mode states with n_x + n_y < fock_dim
    (an excitation-number-restricted truncation; the modes stay near
    vacuum), the vacuum first.
    """
    settings, _ = config.matchings[label]
    window = _excitation_window(config.fock_dim)
    layout = SpaceLayout((2, window.size))
    joint0 = kron(bath_steady_state(settings.target), vacuum_state(window.size))
    report = equilibrate(full_joint_model(settings, config.fock_dim), joint0)
    reduced = partial_trace(report.final_state, layout, keep=(0,))
    # each window state's population, summed over the electron
    populations = report.final_state.diagonal().real.reshape(2, window.size).sum(axis=0)
    max_occ = max(  # divmod gives n_x and n_y of each window state
        float(populations @ n) for n in divmod(window, config.fock_dim)
    )
    lamb_dicke = config.lamb * math.sqrt(max(max_occ, 0.0))
    flags = []
    if lamb_dicke >= LAMB_DICKE_CEILING:
        flags.append(f"lamb_dicke_violation:{label}")
    if settings.regime_ratio < ADIABATIC_RATIO_FLOOR:
        flags.append(f"adiabatic_ratio_low:{label}")
    # a window too short for the joint model's rates can pass its change
    # test without moving the state; the residual tells
    if not report.rhs_residual <= _RESIDUAL_CEILING:
        flags.append(f"solver_residual_high:{label}")
    diagnostics = {
        f"{label}_regime_ratio": settings.regime_ratio,
        f"{label}_max_mode_occupation": max_occ,
        f"{label}_lamb_dicke": lamb_dicke,
        f"{label}_trace_drift": report.max_trace_drift,
        f"{label}_min_eigenvalue": report.min_eigenvalue,
        f"{label}_windows": float(report.windows),
        f"{label}_last_change": report.last_change,
        f"{label}_rhs_residual": report.rhs_residual,
        f"{label}_sector_dim": float(report.sector_dim),
    }
    return reduced, tuple(flags), diagnostics


def prepare_bath_equilibria(config: CycleConfig) -> BathEquilibria:
    """Equilibrate both bath contacts once under the full joint dynamics.

    Raises ``ConfigError`` when a bath's matched lasers miss it (see
    :attr:`CycleConfig.matchings`).
    """
    cold_state, cold_flags, cold_diag = _joint_bath_stroke(config, "cold")
    hot_state, hot_flags, hot_diag = _joint_bath_stroke(config, "hot")
    return BathEquilibria(
        cold_state=cold_state,
        hot_state=hot_state,
        flags=cold_flags + hot_flags,
        diagnostics={**cold_diag, **hot_diag},
    )


def run_cycle_full(
    config: CycleConfig, xi: float, equilibria: BathEquilibria
) -> CycleResult:
    """Simulate the cycle with joint electron-motion bath strokes.

    Each bath stroke ends in the reduced electronic state of the joint
    (electron and two damped modes) steady state, which does not depend
    on the stroke's start; ``equilibria`` from
    :func:`prepare_bath_equilibria` holds both, so one bath solve serves
    every transition probability of a config.
    """
    return _fixed_endpoint_row(
        config,
        xi,
        CycleMode.FULL,
        equilibria.cold_state,
        equilibria.hot_state,
        equilibria.flags,
        dict(equilibria.diagnostics),
    )
