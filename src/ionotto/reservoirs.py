"""Engineered effective heat reservoirs for the electronic two-level system.

A target bath (thermal, apparent-negative-temperature, or squeezed
thermal) is translated into the four sideband Rabi frequencies that
realize it: matching the adiabatically eliminated dissipators of the
laser-driven ion against the dissipators of the target bath fixes
lambda * Omega / sqrt(kappa) for each beam.  Both descriptions are built
here so the identity can be checked elementwise, and analytic stationary
states are provided as oracles.  The same matching, couplings and
channels serve the oscillator engine of :mod:`ionotto.oscillator`, where
a V-type ion is the eliminated system.

All channel operators are expressed in the frame rotating at the
electronic frequency, where they are time independent; the stationary
populations are unaffected by that frame choice.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .lindblad import LindbladModel
from .operators import destroy, kron, sigma_minus, sigma_plus

__all__ = [
    "BathKind",
    "ReservoirSpec",
    "LaserSettings",
    "theta_from_occupation",
    "spec_theta",
    "sideband_weights",
    "match_rabi_frequencies",
    "effective_collapse_channels",
    "slow_relaxation_rate",
    "channels_from_settings",
    "full_joint_model",
    "bath_steady_state",
    "gibbs_state",
    "squeezed_gibbs_state",
    "ADIABATIC_RATIO_FLOOR",
    "MAX_SQUEEZING",
]

# Below this ratio of kappa to the strongest sideband coupling the
# adiabatic elimination degrades visibly.
ADIABATIC_RATIO_FLOOR = 50.0

# Largest squeezing r whose bath rates stay finite: they scale with
# mu^2 + nu^2 = cosh(2 r), which overflows past r = 355.24.
MAX_SQUEEZING = 0.5 * math.acosh(sys.float_info.max)


class BathKind(str, Enum):
    """Engineered bath kind; it fixes the occupation law: Fermi-Dirac for
    NEGATIVE_TEMPERATURE, Bose-Einstein otherwise."""

    THERMAL = "thermal"
    NEGATIVE_TEMPERATURE = "negative_temperature"
    SQUEEZED_THERMAL = "squeezed_thermal"


@dataclass(frozen=True)
class ReservoirSpec:
    """Target effective bath for the electronic two-level system.

    ``gamma`` is the effective electronic decay rate (rad/us) the lasers
    must synthesize, ``n_occupation`` the bath occupation under the
    statistics of ``kind``, and ``squeezing`` the squeezing parameter r
    (meaningful only for squeezed thermal baths).
    """

    kind: BathKind
    gamma: float
    n_occupation: float
    squeezing: float = 0.0

    def __post_init__(self) -> None:
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        n = self.n_occupation
        if not (math.isfinite(n) and math.isfinite(self.squeezing)):
            raise ValueError(
                f"occupation and squeezing must be finite, got {n} and {self.squeezing}"
            )
        if self.kind is BathKind.THERMAL:
            if n < 0:
                raise ValueError(f"thermal occupation must be >= 0, got {n}")
            if self.squeezing != 0.0:
                raise ValueError("thermal bath must have zero squeezing")
        elif self.kind is BathKind.NEGATIVE_TEMPERATURE:
            if not (0.5 < n < 1.0):
                raise ValueError(
                    "negative-temperature bath requires occupation in (1/2, 1) "
                    f"(inverted populations), got {n}"
                )
            if self.squeezing != 0.0:
                raise ValueError("negative-temperature bath must have zero squeezing")
        elif self.kind is BathKind.SQUEEZED_THERMAL:
            if n <= 0:
                raise ValueError(f"squeezed-bath occupation must be > 0, got {n}")
            if self.squeezing <= 0:
                raise ValueError(
                    f"squeezed thermal bath requires squeezing > 0, got {self.squeezing}"
                )
            if self.squeezing > MAX_SQUEEZING:
                raise ValueError(
                    f"squeezing {self.squeezing} overflows the bath rates: cosh(2 r) "
                    f"= mu^2 + nu^2 must stay finite, so r <= {MAX_SQUEEZING:.5g}"
                )
        else:  # a kind that is no BathKind member, such as a plain string
            raise ValueError(f"unknown bath kind {self.kind}")

    @classmethod
    def thermal(cls, gamma: float, n_occupation: float) -> "ReservoirSpec":
        return cls(BathKind.THERMAL, gamma, n_occupation)

    @classmethod
    def negative_temperature(cls, gamma: float, n_occupation: float) -> "ReservoirSpec":
        return cls(BathKind.NEGATIVE_TEMPERATURE, gamma, n_occupation)

    @classmethod
    def squeezed_thermal(
        cls, gamma: float, n_occupation: float, squeezing: float
    ) -> "ReservoirSpec":
        return cls(BathKind.SQUEEZED_THERMAL, gamma, n_occupation, squeezing)

    @property
    def mu(self) -> float:
        return math.cosh(self.squeezing)

    @property
    def nu(self) -> float:
        return math.sinh(self.squeezing)

    @property
    def zeta(self) -> float:
        """Contraction of <sigma_z> caused by squeezing: 1 / (mu^2 + nu^2)."""
        return 1.0 / (self.mu**2 + self.nu**2)

    @cached_property
    def bath_model(self) -> LindbladModel:
        """Two-level model of the bare bath contact, in the rotating frame.

        Built once per spec, on first use, so its cached generator serves
        every effective row that shares the spec.
        """
        return LindbladModel(
            hamiltonian=np.zeros((2, 2), dtype=complex),
            channels=effective_collapse_channels(self),
            slow_rate=slow_relaxation_rate(self),
        )


def theta_from_occupation(n_occupation: float, kind: BathKind) -> float:
    """Invert the occupation law of ``kind`` for theta = beta hbar omega_e / 2.

    Bose-Einstein: n = 1 / (e^{2 theta} - 1), so theta > 0 for any n > 0.
    Fermi-Dirac (``NEGATIVE_TEMPERATURE``): n = 1 / (e^{2 theta} + 1), so
    theta < 0 once n > 1/2, which is the apparent-negative-temperature
    regime.
    """
    n = float(n_occupation)
    if kind is not BathKind.NEGATIVE_TEMPERATURE:
        if n <= 0:
            raise ValueError(f"Bose-Einstein occupation must be > 0, got {n}")
        return 0.5 * math.log1p(1.0 / n)
    if not (0.0 < n < 1.0):
        raise ValueError(f"Fermi-Dirac occupation must lie in (0, 1), got {n}")
    return 0.5 * math.log(1.0 / n - 1.0)


def spec_theta(spec: ReservoirSpec) -> float:
    """Theta of the bath described by ``spec`` (pre-squeezing for squeezed)."""
    return theta_from_occupation(spec.n_occupation, spec.kind)


@dataclass(frozen=True)
class LaserSettings:
    """Four sideband Rabi frequencies realizing one effective bath.

    Each beam pair couples the working substance to one adiabatically
    eliminated decay: the two damped motional modes of the two-level
    engine, or the two electronic decays of the V ion that drives the
    oscillator.  ``target`` is the matched bath, ``lamb`` the Lamb-Dicke
    parameter and ``rates`` the eliminated decay rates of the two pairs,
    (kappa, kappa) or (gamma_ge, gamma_gf).  ``rabi`` lists (pair 1
    lower, pair 1 upper, pair 2 lower, pair 2 upper) sideband, the beams
    (x1, x2, y1, y2) or (ge1, ge2, gf1, gf2).  ``regime_ratio`` is the
    smallest rate / (lambda * max Omega), the figure of merit of the
    adiabatic elimination; the matching computes it, and warns when it
    is low, once per bath, so later consumers of the settings read it
    here instead of recomputing it.  A config's own matching
    (:attr:`~ionotto.cycle.CycleConfig.matchings`) does not warn: the
    full rows' flag, their ``<bath>_regime_ratio`` diagnostic and
    ``validate`` report this figure instead.
    """

    target: ReservoirSpec
    lamb: float
    rates: tuple[float, float]
    rabi: tuple[float, float, float, float]
    regime_ratio: float


def _occupation_weights(spec: ReservoirSpec) -> tuple[float, float]:
    """Downward and upward weights gamma(1 +/- n) and gamma n."""
    n = spec.n_occupation
    if spec.kind is BathKind.NEGATIVE_TEMPERATURE:
        down = spec.gamma * (1.0 - n)
    else:
        down = spec.gamma * (1.0 + n)
    return down, spec.gamma * n


def sideband_weights(spec: ReservoirSpec) -> tuple[float, float, float, float]:
    """Beam weights (down mu, down nu, up nu, up mu) that realize ``spec``.

    ``down`` and ``up`` are the square roots of the downward and upward
    rates of :func:`_occupation_weights`; without squeezing mu = 1 and
    nu = 0, which leaves one beam per pair dark.  Each matching scales
    the weights by sqrt(decay rate) / lambda of the eliminated system.
    """
    down, up = (math.sqrt(weight) for weight in _occupation_weights(spec))
    mu, nu = spec.mu, spec.nu
    return down * mu, down * nu, up * nu, up * mu


def _match(
    spec: ReservoirSpec, lamb: float, rates: tuple[float, float], rate_name: str
) -> LaserSettings:
    """Rabi frequencies whose eliminated dynamics reproduce ``spec``.

    Each beam gets its weight from :func:`sideband_weights` times
    sqrt(rate) / lambda of the decay its pair couples to.  The regime
    ratio is the smallest rate / (lambda * max(Omega_1, Omega_2)) over the
    two pairs, dark pairs skipped (inf when both are dark).  This is the
    one place that judges it: below ``ADIABATIC_RATIO_FLOOR`` it warns
    once, naming the rate ``rate_name``, attributed to the caller of the
    public matching function that calls this one.
    """
    if not 0.0 < lamb < math.inf:
        raise ValueError(f"Lamb-Dicke parameter must be finite and > 0, got {lamb}")
    for rate in rates:
        if not 0.0 < rate < math.inf:
            raise ValueError(f"{rate_name} must be finite and > 0, got {rate}")
    rate1, rate2 = rates
    down_mu, down_nu, up_nu, up_mu = sideband_weights(spec)
    root1, root2 = math.sqrt(rate1), math.sqrt(rate2)
    pair1 = (down_mu * root1 / lamb, down_nu * root1 / lamb)
    pair2 = (up_nu * root2 / lamb, up_mu * root2 / lamb)
    pairs = ((rate1, pair1), (rate2, pair2))
    ratio = min(
        (rate / (lamb * max(pair)) for rate, pair in pairs if max(pair) > 0),
        default=math.inf,
    )
    if ratio < ADIABATIC_RATIO_FLOOR:
        warnings.warn(
            f"{rate_name} / (lambda * max Omega) = {ratio:.1f} < "
            f"{ADIABATIC_RATIO_FLOOR:.0f}: adiabatic elimination quality degrades",
            RuntimeWarning,
            stacklevel=3,  # this function, the public matching, its caller
        )
    return LaserSettings(spec, lamb, rates, pair1 + pair2, ratio)


def match_rabi_frequencies(
    spec: ReservoirSpec, lamb: float, kappa: float
) -> LaserSettings:
    """Rabi frequencies whose eliminated motional dynamics reproduce ``spec``.

    The matching fixes lambda * Omega / sqrt(kappa) per beam: the x pair
    carries the downward weight sqrt(gamma (1 +/- n)) (times mu, nu when
    squeezed) and the y pair the upward weight sqrt(gamma n).  Emits a
    RuntimeWarning when kappa / (lambda * max Omega) drops below
    ``ADIABATIC_RATIO_FLOOR``, where the motional modes are no longer
    pinned next to their ground state.
    """
    return _match(spec, lamb, (kappa, kappa), "kappa")


def effective_collapse_channels(
    spec: ReservoirSpec,
) -> tuple[tuple[float, np.ndarray], ...]:
    """Rotating-frame collapse channels of the target bath.

    Thermal and negative-temperature baths decompose into a pure lowering
    channel with rate gamma (1 +/- n) and a pure raising channel with
    rate gamma n.  The squeezed bath mixes lowering and raising inside
    each operator, so the sqrt(rate) factors are folded into the operator
    norm and both channels carry unit rate.
    """
    down, up = _occupation_weights(spec)
    sm, sp_ = sigma_minus(), sigma_plus()
    if spec.kind is BathKind.SQUEEZED_THERMAL:
        mu, nu = spec.mu, spec.nu
        r1 = math.sqrt(down) * (mu * sm + nu * sp_)
        r2 = math.sqrt(up) * (nu * sm + mu * sp_)
        return ((1.0, r1), (1.0, r2))
    return ((down, sm), (up, sp_))


def slow_relaxation_rate(spec: ReservoirSpec) -> float:
    """Half the population relaxation rate T_down + T_up of the bath.

    For thermal and negative-temperature baths that is the coherence
    decay rate and the slowest rate of the generator.  A squeezed bath
    splits the coherence rates into 0.5 (T_down + T_up) +/- |C|, one of
    them slower than this; cycle states are diagonal, so the populations
    size the equilibration windows 5 / slow_rate.  Computed from the
    channel matrix elements rather than per-kind formulas.
    """
    t_down = 0.0
    t_up = 0.0
    for rate, op in effective_collapse_channels(spec):
        t_down += rate * abs(op[0, 1]) ** 2
        t_up += rate * abs(op[1, 0]) ** 2
    return 0.5 * (t_down + t_up)


def _couplings(
    settings: LaserSettings, lower: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Couplings s_alpha = (lambda/2)(Omega_{alpha,1} lower + Omega_{alpha,2}
    lower^dag), one per beam pair."""
    raising = lower.conj().T
    r1, r2, r3, r4 = settings.rabi
    s_1 = (settings.lamb / 2.0) * (r1 * lower + r2 * raising)
    s_2 = (settings.lamb / 2.0) * (r3 * lower + r4 * raising)
    return s_1, s_2


def channels_from_settings(
    settings: LaserSettings, lower: np.ndarray
) -> tuple[tuple[float, np.ndarray], ...]:
    """Eliminated dissipator channels produced by the laser drive.

    ``lower`` is the lowering operator of the working substance,
    :func:`sigma_minus` or :func:`destroy`.  Adiabatic elimination of the
    fast system leaves each coupling operator as a collapse channel with
    prefactor 2/rate on its double-sided dissipator, i.e. rate 4/rate in
    the package convention.  For the two-level engine with settings from
    :func:`match_rabi_frequencies` these channels generate the same
    Liouvillian as :func:`effective_collapse_channels`, elementwise.
    """
    return tuple(
        (4.0 / rate, coupling)
        for rate, coupling in zip(settings.rates, _couplings(settings, lower))
    )


def _excitation_window(n_max: int) -> np.ndarray:
    """Box indices n_x n_max + n_y of the two-mode states with n_x + n_y < n_max."""
    excitations = np.add.outer(np.arange(n_max), np.arange(n_max))
    return np.flatnonzero(excitations.ravel() < n_max)


def full_joint_model(settings: LaserSettings, n_max: int) -> LindbladModel:
    """Joint model: laser coupling plus motional decay on both modes.

    The modes keep the excitation window n_x + n_y < n_max, in box order,
    so the space (electron first) has dimension n_max (n_max + 1).  The
    interaction-picture coupling H = sum_alpha (s_alpha a_alpha^dag +
    s_alpha^dag a_alpha) is time independent and Hermitian by construction.
    """
    a = destroy(n_max)  # raises below 2 Fock states
    ident = np.eye(n_max, dtype=complex)
    window = _excitation_window(n_max)
    kept = np.ix_(window, window)
    modes = (kron(a, ident)[kept], kron(ident, a)[kept])
    s_x, s_y = _couplings(settings, sigma_minus())
    h = kron(s_x, modes[0].conj().T)
    h += kron(s_y, modes[1].conj().T)
    h += h.conj().T
    return LindbladModel(
        hamiltonian=h,
        channels=tuple(
            (rate, kron(np.eye(2, dtype=complex), mode))
            for rate, mode in zip(settings.rates, modes)
        ),
        slow_rate=slow_relaxation_rate(settings.target),
    )


def bath_steady_state(spec: ReservoirSpec) -> np.ndarray:
    """Stationary electronic state of the effective bath ``spec``."""
    theta = spec_theta(spec)
    if spec.kind is BathKind.SQUEEZED_THERMAL:
        return squeezed_gibbs_state(theta, spec.squeezing)
    return gibbs_state(theta)


def gibbs_state(theta: float) -> np.ndarray:
    """Two-level Gibbs state diag(e^theta, e^-theta) / (2 cosh theta).

    Written with one-sided exponentials so arbitrarily large theta stays
    finite; theta = +-inf is the pure ground or excited state, and a NaN
    theta raises ``ValueError``.
    """
    th = float(theta)
    if math.isnan(th):
        raise ValueError("theta must not be NaN")
    weight = math.exp(-2.0 * abs(th))  # decaying exponential only
    major = 1.0 / (1.0 + weight)
    minor = weight / (1.0 + weight)
    if th >= 0:
        return np.diag([major, minor]).astype(complex)
    return np.diag([minor, major]).astype(complex)


def squeezed_gibbs_state(theta: float, squeezing: float) -> np.ndarray:
    """Stationary state of the squeezed bath contact.

    Squeezing mixes the Gibbs populations with weights mu^2 and nu^2,
    which contracts <sigma_z> by zeta = 1 / (mu^2 + nu^2) while keeping
    the state diagonal.  ``squeezing`` must lie in [0, ``MAX_SQUEEZING``],
    where mu^2 + nu^2 stays finite.
    """
    if not 0.0 <= squeezing <= MAX_SQUEEZING:
        raise ValueError(
            f"squeezing must lie in [0, {MAX_SQUEEZING:.5g}], where mu^2 + nu^2 "
            f"= cosh(2 r) stays finite, got {squeezing}"
        )
    gibbs = gibbs_state(theta)
    mu2 = math.cosh(squeezing) ** 2
    nu2 = math.sinh(squeezing) ** 2
    p_g, p_e = gibbs[0, 0].real, gibbs[1, 1].real
    norm = mu2 + nu2
    return np.diag(
        [(mu2 * p_g + nu2 * p_e) / norm, (nu2 * p_g + mu2 * p_e) / norm]
    ).astype(complex)
