"""Harmonic-oscillator working substance driven through a V-type ion.

Here the roles are swapped relative to the two-level engine: three
electronic levels in a V configuration decay fast and are adiabatically
eliminated, leaving a single motional mode in contact with an engineered
bath.  The sideband matching is the two-level engine's one of
:mod:`ionotto.reservoirs` with the electronic decays (gamma_ge, gamma_gf)
as the eliminated rates, and returns the same
:class:`~ionotto.reservoirs.LaserSettings`.  The mode couplings are
s_alpha = (lambda/2)(Omega_{alpha,1} a + Omega_{alpha,2} a^dag) for alpha
in {ge, gf}, and the eliminated dynamics carries them as collapse
channels with prefactor 2/gamma_alpha.

Negative-temperature baths are excluded for the oscillator: matching
them needs the upward weight to dominate, which makes the quadratic
generator gain dominated with no normalizable stationary state on the
infinite ladder.

Unitary strokes for the oscillator would change the trap frequency
itself; no verified thermodynamic bookkeeping is provided for them, only
the reservoir synthesis and its full-versus-effective validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lindblad import LindbladModel
from .operators import SpaceLayout, _truncation, destroy, ketbra
from .reservoirs import (
    BathKind,
    LaserSettings,
    ReservoirSpec,
    _couplings,
    _match,
    adiabatic_ratio,
    channels_from_settings,
    warn_if_not_adiabatic,
)

__all__ = [
    "VSystemConfig",
    "match_rabi_for_mode",
    "mode_collapse_channels",
    "effective_mode_model",
    "full_v_model",
    "quadratic_mode_moments",
]


@dataclass(frozen=True)
class VSystemConfig:
    """Ion parameters for the V-type three-level scheme.

    The electronic transition frequencies are metadata (the interaction
    picture removes them); the decay rates gamma_ge and gamma_gf set the
    fast scale that gets eliminated.  Motional decay is taken negligible
    against the electronic rates and is not modeled.
    """

    omega_ge: float
    omega_gf: float
    omega_m: float
    lamb: float
    gamma_ge: float
    gamma_gf: float
    rabi: tuple[float, float, float, float]
    fock_dim: int = 20

    def __post_init__(self) -> None:
        for name in ("omega_ge", "omega_gf", "omega_m", "lamb", "gamma_ge", "gamma_gf"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        rabi = tuple(float(r) for r in self.rabi)
        if len(rabi) != 4 or not all(0.0 <= r < math.inf for r in rabi):
            raise ValueError(
                f"need four finite nonnegative Rabi frequencies, got {self.rabi}"
            )
        object.__setattr__(self, "rabi", rabi)
        if _truncation(self.fock_dim, "fock_dim") < 2:
            raise ValueError(f"fock_dim must be at least 2, got {self.fock_dim}")
        warn_if_not_adiabatic(self.regime_ratio, "gamma")

    @property
    def regime_ratio(self) -> float:
        ge1, ge2, gf1, gf2 = self.rabi
        return adiabatic_ratio(
            self.lamb, ((self.gamma_ge, ge1, ge2), (self.gamma_gf, gf1, gf2))
        )


def match_rabi_for_mode(
    spec: ReservoirSpec, lamb: float, gamma_ge: float, gamma_gf: float
) -> LaserSettings:
    """Rabi frequencies whose eliminated mode dynamics reproduce ``spec``.

    The ge pair carries the downward weight sqrt(Gamma (1 + n)) and the
    gf pair the upward weight sqrt(Gamma n), with Gamma = spec.gamma the
    target effective mode decay rate; squeezing spreads each weight over
    both sidebands with factors mu and nu.
    """
    if spec.kind not in (BathKind.THERMAL, BathKind.SQUEEZED_THERMAL):
        raise ValueError(
            f"unsupported bath kind for the oscillator: {spec.kind.value} "
            "(a gain-dominated mode bath has no normalizable steady state)"
        )
    return _match(spec, lamb, (gamma_ge, gamma_gf), "gamma")


def mode_collapse_channels(
    settings: LaserSettings, fock_dim: int
) -> tuple[tuple[float, np.ndarray], ...]:
    """Eliminated mode channels: prefactor 2/gamma_alpha per dissipator."""
    return channels_from_settings(settings, destroy(fock_dim))


def effective_mode_model(
    spec: ReservoirSpec, settings: LaserSettings, fock_dim: int
) -> LindbladModel:
    """Mode-only model of the engineered bath, in the rotating frame."""
    if spec != settings.target:
        raise ValueError(
            "settings were matched for a different bath: "
            f"{settings.target} vs spec {spec}"
        )
    return LindbladModel(
        hamiltonian=np.zeros((fock_dim, fock_dim), dtype=complex),
        channels=mode_collapse_channels(settings, fock_dim),
        slow_rate=spec.gamma / 2.0,
    )


def full_v_model(
    config: VSystemConfig, settings: LaserSettings, fock_dim: int
) -> LindbladModel:
    """Joint three-level and mode model before elimination.

    H = sum_alpha (s_alpha sigma_alpha^dag + s_alpha^dag sigma_alpha) on
    the layout (3, fock_dim) with basis (g, e, f); dissipation is the two
    electronic decays.  Motional decay is negligible on these timescales
    and omitted.  ``config`` must carry the matching inputs and Rabi
    frequencies of ``settings`` and the truncation ``fock_dim``.
    """
    for name, value, matched in (
        ("lamb", config.lamb, settings.lamb),
        ("(gamma_ge, gamma_gf)", (config.gamma_ge, config.gamma_gf), settings.rates),
        ("rabi", config.rabi, settings.rabi),
    ):
        if value != matched:
            raise ValueError(
                f"settings were matched for a different {name}: "
                f"{matched} vs config {value}"
            )
    if config.fock_dim != fock_dim:
        raise ValueError(
            f"config fock_dim {config.fock_dim} differs from fock_dim {fock_dim}"
        )
    layout = SpaceLayout((3, fock_dim))
    sigma_ge = ketbra(3, 0, 1)
    sigma_gf = ketbra(3, 0, 2)
    s_ge, s_gf = _couplings(settings, destroy(fock_dim))
    h = np.kron(sigma_ge.conj().T, s_ge) + np.kron(sigma_gf.conj().T, s_gf)
    h += h.conj().T
    return LindbladModel(
        hamiltonian=h,
        channels=(
            (config.gamma_ge, layout.embed(sigma_ge, 0)),
            (config.gamma_gf, layout.embed(sigma_gf, 0)),
        ),
        slow_rate=settings.target.gamma / 2.0,
    )


def quadratic_mode_moments(
    channels: tuple[tuple[float, np.ndarray], ...],
) -> tuple[float, complex]:
    """Stationary (<a^dag a>, <a^2>) of a quadratic mode generator.

    For channels L_i = alpha_i a + beta_i a^dag with weights w_i the two
    moments obey a closed linear flow with decay A - B and sources B and
    -C, where A = sum w |alpha|^2, B = sum w |beta|^2, C = sum w alpha
    beta.  Solving the 2x2 linear system gives the stationary values,
    independently of any master-equation integration.  A generator with
    B >= A is gain dominated and has no normalizable stationary state.
    """
    a_coef = 0.0
    b_coef = 0.0
    c_coef = 0.0 + 0.0j
    for weight, op in channels:
        dim = op.shape[0]
        a_mat = destroy(dim)
        alpha = complex(op[0, 1])  # coefficient of a (since a[0,1] = 1)
        beta = complex(op[1, 0])  # coefficient of a^dag
        defect = float(np.abs(op - alpha * a_mat - beta * a_mat.conj().T).max())
        scale = max(1.0, float(np.abs(op).max()))
        if defect > 1e-12 * scale:
            raise ValueError(
                f"collapse operator is not linear in (a, a^dag); residual {defect:.3e}"
            )
        a_coef += weight * abs(alpha) ** 2
        b_coef += weight * abs(beta) ** 2
        c_coef += weight * alpha * beta
    decay = a_coef - b_coef
    if decay <= 0:
        raise ValueError(
            f"gain-dominated quadratic generator (A - B = {decay:.3e}); "
            "no normalizable stationary state"
        )
    flow = np.diag([-decay, -decay]).astype(complex)
    source = np.array([b_coef, -c_coef], dtype=complex)
    moments = np.linalg.solve(flow, -source)
    return float(moments[0].real), complex(moments[1])
