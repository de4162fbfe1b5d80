"""Trapped-ion quantum Otto heat engine simulator.

The electronic two-level component of a trapped ion works between
laser-engineered effective reservoirs (thermal, apparent negative
temperature, squeezed thermal).  The package synthesizes the reservoirs
from sideband Rabi frequencies, runs the four-stroke cycle under
closed-form, effective and full joint dynamics, and sweeps engine
efficiency against the carrier-pulse transition probability.
"""

from .cycle import (
    BathEquilibria,
    CycleConfig,
    CycleMode,
    CycleResult,
    Regime,
    StrokeEnergy,
    classify_regime,
    prepare_bath_equilibria,
    reference_efficiencies,
    run_cycle_closed_form,
    run_cycle_effective,
    run_cycle_full,
)
from .lindblad import (
    DegenerateSteadyStateError,
    EquilibrationError,
    EquilibrationReport,
    EvolutionReport,
    IntegrationError,
    LindbladModel,
    equilibrate,
    evolve,
    expectation,
    liouvillian_matrix,
    steady_state,
)
from .operators import (
    SpaceLayout,
    destroy,
    kron,
    partial_trace,
)
from .oscillator import (
    VSystemConfig,
    effective_mode_model,
    full_v_model,
    match_rabi_for_mode,
    quadratic_mode_moments,
)
from .reservoirs import (
    BathKind,
    LaserSettings,
    ReservoirSpec,
    channels_from_settings,
    effective_collapse_channels,
    full_joint_model,
    gibbs_state,
    match_rabi_frequencies,
    squeezed_gibbs_state,
    theta_from_occupation,
)
from .sweep import ConfigError, SweepConfig, emit_csv, load_config, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BathEquilibria",
    "BathKind",
    "ConfigError",
    "CycleConfig",
    "CycleMode",
    "CycleResult",
    "DegenerateSteadyStateError",
    "EquilibrationError",
    "EquilibrationReport",
    "EvolutionReport",
    "IntegrationError",
    "LaserSettings",
    "LindbladModel",
    "Regime",
    "ReservoirSpec",
    "SpaceLayout",
    "StrokeEnergy",
    "SweepConfig",
    "VSystemConfig",
    "channels_from_settings",
    "classify_regime",
    "destroy",
    "effective_collapse_channels",
    "effective_mode_model",
    "emit_csv",
    "equilibrate",
    "evolve",
    "expectation",
    "full_joint_model",
    "full_v_model",
    "gibbs_state",
    "kron",
    "liouvillian_matrix",
    "load_config",
    "match_rabi_for_mode",
    "match_rabi_frequencies",
    "partial_trace",
    "prepare_bath_equilibria",
    "quadratic_mode_moments",
    "reference_efficiencies",
    "run_cycle_closed_form",
    "run_cycle_effective",
    "run_cycle_full",
    "run_sweep",
    "squeezed_gibbs_state",
    "steady_state",
    "theta_from_occupation",
]
