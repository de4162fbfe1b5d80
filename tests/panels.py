"""The shipped facts and the builders that several test files share, each
written once.

The paper's three bath kinds are the shipped panels ``configs/fig2a.json``
(thermal hot bath), ``fig2b.json`` (apparent negative temperature) and
``fig2c.json`` (squeezed thermal); :func:`panel` reads them from there, so
a test never types a panel's numbers again.  The oscillator models are
those of the benchmark's mode workload.
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

from ionotto.cycle import CycleConfig
from ionotto.lindblad import LindbladModel
from ionotto.oscillator import (
    VSystemConfig,
    effective_mode_model,
    full_v_model,
    match_rabi_for_mode,
)
from ionotto.reservoirs import LaserSettings, ReservoirSpec
from ionotto.sweep import load_config

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
PANELS = ("fig2a", "fig2b", "fig2c")
TWO_PI = 2 * math.pi


def panel(name: str, **changes) -> CycleConfig:
    """The cycle of the shipped config ``name``, with ``changes`` (such as
    a ``fock_dim`` or a swapped bath) applied by ``dataclasses.replace``."""
    return replace(load_config(CONFIG_DIR / f"{name}.json").cycle, **changes)


# Mode working substance: bath rates at regime ratio 50 (thermal) and 53
# (squeezed), electronic decays 2 pi, as the benchmark's mode workload.
MODE_SPECS = {
    "thermal": ReservoirSpec.thermal(TWO_PI * 2.5e-4, 0.6),
    "squeezed": ReservoirSpec.squeezed_thermal(TWO_PI * 2e-4, 0.4, 0.5),
}


def mode_settings(kind: str) -> LaserSettings:
    return match_rabi_for_mode(MODE_SPECS[kind], 0.01, TWO_PI, TWO_PI)


def mode_model(kind: str, fock_dim: int) -> LindbladModel:
    """Effective mode model of ``MODE_SPECS[kind]``."""
    return effective_mode_model(MODE_SPECS[kind], mode_settings(kind), fock_dim)


def v_config(settings: LaserSettings, fock_dim: int) -> VSystemConfig:
    """The V-system config that agrees with ``settings``."""
    return VSystemConfig(
        omega_ge=TWO_PI * 1e6,
        omega_gf=1.2 * TWO_PI * 1e6,
        omega_m=10 * TWO_PI,
        lamb=settings.lamb,
        gamma_ge=settings.rates[0],
        gamma_gf=settings.rates[1],
        rabi=settings.rabi,
        fock_dim=fock_dim,
    )


def v_model(settings: LaserSettings, fock_dim: int) -> LindbladModel:
    """Full V-system model of the lasers ``settings``."""
    return full_v_model(v_config(settings, fock_dim), settings, fock_dim)


def rebind(monkeypatch, original, replacement) -> None:
    """Sets every ``ionotto`` module binding of ``original`` to
    ``replacement``, as the benchmark's tracer binds the functions it
    times."""
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "ionotto":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)
