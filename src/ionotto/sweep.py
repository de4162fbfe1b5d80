"""Configuration ingestion, transition-probability sweeps, CSV output.

Configs are JSON documents with top-level keys {engine, cold, hot,
sweep}.  Every physical quantity is written as {"value": ..., "unit":
...} with the unit drawn from a fixed whitelist; unknown keys anywhere
are rejected so typos cannot silently change a run.  Results go to a
CSV whose rows are keyed by (mode, xi), making the output deterministic
regardless of evaluation order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .cycle import (
    BathEquilibria,
    CycleConfig,
    CycleMode,
    CycleResult,
    prepare_bath_equilibria,
    run_cycle_closed_form,
    run_cycle_effective,
    run_cycle_effective_grid,
    run_cycle_full,
)
from .reservoirs import MAX_SQUEEZING, BathKind, ReservoirSpec

__all__ = [
    "ConfigError",
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "load_config",
    "parse_modes",
    "run_sweep",
    "emit_csv",
    "CSV_HEADER",
]

CSV_HEADER = "xi,mode,regime,eta,W_net,Q_hot,Q_cold,eta_otto,eta_carnot,flags"

# rad/us is the internal unit of every angular frequency.
_UNIT_FACTORS = {
    "rad_per_us": 1.0,
    "rad_per_ms": 1e-3,
    "dimensionless": 1.0,
}
_FREQUENCY_UNITS = ("rad_per_us", "rad_per_ms")

# Longest xi grid that ``xi_points`` may request.
_MAX_XI_POINTS = 100_000

_KIND_BY_NAME = {kind.value: kind for kind in BathKind}
_MODE_BY_NAME = {mode.value: mode for mode in CycleMode}
# Row failures kept as error rows: the lindblad solver errors and singular
# LU factors (RuntimeError), LinAlgError (a ValueError) and arithmetic
# faults.  Anything else is a programming error and propagates.
_NUMERICAL_ERRORS = (ArithmeticError, ValueError, RuntimeError)


class ConfigError(Exception):
    """A sweep configuration could not be parsed or violates an invariant."""


def parse_modes(names: Sequence[str]) -> tuple[CycleMode, ...]:
    """Cycle modes by name, in first-seen order without repeats."""
    modes = []
    for name in names:
        if not isinstance(name, str) or name not in _MODE_BY_NAME:
            raise ConfigError(
                f"unknown mode {name!r} (expected one of {sorted(_MODE_BY_NAME)})"
            )
        modes.append(_MODE_BY_NAME[name])
    return tuple(dict.fromkeys(modes))


@dataclass(frozen=True)
class SweepConfig:
    cycle: CycleConfig
    xi_grid: tuple[float, ...]
    modes: tuple[CycleMode, ...]
    output_path: Path | None

    def __post_init__(self) -> None:
        if not self.xi_grid:
            raise ConfigError("xi grid is empty")
        # compared before float(), which overflows on very large integers
        if any(not 0.0 <= x <= 1.0 for x in self.xi_grid):
            raise ConfigError("xi grid values must lie in [0, 1]")
        grid = tuple(float(x) for x in self.xi_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"xi grid must be sorted strictly ascending: {grid}")
        object.__setattr__(self, "xi_grid", grid)
        if not self.modes:
            raise ConfigError("no cycle modes selected")


@dataclass(frozen=True)
class SweepRow:
    mode: CycleMode
    xi: float
    result: CycleResult | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    flags: tuple[str, ...]
    diagnostics: Mapping[str, float]

    @property
    def failed_rows(self) -> tuple[SweepRow, ...]:
        return tuple(row for row in self.rows if row.error is not None)


def _require_mapping(node: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object, got {type(node).__name__}")
    return node


def _reject_unknown(node: Mapping[str, Any], allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown} (allowed: {sorted(allowed)})")


def _number(value: Any, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where}: value must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(
            f"{where}: value must be finite, got an integer too large for a float"
        ) from None
    if not math.isfinite(number):
        raise ConfigError(f"{where}: value must be finite, got {value!r}")
    return number


def _xi_linspace(start: float, stop: float, points: int, where: str) -> tuple[float, ...]:
    if not 1 <= points <= _MAX_XI_POINTS:
        raise ConfigError(f"{where}: need 1 to {_MAX_XI_POINTS} xi points, got {points}")
    return tuple(np.linspace(start, stop, points))


def _quantity(node: Mapping[str, Any], key: str, where: str, units: Sequence[str]) -> float:
    if key not in node:
        raise ConfigError(f"{where}: missing required key {key!r}")
    entry = _require_mapping(node[key], f"{where}.{key}")
    _reject_unknown(entry, ("value", "unit"), f"{where}.{key}")
    if "value" not in entry or "unit" not in entry:
        raise ConfigError(f"{where}.{key}: a quantity needs 'value' and 'unit'")
    unit = entry["unit"]
    if not isinstance(unit, str) or unit not in _UNIT_FACTORS:
        raise ConfigError(
            f"{where}.{key}: unit {unit!r} not in whitelist {sorted(_UNIT_FACTORS)}"
        )
    if unit not in units:
        raise ConfigError(
            f"{where}.{key}: unit {unit!r} not valid here (expected one of {list(units)})"
        )
    return _number(entry["value"], f"{where}.{key}") * _UNIT_FACTORS[unit]


def _integer(node: Mapping[str, Any], key: str, where: str, default: int | None = None) -> int:
    if key not in node:
        if default is None:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    value = node[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _reservoir(node: Mapping[str, Any], where: str) -> ReservoirSpec:
    node = _require_mapping(node, where)
    _reject_unknown(node, ("kind", "gamma", "n_occupation", "squeezing"), where)
    if "kind" not in node:
        raise ConfigError(f"{where}: missing required key 'kind'")
    kind_name = node["kind"]
    if not isinstance(kind_name, str) or kind_name not in _KIND_BY_NAME:
        raise ConfigError(
            f"{where}.kind: unknown bath kind {kind_name!r} "
            f"(expected one of {sorted(_KIND_BY_NAME)})"
        )
    kind = _KIND_BY_NAME[kind_name]
    gamma = _quantity(node, "gamma", where, _FREQUENCY_UNITS)
    n_occ = _quantity(node, "n_occupation", where, ("dimensionless",))
    squeezing = 0.0
    if "squeezing" in node:
        squeezing = _quantity(node, "squeezing", where, ("dimensionless",))
    try:
        return ReservoirSpec(kind, gamma, n_occ, squeezing)
    except ValueError as exc:
        # a squeezing that overflows the bath rates is wrong for every kind
        at = f"{where}.squeezing" if squeezing > MAX_SQUEEZING else where
        raise ConfigError(f"{at}: {exc}") from exc


def load_config(path: str | Path) -> SweepConfig:
    """Parse and validate a sweep configuration file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past the digit limit
        raise ConfigError(f"{path}: {exc}") from exc
    document = _require_mapping(document, str(path))
    _reject_unknown(document, ("engine", "cold", "hot", "sweep"), str(path))
    for key in ("engine", "cold", "hot"):
        if key not in document:
            raise ConfigError(f"{path}: missing required section {key!r}")

    engine = _require_mapping(document["engine"], "engine")
    _reject_unknown(
        engine,
        ("omega_e_cold", "omega_e_hot", "lambda", "kappa", "fock_dim"),
        "engine",
    )
    try:
        cycle = CycleConfig(
            omega_e_cold=_quantity(engine, "omega_e_cold", "engine", _FREQUENCY_UNITS),
            omega_e_hot=_quantity(engine, "omega_e_hot", "engine", _FREQUENCY_UNITS),
            lamb=_quantity(engine, "lambda", "engine", ("dimensionless",)),
            kappa=_quantity(engine, "kappa", "engine", _FREQUENCY_UNITS),
            cold=_reservoir(document["cold"], "cold"),
            hot=_reservoir(document["hot"], "hot"),
            fock_dim=_integer(engine, "fock_dim", "engine", default=CycleConfig.fock_dim),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    sweep = _require_mapping(document.get("sweep", {}), "sweep")
    _reject_unknown(sweep, ("xi_grid", "xi_points", "xi_max", "modes", "output"), "sweep")
    if "xi_grid" in sweep and ("xi_points" in sweep or "xi_max" in sweep):
        raise ConfigError("sweep: give either xi_grid or xi_points/xi_max, not both")
    if "xi_grid" in sweep:
        grid = sweep["xi_grid"]
        if not isinstance(grid, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in grid
        ):
            raise ConfigError("sweep.xi_grid: expected a list of numbers")
        xi_grid = tuple(grid)
    else:
        xi_grid = _xi_linspace(
            0.0,
            _number(sweep.get("xi_max", 0.5), "sweep.xi_max"),
            _integer(sweep, "xi_points", "sweep", default=41),
            "sweep.xi_points",
        )
    modes: tuple[CycleMode, ...] = (CycleMode.CLOSED_FORM,)
    if "modes" in sweep:
        entries = sweep["modes"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("sweep.modes: expected a nonempty list of mode names")
        try:
            modes = parse_modes(entries)
        except ConfigError as exc:
            raise ConfigError(f"sweep.modes: {exc}") from None
    output: Path | None = None
    if "output" in sweep:
        if not isinstance(sweep["output"], str):
            raise ConfigError("sweep.output: expected a path string")
        output = Path(sweep["output"])
    return SweepConfig(cycle=cycle, xi_grid=xi_grid, modes=modes, output_path=output)


def _run_one(
    cycle: CycleConfig,
    mode: CycleMode,
    xi: float,
    equilibria: BathEquilibria | None,
) -> CycleResult:
    if mode is CycleMode.CLOSED_FORM:
        return run_cycle_closed_form(cycle, xi)
    if mode is CycleMode.EFFECTIVE:
        return run_cycle_effective(cycle, xi)
    return run_cycle_full(cycle, xi, equilibria=equilibria)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate every (mode, xi) pair; per-row failures never abort the sweep.

    Rows are independent and merged by key, so any evaluation order
    (including a parallel one) produces the same table.  Full-dynamics
    rows share the two bath equilibrations, whose endpoints do not depend
    on xi.  Effective rows run together, each bath stroke of every xi as
    one lane of a shared integrator
    (:func:`~ionotto.cycle.run_cycle_effective_grid`), bit for bit equal
    to :func:`~ionotto.cycle.run_cycle_effective` row by row; if any row
    fails, the config's effective rows are run again one by one, so each
    error row carries its own message.
    """
    equilibria: BathEquilibria | None = None
    equilibria_error: str | None = None
    if CycleMode.FULL in config.modes:
        try:
            equilibria = prepare_bath_equilibria(config.cycle)
        except _NUMERICAL_ERRORS as exc:  # recorded per row below
            equilibria_error = f"{type(exc).__name__}: {exc}"

    rows: dict[tuple[str, float], SweepRow] = {}
    for mode in config.modes:
        if mode is CycleMode.EFFECTIVE:
            try:
                results = run_cycle_effective_grid(config.cycle, config.xi_grid)
            except _NUMERICAL_ERRORS:  # the rows below tell which fail and why
                pass
            else:
                for xi, result in zip(config.xi_grid, results):
                    rows[(mode.value, xi)] = SweepRow(mode, xi, result)
                continue
        for xi in config.xi_grid:
            key = (mode.value, xi)
            if mode is CycleMode.FULL and equilibria_error is not None:
                rows[key] = SweepRow(mode, xi, None, equilibria_error)
                continue
            try:
                result = _run_one(config.cycle, mode, xi, equilibria)
                rows[key] = SweepRow(mode, xi, result)
            except _NUMERICAL_ERRORS as exc:
                rows[key] = SweepRow(mode, xi, None, f"{type(exc).__name__}: {exc}")

    merged = tuple(rows[key] for key in sorted(rows))
    flag_set: list[str] = []
    for row in merged:
        if row.result is not None:
            for flag in row.result.flags:
                if flag not in flag_set:
                    flag_set.append(flag)
    diagnostics: dict[str, float] = {}
    if equilibria is not None:
        diagnostics.update(equilibria.diagnostics)
    return SweepResult(rows=merged, flags=tuple(flag_set), diagnostics=diagnostics)


def _format_number(value: float | None) -> str:
    if value is None:
        return ""
    return format(float(value), ".12g")


def emit_csv(rows: Sequence[SweepRow], path: str | Path) -> Path:
    """Write sweep rows as UTF-8 CSV, sorted by (mode, xi).

    Energies are in units of hbar * omega_c with 12 significant digits;
    the eta and eta_carnot cells stay empty where undefined (non-engine
    regimes, negative-temperature hot bath).
    """
    if not rows:
        raise ValueError("refusing to write an empty result table")
    path = Path(path)
    ordered = sorted(rows, key=lambda row: (row.mode.value, row.xi))
    lines = [CSV_HEADER]
    for row in ordered:
        if row.result is None:
            flags = f"error={row.error}".replace(",", ";").replace("\n", " ")
            lines.append(
                f"{_format_number(row.xi)},{row.mode.value},,,,,,,,{flags}"
            )
            continue
        res = row.result
        flags = ";".join(res.flags)
        lines.append(
            ",".join(
                (
                    _format_number(row.xi),
                    row.mode.value,
                    res.regime.value,
                    _format_number(res.efficiency),
                    _format_number(res.energies.net_work),
                    _format_number(res.energies.q_hot),
                    _format_number(res.energies.q_cold),
                    _format_number(res.eta_otto),
                    _format_number(res.eta_carnot),
                    flags,
                )
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def apply_overrides(
    config: SweepConfig,
    *,
    modes: Sequence[CycleMode] | None = None,
    xi_points: int | None = None,
    output: str | Path | None = None,
    fock_dim: int | None = None,
) -> SweepConfig:
    """Command-line overrides on top of a loaded configuration."""
    cycle = config.cycle
    if fock_dim is not None:
        try:
            cycle = replace(cycle, fock_dim=fock_dim)
        except ValueError as exc:
            raise ConfigError(f"--fock-dim: {exc}") from exc
    xi_grid = config.xi_grid
    if xi_points is not None:
        xi_grid = _xi_linspace(xi_grid[0], xi_grid[-1], xi_points, "--xi-points")
    return SweepConfig(
        cycle=cycle,
        xi_grid=xi_grid,
        modes=tuple(modes) if modes else config.modes,
        output_path=Path(output) if output is not None else config.output_path,
    )
