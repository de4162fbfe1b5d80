"""Command-line interface: sweep, validate, steadystate.

Exit codes: 0 on success, 2 on configuration errors, 3 when --strict is
set and any sweep row failed numerically.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from .cycle import CycleConfig, CycleMode
from .lindblad import liouvillian_matrix, LindbladModel, steady_state
from .operators import sigma_minus
from .reservoirs import (
    ADIABATIC_RATIO_FLOOR,
    LaserSettings,
    ReservoirSpec,
    bath_steady_state,
    channels_from_settings,
    match_rabi_frequencies,
    spec_theta,
)
from .sweep import (
    ConfigError,
    apply_overrides,
    emit_csv,
    load_config,
    parse_modes,
    run_sweep,
)


def _parse_modes(text: str) -> tuple[CycleMode, ...]:
    modes = parse_modes([part.strip() for part in text.split(",") if part.strip()])
    if not modes:
        raise ConfigError("--modes selected nothing")
    return modes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionotto",
        description=(
            "Trapped-ion quantum Otto engine: reservoir synthesis, cycle "
            "simulation and efficiency sweeps"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a transition-probability sweep")
    sweep.add_argument("config", type=Path)
    sweep.add_argument(
        "--modes",
        type=str,
        default=None,
        help="comma-separated subset of closed_form,effective,full",
    )
    sweep.add_argument("--xi-points", type=int, default=None)
    sweep.add_argument("--output", type=Path, default=None)
    sweep.add_argument("--fock-dim", type=int, default=None)
    sweep.add_argument(
        "--strict",
        action="store_true",
        help="exit with code 3 if any row fails numerically",
    )

    validate = sub.add_parser(
        "validate", help="run the configuration and regime checks only"
    )
    validate.add_argument("config", type=Path)

    steady = sub.add_parser(
        "steadystate",
        help="print bath steady states from the analytic formulas and the "
        "null-space solver",
    )
    steady.add_argument("config", type=Path)
    return parser


# Largest matching-identity defect, relative to the target bath's largest
# generator entry, that a command accepts (the shipped configs, and fig2c
# at hot squeezings up to MAX_SQUEEZING, measure at most 6.4e-16).
_MATCHING_TOL = 1e-10


def _checked_matchings(
    cycle: CycleConfig,
) -> list[tuple[str, ReservoirSpec, LaserSettings, float]]:
    """Label, spec, matched lasers and matching-identity defect max |L_lasers -
    L_target| of each bath; a defect past ``_MATCHING_TOL`` of the largest
    |L_target| raises ``ConfigError`` naming the bath."""
    matchings = []
    for label, spec in (("cold", cycle.cold), ("hot", cycle.hot)):
        settings = match_rabi_frequencies(spec, cycle.lamb, cycle.kappa)
        target = spec.bath_model
        lasers = LindbladModel(
            target.hamiltonian, channels_from_settings(settings, sigma_minus())
        )
        expected = liouvillian_matrix(target)
        defect = np.abs(liouvillian_matrix(lasers) - expected).max()
        relative = defect / np.abs(expected).max()
        if not relative <= _MATCHING_TOL:
            raise ConfigError(
                f"{label}: the matched laser channels miss the bath's generator by "
                f"{relative:.3e} of its largest entry (tolerance {_MATCHING_TOL:.0e})"
            )
        matchings.append((label, spec, settings, defect))
    return matchings


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    modes = _parse_modes(args.modes) if args.modes else None
    config = apply_overrides(
        config,
        modes=modes,
        xi_points=args.xi_points,
        output=args.output,
        fock_dim=args.fock_dim,
    )
    with warnings.catch_warnings():
        # a low adiabatic ratio is the full rows' flag, not the check's
        warnings.simplefilter("ignore", RuntimeWarning)
        _checked_matchings(config.cycle)
    output = config.output_path or Path("sweep.csv")
    if output.is_dir():
        raise ConfigError(f"cannot write {output}: it is a directory")
    if not output.parent.is_dir():
        raise ConfigError(f"cannot write {output}: no directory {output.parent}")
    result = run_sweep(config)
    emit_csv(result.rows, output)
    print(f"wrote {len(result.rows)} rows to {output}")
    if result.flags:
        print("validity flags: " + "; ".join(result.flags))
    for key in sorted(result.diagnostics):
        print(f"  {key} = {result.diagnostics[key]:.6g}")
    failed = result.failed_rows
    if failed:
        for row in failed:
            print(
                f"row (mode={row.mode.value}, xi={row.xi:.6g}) failed: {row.error}",
                file=sys.stderr,
            )
        if args.strict:
            return 3
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    cycle = config.cycle
    lines = [
        f"config ok: {args.config}",
        f"frequency ratio omega_h/omega_c = {cycle.frequency_ratio:.6f}",
        f"xi grid: {len(config.xi_grid)} points in "
        f"[{config.xi_grid[0]:.4g}, {config.xi_grid[-1]:.4g}]",
        f"modes: {', '.join(mode.value for mode in config.modes)}",
    ]
    for label, spec, settings, defect in _checked_matchings(cycle):
        theta = spec_theta(spec)
        ratio_ok = "ok" if settings.regime_ratio >= ADIABATIC_RATIO_FLOOR else "LOW"
        rabi = ", ".join(f"{value:.6g}" for value in settings.rabi)
        lines += [
            f"[{label}] kind={spec.kind.value} n={spec.n_occupation} r={spec.squeezing}",
            f"[{label}] theta={theta:+.6f} ({'negative' if theta < 0 else 'positive'})",
            f"[{label}] rabi (x1, x2, y1, y2) rad/us = ({rabi})",
            f"[{label}] kappa/(lambda*maxOmega) = {settings.regime_ratio:.1f} [{ratio_ok}]",
            f"[{label}] matching identity defect = {defect:.3e}",
        ]
    print("\n".join(lines))
    return 0


def _cmd_steadystate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    cycle = config.cycle
    for label, spec in (("cold", cycle.cold), ("hot", cycle.hot)):
        analytic = bath_steady_state(spec)
        solved = steady_state(spec.bath_model)
        deviation = float(np.abs(analytic - solved).max())
        print(f"[{label}] analytic populations (g, e) = "
              f"({analytic[0, 0].real:.9f}, {analytic[1, 1].real:.9f})")
        print(f"[{label}] null-space populations (g, e) = "
              f"({solved[0, 0].real:.9f}, {solved[1, 1].real:.9f})")
        print(f"[{label}] max deviation = {deviation:.3e}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "steadystate":
            return _cmd_steadystate(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
