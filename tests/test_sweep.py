import csv
import json
import math
from pathlib import Path

import pytest

from ionotto.cli import main
from ionotto.cycle import CycleMode, Regime
from ionotto.lindblad import EquilibrationError
from ionotto.sweep import (
    CSV_HEADER,
    ConfigError,
    SweepRow,
    apply_overrides,
    emit_csv,
    load_config,
    run_sweep,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TWO_PI = 2 * math.pi


def write_config(tmp_path: Path, mutate=None, name="config.json") -> Path:
    document = json.loads((CONFIG_DIR / "fig2a.json").read_text())
    if mutate is not None:
        mutate(document)
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


class TestLoadConfig:
    def test_fig2a_derived_quantities(self):
        config = load_config(CONFIG_DIR / "fig2a.json")
        cycle = config.cycle
        assert abs(cycle.theta_cold - 0.5 * math.log(1 + 1 / 0.6)) < 1e-12
        assert abs(cycle.theta_hot - 0.5 * math.log(1 + 1 / 1.2)) < 1e-12
        assert abs(cycle.theta_cold - 0.490415) < 1e-6
        assert abs(cycle.theta_hot - 0.303068) < 1e-6
        assert cycle.frequency_ratio == pytest.approx(1.5)
        assert abs(cycle.cold.gamma - TWO_PI * 1e-4) < 1e-15
        assert len(config.xi_grid) == 41
        assert config.xi_grid[0] == 0.0 and config.xi_grid[-1] == 0.5

    def test_fig2b_inverted_theta(self):
        cycle = load_config(CONFIG_DIR / "fig2b.json").cycle
        assert abs(cycle.theta_hot + math.log(2.0)) < 1e-12

    def test_fig2c_squeezing(self):
        cycle = load_config(CONFIG_DIR / "fig2c.json").cycle
        assert cycle.hot.squeezing == 0.5
        assert abs(cycle.zeta - 1 / math.cosh(1.0)) < 1e-15

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ConfigError, match="line 1"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, lambda d: d.update(extra={}))
        with pytest.raises(ConfigError, match="extra"):
            load_config(path)

    def test_unknown_engine_key(self, tmp_path):
        path = write_config(tmp_path, lambda d: d["engine"].update(typo=1))
        with pytest.raises(ConfigError, match="typo"):
            load_config(path)

    def test_unit_whitelist(self, tmp_path):
        def mutate(d):
            d["engine"]["kappa"]["unit"] = "MHz"

        path = write_config(tmp_path, mutate)
        with pytest.raises(ConfigError, match="whitelist"):
            load_config(path)

    def test_dimensionless_quantity_rejects_frequency_unit(self, tmp_path):
        def mutate(d):
            d["engine"]["lambda"]["unit"] = "rad_per_us"

        path = write_config(tmp_path, mutate)
        with pytest.raises(ConfigError, match="lambda"):
            load_config(path)

    def test_inverted_bath_occupation_gate(self, tmp_path):
        def mutate(d):
            d["hot"] = {
                "kind": "negative_temperature",
                "gamma": {"value": 0.6283185307179586, "unit": "rad_per_ms"},
                "n_occupation": {"value": 0.3, "unit": "dimensionless"},
            }

        path = write_config(tmp_path, mutate)
        with pytest.raises(ConfigError, match=r"\(1/2, 1\)"):
            load_config(path)

    def test_unknown_bath_kind(self, tmp_path):
        def mutate(d):
            d["hot"]["kind"] = "lukewarm"

        path = write_config(tmp_path, mutate)
        with pytest.raises(ConfigError, match="lukewarm"):
            load_config(path)

    def test_explicit_xi_grid(self, tmp_path):
        def mutate(d):
            d["sweep"] = {"xi_grid": [0.0, 0.1, 0.25], "modes": ["closed_form"]}

        config = load_config(write_config(tmp_path, mutate))
        assert config.xi_grid == (0.0, 0.1, 0.25)

    def test_unsorted_xi_grid_rejected(self, tmp_path):
        def mutate(d):
            d["sweep"] = {"xi_grid": [0.3, 0.1]}

        with pytest.raises(ConfigError, match="sorted"):
            load_config(write_config(tmp_path, mutate))

    def test_out_of_range_xi_rejected(self, tmp_path):
        def mutate(d):
            d["sweep"] = {"xi_grid": [0.0, 1.5]}

        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            load_config(write_config(tmp_path, mutate))


def closed_form_sweep(tmp_path, xi_grid=(0.0, 0.1, 0.25)):
    def mutate(d):
        d["sweep"] = {"xi_grid": list(xi_grid), "modes": ["closed_form"]}

    return load_config(write_config(tmp_path, mutate))


class TestRunSweep:
    def test_zero_mixing_row_is_otto(self, tmp_path):
        result = run_sweep(closed_form_sweep(tmp_path))
        first = result.rows[0]
        assert first.xi == 0.0
        assert first.result.regime is Regime.HEAT_ENGINE
        assert abs(first.result.efficiency - 1 / 3) < 1e-12

    def test_rows_keyed_by_mode_and_xi(self, tmp_path):
        def mutate(d):
            d["sweep"] = {"xi_grid": [0.0, 0.2], "modes": ["effective", "closed_form"]}

        result = run_sweep(load_config(write_config(tmp_path, mutate)))
        keys = [(row.mode.value, row.xi) for row in result.rows]
        assert keys == sorted(keys)
        assert len(keys) == 4

    def test_effective_matches_closed_form_here_too(self, tmp_path):
        def mutate(d):
            d["sweep"] = {"xi_grid": [0.02], "modes": ["closed_form", "effective"]}

        result = run_sweep(load_config(write_config(tmp_path, mutate)))
        closed, effective = result.rows
        assert abs(
            closed.result.energies.net_work - effective.result.energies.net_work
        ) < 1e-6

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        import ionotto.sweep as sweep_module

        def broken(config, xi):
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(sweep_module, "run_cycle_effective", broken)
        config = load_config(
            write_config(
                tmp_path,
                lambda d: d.update(sweep={"xi_grid": [0.0], "modes": ["effective"]}),
            )
        )
        with pytest.raises(TypeError, match="synthetic programming error"):
            run_sweep(config)

    def test_numerical_error_becomes_error_row(self, tmp_path, monkeypatch):
        import ionotto.sweep as sweep_module

        def stalls(config, xi):
            raise EquilibrationError("synthetic stall")

        monkeypatch.setattr(sweep_module, "run_cycle_effective", stalls)
        config = load_config(
            write_config(
                tmp_path,
                lambda d: d.update(
                    sweep={"xi_grid": [0.0], "modes": ["closed_form", "effective"]}
                ),
            )
        )
        result = run_sweep(config)
        (failed,) = result.failed_rows
        assert failed.mode is CycleMode.EFFECTIVE
        assert failed.error == "EquilibrationError: synthetic stall"
        assert len(result.rows) == 2


class TestGoldenCsv:
    """The sweeps of the shipped configs reproduce the committed CSVs.

    Text cells must match exactly; numeric cells may move by pivot-order
    rounding in the last printed digit, far below 1e-12.
    """

    TEXT_COLUMNS = ("xi", "mode", "regime", "flags")

    @pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2c"])
    def test_matches_golden(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        emit_csv(run_sweep(load_config(CONFIG_DIR / f"{name}.json")).rows, out)
        with out.open() as handle:
            produced = list(csv.DictReader(handle))
        with (GOLDEN_DIR / f"{name}.csv").open() as handle:
            golden = list(csv.DictReader(handle))
        assert out.read_text().splitlines()[0] == CSV_HEADER
        assert len(produced) == len(golden)
        for got, want in zip(produced, golden):
            for column, expected in want.items():
                if column in self.TEXT_COLUMNS or expected == "":
                    assert got[column] == expected, (column, want["xi"], want["mode"])
                else:
                    assert abs(float(got[column]) - float(expected)) <= 1e-12, (
                        column, want["xi"], want["mode"]
                    )


class TestEmitCsv:
    def test_header_and_otto_value(self, tmp_path):
        result = run_sweep(closed_form_sweep(tmp_path, xi_grid=(0.0,)))
        out = tmp_path / "rows.csv"
        emit_csv(result.rows, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert "0.333333333333" in lines[1]

    def test_sorted_output_from_shuffled_rows(self, tmp_path):
        result = run_sweep(closed_form_sweep(tmp_path))
        rows = list(result.rows)[::-1]
        out = tmp_path / "rows.csv"
        emit_csv(rows, out)
        with out.open() as handle:
            table = list(csv.DictReader(handle))
        xis = [float(row["xi"]) for row in table]
        assert xis == sorted(xis)

    def test_carnot_empty_for_inverted_bath(self, tmp_path):
        document = json.loads((CONFIG_DIR / "fig2b.json").read_text())
        document["sweep"] = {"xi_grid": [0.0, 0.3], "modes": ["closed_form"]}
        path = tmp_path / "b.json"
        path.write_text(json.dumps(document))
        result = run_sweep(load_config(path))
        out = tmp_path / "b.csv"
        emit_csv(result.rows, out)
        with out.open() as handle:
            for row in csv.DictReader(handle):
                assert row["eta_carnot"] == ""
                assert row["eta_otto"] != ""

    def test_round_trip_preserves_printed_precision(self, tmp_path):
        result = run_sweep(closed_form_sweep(tmp_path))
        out = tmp_path / "rows.csv"
        emit_csv(result.rows, out)
        with out.open() as handle:
            table = list(csv.DictReader(handle))
        for parsed, row in zip(table, result.rows):
            for column, value in (
                ("W_net", row.result.energies.net_work),
                ("Q_hot", row.result.energies.q_hot),
                ("Q_cold", row.result.energies.q_cold),
            ):
                assert format(float(parsed[column]), ".12g") == format(value, ".12g")

    def test_deterministic_bytes(self, tmp_path):
        config = closed_form_sweep(tmp_path)
        paths = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            emit_csv(run_sweep(config).rows, out)
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "empty.csv")

    def test_failed_row_is_recorded_not_fatal(self, tmp_path):
        failed = SweepRow(CycleMode.FULL, 0.1, None, "IntegrationError: boom")
        out = tmp_path / "failed.csv"
        emit_csv([failed], out)
        line = out.read_text().splitlines()[1]
        assert "error=IntegrationError" in line


class TestOverrides:
    def test_xi_points_resample(self, tmp_path):
        config = closed_form_sweep(tmp_path, xi_grid=(0.0, 0.5))
        resampled = apply_overrides(config, xi_points=11)
        assert len(resampled.xi_grid) == 11
        assert resampled.xi_grid[0] == 0.0 and resampled.xi_grid[-1] == 0.5

    def test_fock_dim_and_modes(self, tmp_path):
        config = closed_form_sweep(tmp_path)
        overridden = apply_overrides(
            config, modes=(CycleMode.EFFECTIVE,), fock_dim=8, output="x.csv"
        )
        assert overridden.cycle.fock_dim == 8
        assert overridden.modes == (CycleMode.EFFECTIVE,)
        assert overridden.output_path == Path("x.csv")


class TestCli:
    def test_sweep_command(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            lambda d: d.update(
                sweep={"xi_grid": [0.0, 0.1], "modes": ["closed_form"]}
            ),
        )
        out = tmp_path / "out.csv"
        code = main(["sweep", str(config), "--output", str(out)])
        assert code == 0
        assert out.exists()
        assert "wrote 2 rows" in capsys.readouterr().out

    def test_sweep_mode_override(self, tmp_path):
        config = write_config(
            tmp_path,
            lambda d: d.update(sweep={"xi_grid": [0.0], "modes": ["closed_form"]}),
        )
        out = tmp_path / "out.csv"
        code = main(
            ["sweep", str(config), "--modes", "closed_form,effective",
             "--output", str(out)]
        )
        assert code == 0
        with out.open() as handle:
            modes = {row["mode"] for row in csv.DictReader(handle)}
        assert modes == {"closed_form", "effective"}

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["sweep", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_strict_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        import ionotto.sweep as sweep_module

        def explode(config, xi):
            raise ArithmeticError("synthetic blow-up")

        monkeypatch.setattr(sweep_module, "run_cycle_closed_form", explode)
        config = write_config(
            tmp_path,
            lambda d: d.update(sweep={"xi_grid": [0.0], "modes": ["closed_form"]}),
        )
        out = tmp_path / "out.csv"
        assert main(["sweep", str(config), "--strict", "--output", str(out)]) == 3
        assert main(["sweep", str(config), "--output", str(out)]) == 0
        assert "synthetic blow-up" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("hot", "n_occupation", float("nan")),
            ("cold", "n_occupation", float("inf")),
            ("engine", "omega_e_hot", float("inf")),
            ("engine", "omega_e_hot", float("nan")),
        ],
    )
    def test_non_finite_quantity_exit_code(self, tmp_path, capsys, section, key, value):
        config = write_config(
            tmp_path, lambda d: d[section][key].update(value=value)
        )
        out = tmp_path / "out.csv"
        assert main(["sweep", str(config), "--output", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("integrator_rtol", 1.0),
            ("integrator_rtol", 0.0),
            ("integrator_rtol", float("nan")),
            ("integrator_atol", 0.0),
            ("integrator_atol", -1e-12),
            ("integrator_atol", float("inf")),
            ("equilibration_change", -1.0),
            ("equilibration_change", float("nan")),
        ],
    )
    def test_out_of_range_tolerance_exit_code(self, tmp_path, capsys, key, value):
        config = write_config(
            tmp_path, lambda d: d["engine"].update(tolerances={key: value})
        )
        assert main(["validate", str(config)]) == 2
        assert key in capsys.readouterr().err

    def test_integrator_atol_above_equilibration_change_exit_code(
        self, tmp_path, capsys
    ):
        tolerances = {"integrator_atol": 1e-6, "equilibration_change": 1e-8}
        config = write_config(
            tmp_path, lambda d: d["engine"].update(tolerances=tolerances)
        )
        assert main(["validate", str(config)]) == 2
        err = capsys.readouterr().err
        assert "integrator_atol" in err and "equilibration_change" in err

    @pytest.mark.parametrize("entry", [["x"], {"a": 1}], ids=["list", "object"])
    def test_non_string_mode_exit_code(self, tmp_path, capsys, entry):
        config = write_config(tmp_path, lambda d: d["sweep"].update(modes=[entry]))
        assert main(["validate", str(config)]) == 2
        assert "sweep.modes" in capsys.readouterr().err

    def test_valid_tolerances_accepted(self, tmp_path):
        tolerances = {
            "integrator_rtol": 1e-4,
            "integrator_atol": 1e-6,
            "equilibration_change": 1e-6,
        }
        config = write_config(
            tmp_path, lambda d: d["engine"].update(tolerances=tolerances)
        )
        cycle = load_config(config).cycle
        assert cycle.tolerances.integrator_rtol == 1e-4
        assert cycle.tolerances.integrator_atol == 1e-6

    def test_validate_command(self, capsys):
        assert main(["validate", str(CONFIG_DIR / "fig2c.json")]) == 0
        report = capsys.readouterr().out
        assert "matching identity defect" in report
        assert "[hot]" in report and "[cold]" in report

    def test_steadystate_command(self, capsys):
        assert main(["steadystate", str(CONFIG_DIR / "fig2b.json")]) == 0
        report = capsys.readouterr().out
        assert "analytic populations" in report
        assert "null-space populations" in report
        # inverted bath: excited population 0.8 appears for the hot side
        assert "0.800000000" in report
