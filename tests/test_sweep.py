import csv
import json
import math
from pathlib import Path

import pytest

import ionotto.lindblad as lindblad_module
from ionotto.cli import main
from ionotto.cycle import CycleMode, Regime, run_cycle_effective
from ionotto.lindblad import EquilibrationError, IntegrationError, liouvillian_matrix
from ionotto.sweep import (
    CSV_HEADER,
    ConfigError,
    SweepConfig,
    SweepRow,
    apply_overrides,
    emit_csv,
    load_config,
    run_sweep,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TWO_PI = 2 * math.pi


def lanes_fail(config, xis):
    """Stands in for a lane batch of effective rows in which a lane fails."""
    raise IntegrationError("synthetic lane failure")


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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("typo", 1),
            ("omega_m", {"value": 62.83185307179586, "unit": "rad_per_us"}),
            ("drive_rabi", {"value": 0.06283185307179587, "unit": "rad_per_us"}),
            ("tolerances", {"integrator_rtol": 1e-9}),
        ],
        ids=["typo", "omega_m", "drive_rabi", "tolerances"],
    )
    def test_unknown_engine_key(self, tmp_path, key, value):
        path = write_config(tmp_path, lambda d: d["engine"].update({key: value}))
        with pytest.raises(ConfigError, match=key):
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
        for grid in ([0.3, 0.1], [0.0, 0.1, 0.1, 0.2]):

            def mutate(d):
                d["sweep"] = {"xi_grid": grid}

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

        # a failed lane batch hands the rows to run_cycle_effective
        monkeypatch.setattr(sweep_module, "run_cycle_effective_grid", lanes_fail)
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

        # a failed lane batch hands the rows to run_cycle_effective
        monkeypatch.setattr(sweep_module, "run_cycle_effective_grid", lanes_fail)
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


class TestEffectiveLanes:
    """run_sweep integrates a config's effective rows as lanes of one loop."""

    @pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2c"])
    def test_rows_equal_per_row_runs(self, name):
        config = load_config(CONFIG_DIR / f"{name}.json")
        config = SweepConfig(config.cycle, config.xi_grid, (CycleMode.EFFECTIVE,), None)
        rows = run_sweep(config).rows
        assert [row.xi for row in rows] == list(config.xi_grid)
        for row in rows:
            assert row.error is None
            assert repr(row.result) == repr(run_cycle_effective(config.cycle, row.xi))

    def test_programming_error_in_the_lanes_propagates(self, tmp_path, monkeypatch):
        import ionotto.sweep as sweep_module

        def broken(config, xis):
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(sweep_module, "run_cycle_effective_grid", broken)
        config = load_config(
            write_config(
                tmp_path,
                lambda d: d.update(sweep={"xi_grid": [0.0], "modes": ["effective"]}),
            )
        )
        with pytest.raises(TypeError, match="synthetic programming error"):
            run_sweep(config)

    def test_failed_lanes_rerun_the_rows_one_by_one(self, tmp_path, monkeypatch):
        import ionotto.sweep as sweep_module

        config = load_config(
            write_config(
                tmp_path,
                lambda d: d.update(
                    sweep={"xi_points": 9, "modes": ["closed_form", "effective"]}
                ),
            )
        )
        expected = run_sweep(config).rows
        doomed = config.xi_grid[3]

        def per_row(cycle, xi):
            if xi == doomed:
                raise EquilibrationError(f"synthetic stall at {xi}")
            return run_cycle_effective(cycle, xi)

        monkeypatch.setattr(sweep_module, "run_cycle_effective_grid", lanes_fail)
        monkeypatch.setattr(sweep_module, "run_cycle_effective", per_row)
        rows = run_sweep(config).rows
        assert len(rows) == len(expected) == 18
        for got, want in zip(rows, expected):
            assert (got.mode, got.xi) == (want.mode, want.xi)
            if got.mode is CycleMode.EFFECTIVE and got.xi == doomed:
                assert got.result is None
                assert got.error == f"EquilibrationError: synthetic stall at {doomed}"
            else:
                assert got.error is None
                assert repr(got.result) == repr(want.result)


class TestGoldenCsv:
    """The sweeps of the shipped configs reproduce the committed CSVs.

    The written file must equal the committed one byte for byte.  The
    cell-by-cell comparison before that check names the first cell that
    moved: text cells must match exactly and numeric cells within 1e-12.
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
        assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


class TestGoldenValidate:
    """``ionotto validate`` on the shipped configs prints the committed
    report byte for byte, Rabi frequencies and matching-identity defects
    of both baths included."""

    @pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2c"])
    def test_matches_golden(self, capsys, monkeypatch, name):
        # the report names the config path as given on the command line
        monkeypatch.chdir(CONFIG_DIR.parent)
        assert main(["validate", f"configs/{name}.json"]) == 0
        report = capsys.readouterr().out.encode("utf-8")
        assert report == (GOLDEN_DIR / f"validate_{name}.txt").read_bytes()


class TestGoldenSteadystate:
    """``ionotto steadystate`` on the shipped configs prints the committed
    report byte for byte: both baths' analytic and null-space populations
    and their deviation."""

    @pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2c"])
    def test_matches_golden(self, capsys, name):
        assert main(["steadystate", str(CONFIG_DIR / f"{name}.json")]) == 0
        report = capsys.readouterr().out.encode("utf-8")
        assert report == (GOLDEN_DIR / f"steadystate_{name}.txt").read_bytes()


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

    def test_sweep_builds_each_bath_generator_once(self, tmp_path, monkeypatch):
        # the matching check builds each bath's generator and its matched
        # lasers'; the effective rows reuse the bath's cached one, and the
        # full rows build none
        built = []

        def spy(model):
            generator = liouvillian_matrix(model)
            built.append(model.dim)
            return generator

        monkeypatch.setattr(lindblad_module, "liouvillian_matrix", spy)
        out = tmp_path / "out.csv"
        args = ["sweep", str(CONFIG_DIR / "fig2c.json"), "--xi-points", "3"]
        assert main(args + ["--output", str(out)]) == 0
        assert built == [2, 2, 2, 2]

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

    @pytest.mark.parametrize("bath", ["cold", "hot"])
    def test_matching_defect_exit_code(self, tmp_path, monkeypatch, capsys, bath):
        # lasers whose first channel is off by one part in a million miss
        # the target bath by about 1e-6 of its largest generator entry
        import ionotto.cli as cli_module

        real = cli_module.channels_from_settings

        def skewed(settings, lower):
            (rate, op), second = real(settings, lower)
            if settings.target == getattr(cycle, bath):
                rate *= 1 + 1e-6
            return (rate, op), second

        cycle = load_config(CONFIG_DIR / "fig2a.json").cycle
        monkeypatch.setattr(cli_module, "channels_from_settings", skewed)
        out = tmp_path / "out.csv"
        config = str(CONFIG_DIR / "fig2a.json")
        assert main(["validate", config]) == 2
        sweep = ["sweep", config, "--modes", "closed_form", "--xi-points", "2"]
        assert main(sweep + ["--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count(f"configuration error: {bath}: the matched laser channels") == 2
        assert not out.exists()

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
            pytest.param("cold", "gamma", 10**400, id="cold-gamma-huge_int"),
            pytest.param("engine", "kappa", -(10**400), id="engine-kappa-huge_negative_int"),
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
        "sweep, where",
        [
            ({"xi_grid": [0.0, 10**400]}, "xi grid"),
            ({"xi_max": 10**400}, "sweep.xi_max"),
            ({"xi_points": 10**400}, "sweep.xi_points"),
        ],
        ids=["xi_grid", "xi_max", "xi_points"],
    )
    def test_huge_integer_xi_exit_code(self, tmp_path, capsys, sweep, where):
        config = write_config(tmp_path, lambda d: d.update(sweep=sweep))
        assert main(["validate", str(config)]) == 2
        assert where in capsys.readouterr().err

    def test_integer_past_the_digit_limit_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path)
        text = config.read_text().replace('"fock_dim": 6', '"fock_dim": ' + "7" * 5000)
        config.write_text(text)
        assert main(["validate", str(config)]) == 2
        assert "digits" in capsys.readouterr().err

    def test_xi_points_override_on_one_point_grid_exit_code(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            lambda d: d.update(sweep={"xi_grid": [0.2], "modes": ["closed_form"]}),
        )
        out = tmp_path / "out.csv"
        assert main(["sweep", str(config), "--xi-points", "3", "--output", str(out)]) == 2
        assert "strictly ascending" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_output_exit_code(self, tmp_path, monkeypatch, capsys, target):
        import ionotto.cli as cli_module

        def no_sweep(config):
            raise AssertionError("run_sweep ran before the output path was checked")

        monkeypatch.setattr(cli_module, "run_sweep", no_sweep)
        config = write_config(tmp_path)
        out_dir = tmp_path / "out"
        if target == "directory":
            out_dir.mkdir()
            out = out_dir
        else:
            out = out_dir / "x.csv"
        assert main(["sweep", str(config), "--output", str(out)]) == 2
        assert str(out) in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("entry", [["x"], {"a": 1}], ids=["list", "object"])
    def test_non_string_mode_exit_code(self, tmp_path, capsys, entry):
        config = write_config(tmp_path, lambda d: d["sweep"].update(modes=[entry]))
        assert main(["validate", str(config)]) == 2
        assert "sweep.modes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, entry",
        [
            ("hot", "kind", ["thermal"]),
            ("hot", "kind", {"name": "thermal"}),
            ("engine", "kappa", {"value": 6.283185307179586, "unit": ["rad_per_us"]}),
            ("hot", "gamma", {"value": 0.6283185307179586, "unit": {"u": 1}}),
        ],
        ids=["kind-list", "kind-object", "unit-list", "unit-object"],
    )
    def test_non_string_kind_or_unit_exit_code(
        self, tmp_path, capsys, section, key, entry
    ):
        config = write_config(tmp_path, lambda d: d[section].update({key: entry}))
        assert main(["validate", str(config)]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_zero_hot_occupation_exit_code(self, tmp_path, capsys, command):
        config = write_config(
            tmp_path, lambda d: d["hot"]["n_occupation"].update(value=0.0)
        )
        out = tmp_path / "out.csv"
        args = [command, str(config)]
        if command == "sweep":
            args += ["--modes", "closed_form", "--output", str(out)]
        assert main(args) == 2
        assert "hot reservoir needs occupation > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    @pytest.mark.parametrize("squeezing", [356, 400, 800])
    def test_overflowing_hot_squeezing_exit_code(self, tmp_path, capsys, squeezing, command):
        # past r = 355.24 the bath rates' cosh(2 r) = mu^2 + nu^2 overflows
        document = json.loads((CONFIG_DIR / "fig2c.json").read_text())
        document["hot"]["squeezing"]["value"] = squeezing
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        out = tmp_path / "out.csv"
        args = [command, str(config)]
        if command == "sweep":
            args += ["--output", str(out)]
        assert main(args) == 2
        assert "hot.squeezing" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fock_dim, command",
        [
            (10**400, "validate"),
            (10**400, "sweep"),
            (33, "validate"),
            (33, "sweep"),
            (33, "override"),
            (1, "override"),
        ],
        ids=["huge-validate", "huge-sweep", "33-validate", "33-sweep",
             "33-override", "1-override"],
    )
    def test_fock_dim_out_of_range_exit_code(self, tmp_path, capsys, fock_dim, command):
        out = tmp_path / "out.csv"
        if command == "override":
            config = write_config(tmp_path)
            args = ["sweep", str(config), "--fock-dim", str(fock_dim)]
        else:
            config = write_config(
                tmp_path, lambda d: d["engine"].update(fock_dim=fock_dim)
            )
            args = [command, str(config)]
        if command != "validate":
            args += ["--modes", "full", "--xi-points", "1", "--output", str(out)]
        assert main(args) == 2
        assert "fock_dim must lie in [2, 32]" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("squeezing, code", [(5, 0), (6, 3)])
    def test_steadystate_degenerate_bath_exit_code(
        self, tmp_path, capsys, squeezing, code
    ):
        # the squeezed bath's slower coherence rate is about e^(-4 r) of
        # its largest: 2.1e-9 at r = 5, 3.8e-11 at r = 6, below the 1e-9
        # null tolerance, where validate still accepts the config
        document = json.loads((CONFIG_DIR / "fig2c.json").read_text())
        document["hot"]["squeezing"]["value"] = squeezing
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        assert main(["steadystate", str(config)]) == code
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        hot_lines = 1 if code else 3
        labels = [line.split(" ")[0] for line in lines]
        assert labels == ["[cold]"] * 3 + ["[hot]"] * hot_lines
        assert lines[3].startswith("[hot] analytic populations")
        if code:
            assert captured.err == (
                "[hot] null-space solver failed: DegenerateSteadyStateError: "
                "Liouvillian null space has dimension 2, expected 1\n"
            )
        else:
            assert captured.err == ""
