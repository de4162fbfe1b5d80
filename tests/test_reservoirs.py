import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ionotto.lindblad import LindbladModel, expectation, steady_state
from ionotto.operators import ketbra, sigma_minus, sigma_z
from ionotto.reservoirs import (
    MAX_SQUEEZING,
    BathKind,
    ReservoirSpec,
    channels_from_settings,
    effective_collapse_channels,
    full_joint_model,
    gibbs_state,
    match_rabi_frequencies,
    slow_relaxation_rate,
    spec_theta,
    squeezed_gibbs_state,
    theta_from_occupation,
)
from ionotto.lindblad import liouvillian_matrix
from ionotto.sweep import load_config

H2 = np.zeros((2, 2), dtype=complex)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestSpecInvariants:
    def test_negative_temperature_occupation_window(self):
        with pytest.raises(ValueError):
            ReservoirSpec.negative_temperature(1.0, 0.3)
        with pytest.raises(ValueError):
            ReservoirSpec.negative_temperature(1.0, 1.0)
        ReservoirSpec.negative_temperature(1.0, 0.8)

    @pytest.mark.parametrize(
        "build, args",
        [("thermal", (1.0, math.nan)), ("thermal", (1.0, math.inf)),
         ("squeezed_thermal", (1.0, math.nan, 0.5)),
         ("squeezed_thermal", (1.0, 0.4, math.nan)),
         ("squeezed_thermal", (1.0, 0.4, math.inf)),
         ("squeezed_thermal", (1.0, 0.4, 356.0)),
         ("squeezed_thermal", (1.0, 0.4, 400.0)),
         ("squeezed_thermal", (1.0, 0.4, 800.0))],
    )
    def test_rejects_non_finite_occupation_or_squeezing(self, build, args):
        # such a spec would match to NaN or inf Rabi frequencies; past
        # r = 355.24 the bath rates' cosh(2 r) = mu^2 + nu^2 overflows
        with pytest.raises(ValueError, match="finite"):
            getattr(ReservoirSpec, build)(*args)

    def test_largest_squeezing_keeps_finite_bath_rates(self):
        spec = ReservoirSpec.squeezed_thermal(1.0, 0.4, MAX_SQUEEZING)
        assert math.isfinite(spec.mu**2 + spec.nu**2)
        with pytest.raises(OverflowError):
            math.cosh(2 * math.nextafter(MAX_SQUEEZING, math.inf))

    def test_squeezed_requires_positive_r(self):
        with pytest.raises(ValueError):
            ReservoirSpec.squeezed_thermal(1.0, 0.4, 0.0)

    def test_thermal_rejects_squeezing(self):
        with pytest.raises(ValueError):
            ReservoirSpec(BathKind.THERMAL, 1.0, 0.5, squeezing=0.1)

    @pytest.mark.parametrize("kind", ["thermal", "cold", None])
    def test_rejects_kind_that_is_no_bath_kind(self, kind):
        # "thermal" equals BathKind.THERMAL as a string but is not the member
        with pytest.raises(ValueError, match=f"unknown bath kind {kind}"):
            ReservoirSpec(kind, 1.0, 0.5)

    def test_zeta(self):
        spec = ReservoirSpec.squeezed_thermal(1.0, 0.4, 0.5)
        assert abs(spec.zeta - 1.0 / math.cosh(1.0)) < 1e-15


class TestTheta:
    def test_bose_einstein_inversion(self):
        theta = theta_from_occupation(0.6, BathKind.THERMAL)
        assert abs(theta - 0.5 * math.log(8 / 3)) < 1e-15
        assert abs(theta - 0.490415) < 1e-6
        assert theta > 0

    def test_fermi_dirac_negative_branch(self):
        theta = theta_from_occupation(0.8, BathKind.NEGATIVE_TEMPERATURE)
        assert abs(theta + math.log(2.0)) < 1e-15
        assert theta < 0

    def test_infinite_temperature_limit(self):
        assert theta_from_occupation(1e9, BathKind.THERMAL) < 1e-9
        assert theta_from_occupation(1e9, BathKind.THERMAL) > 0

    def test_half_occupation_flagged(self):
        with pytest.warns(RuntimeWarning):
            theta = theta_from_occupation(0.5, BathKind.NEGATIVE_TEMPERATURE)
        assert theta == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            theta_from_occupation(0.0, BathKind.THERMAL)
        with pytest.raises(ValueError):
            theta_from_occupation(1.2, BathKind.NEGATIVE_TEMPERATURE)


class TestMatching:
    def test_zero_temperature_limit(self):
        # gamma of order kappa is far outside the elimination regime, so
        # the matching must say so while still returning the settings
        spec = ReservoirSpec.thermal(1.0, 0.0)
        with pytest.warns(RuntimeWarning, match="adiabatic elimination"):
            settings = match_rabi_frequencies(spec, 0.01, 2 * math.pi)
        assert abs(settings.rabi[0] - math.sqrt(2 * math.pi) / 0.01) < 1e-9
        assert settings.rabi[1] == settings.rabi[2] == settings.rabi[3] == 0.0

    def test_squeezed_reduces_to_thermal_as_r_vanishes(self):
        gamma, n, lamb, kappa = 6.3e-4, 0.7, 0.01, 2 * math.pi
        thermal = match_rabi_frequencies(ReservoirSpec.thermal(gamma, n), lamb, kappa)
        squeezed = match_rabi_frequencies(
            ReservoirSpec.squeezed_thermal(gamma, n, 1e-14), lamb, kappa
        )
        assert abs(squeezed.rabi[0] - thermal.rabi[0]) < 1e-6
        assert squeezed.rabi[1] < 1e-8
        assert squeezed.rabi[2] < 1e-8
        assert abs(squeezed.rabi[3] - thermal.rabi[3]) < 1e-6

    def test_regime_warning_when_kappa_small(self):
        spec = ReservoirSpec.thermal(0.1, 0.6)
        with pytest.warns(RuntimeWarning):
            settings = match_rabi_frequencies(spec, 0.01, 1.0)
        assert settings.regime_ratio < 50

    @pytest.mark.parametrize(
        "lamb, kappa",
        [(math.nan, 2 * math.pi), (math.inf, 2 * math.pi), (0.0, 2 * math.pi),
         (0.01, math.nan), (0.01, math.inf), (0.01, -1.0)],
    )
    def test_rejects_non_finite_or_non_positive_inputs(self, lamb, kappa):
        with pytest.raises(ValueError, match="finite and > 0"):
            match_rabi_frequencies(ReservoirSpec.thermal(1e-3, 0.5), lamb, kappa)

    def test_paper_point_ratio(self):
        spec = ReservoirSpec.thermal(2 * math.pi * 1e-4, 1.2)
        settings = match_rabi_frequencies(spec, 0.01, 2 * math.pi)
        assert 60 < settings.regime_ratio < 75

    def test_matching_identity_randomized(self):
        # Liouvillian built from the laser settings equals the target-bath
        # Liouvillian elementwise; the identity is exact whatever the
        # regime quality, so low-ratio warnings are irrelevant here
        import warnings

        rng = np.random.default_rng(42)
        for trial in range(8):
            gamma = 10.0 ** rng.uniform(-4, -2)
            lamb = rng.uniform(0.005, 0.05)
            kappa = rng.uniform(1.0, 10.0)
            kind = trial % 3
            if kind == 0:
                spec = ReservoirSpec.thermal(gamma, rng.uniform(0.05, 3.0))
            elif kind == 1:
                spec = ReservoirSpec.negative_temperature(gamma, rng.uniform(0.55, 0.95))
            else:
                spec = ReservoirSpec.squeezed_thermal(
                    gamma, rng.uniform(0.05, 2.0), rng.uniform(0.05, 1.5)
                )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                settings = match_rabi_frequencies(spec, lamb, kappa)
            from_lasers = liouvillian_matrix(
                LindbladModel(H2, channels_from_settings(settings, sigma_minus()))
            )
            target = liouvillian_matrix(
                LindbladModel(H2, effective_collapse_channels(spec))
            )
            assert np.abs(from_lasers - target).max() < 1e-12


class TestEffectiveChannels:
    def test_zero_temperature_single_channel(self):
        channels = effective_collapse_channels(ReservoirSpec.thermal(0.9, 0.0))
        active = [(rate, op) for rate, op in channels if rate > 0]
        assert len(active) == 1
        rate, op = active[0]
        assert abs(rate - 0.9) < 1e-15
        assert np.array_equal(op, ketbra(2, 0, 1))

    def test_inverted_steady_state(self):
        model = ReservoirSpec.negative_temperature(1.0, 0.8).bath_model
        assert abs(steady_state(model)[1, 1].real - 0.8) < 1e-10

    def test_squeezed_steady_state_matches_formula(self):
        spec = ReservoirSpec.squeezed_thermal(1.0, 0.4, 0.5)
        solved = steady_state(spec.bath_model)
        analytic = squeezed_gibbs_state(spec_theta(spec), 0.5)
        assert np.abs(solved - analytic).max() < 1e-8

    def test_detailed_balance_law(self):
        # p_e / p_g = e^{-2 theta} for theta of either sign
        for spec in (
            ReservoirSpec.thermal(1.0, 0.6),
            ReservoirSpec.negative_temperature(1.0, 0.8),
        ):
            rho = steady_state(spec.bath_model)
            ratio = rho[1, 1].real / rho[0, 0].real
            assert abs(ratio - math.exp(-2 * spec_theta(spec))) < 1e-10

    def test_slow_rate_formula(self):
        spec = ReservoirSpec.thermal(2.0, 0.6)
        assert abs(slow_relaxation_rate(spec) - 2.0 * 2.2 / 2) < 1e-12

    @pytest.mark.parametrize("side", ["cold", "hot"])
    @pytest.mark.parametrize("panel", ["fig2a", "fig2b", "fig2c"])
    def test_slow_rate_is_half_the_population_rate(self, panel, side):
        spec = getattr(load_config(CONFIG_DIR / f"{panel}.json").cycle, side)
        model = spec.bath_model
        gen = model.generator
        # row-major vectorization: entries 0 and 3 are the populations,
        # which the coherences do not feed
        pops, cohs = [0, 3], [1, 2]
        assert not gen[np.ix_(pops, cohs)].any()
        population_rate = (-np.linalg.eigvals(gen[np.ix_(pops, pops)]).real).max()
        assert population_rate == pytest.approx(2 * model.slow_rate, rel=1e-12, abs=0)
        rates = -np.linalg.eigvals(gen).real
        slowest = rates[rates > 1e-12 * rates.max()].min()
        if spec.kind is BathKind.SQUEEZED_THERMAL:
            # squeezing splits the coherence rates around slow_rate
            assert slowest < model.slow_rate
        else:
            assert slowest == pytest.approx(model.slow_rate, rel=1e-12, abs=0)


class TestFullInteraction:
    def test_all_off_gives_zero(self):
        spec = ReservoirSpec.thermal(1e-3, 0.0)
        settings = match_rabi_frequencies(spec, 0.01, 2 * math.pi)
        zeroed = replace(settings, rabi=(0.0, 0.0, 0.0, 0.0), regime_ratio=math.inf)
        h = full_joint_model(zeroed, 3).hamiltonian
        assert np.abs(h).max() == 0.0

    def test_hermitian_by_construction(self):
        rng = np.random.default_rng(3)
        from ionotto.reservoirs import LaserSettings

        settings = LaserSettings(
            ReservoirSpec.thermal(1e-3, 0.5), 0.02, (2 * math.pi, 2 * math.pi),
            tuple(rng.uniform(0, 5, size=4)), regime_ratio=100.0,
        )
        h = full_joint_model(settings, 4).hamiltonian
        assert np.abs(h - h.conj().T).max() <= 1e-14

    def test_single_sideband_coupling_element(self):
        from ionotto.reservoirs import LaserSettings

        lamb, rabi, n_max = 0.01, 7.0, 3
        settings = LaserSettings(
            ReservoirSpec.thermal(1e-3, 0.5), lamb, (2 * math.pi, 2 * math.pi),
            (rabi, 0.0, 0.0, 0.0), regime_ratio=100.0,
        )
        h = full_joint_model(settings, n_max).hamiltonian
        # window states (n_x, n_y) with n_x + n_y < n_max, in box order
        window = [(nx, ny) for nx in range(n_max) for ny in range(n_max) if nx + ny < n_max]
        index = {state: i for i, state in enumerate(window)}
        excited = len(window)  # offset of the excited electron
        assert h.shape == (2 * excited, 2 * excited)
        # couples |e, n_x, n_y> <-> |g, n_x + 1, n_y> with element
        # lambda Omega sqrt(n_x + 1) / 2, acting as the identity on the y
        # mode, wherever both states are in the window
        expected = set()
        for (nx, ny), i in index.items():
            if (nx + 1, ny) in index:
                lower, upper = excited + i, index[(nx + 1, ny)]
                element = lamb * rabi * math.sqrt(nx + 1) / 2
                assert abs(h[upper, lower] - element) < 1e-15
                expected |= {(upper, lower), (lower, upper)}
        assert len(expected) == 6
        nonzero = {tuple(int(x) for x in pair) for pair in np.argwhere(np.abs(h) > 0)}
        assert nonzero == expected

    def test_too_small_truncation(self):
        spec = ReservoirSpec.thermal(1e-3, 0.5)
        settings = match_rabi_frequencies(spec, 0.01, 2 * math.pi)
        with pytest.raises(ValueError):
            full_joint_model(settings, 1)


class TestGibbsStates:
    def test_infinite_temperature(self):
        assert np.allclose(gibbs_state(0.0), np.eye(2) / 2)

    def test_zero_temperature(self):
        assert np.abs(gibbs_state(400.0) - ketbra(2, 0, 0)).max() < 1e-12

    def test_fermi_dirac_round_trip(self):
        theta = theta_from_occupation(0.8, BathKind.NEGATIVE_TEMPERATURE)
        assert abs(gibbs_state(theta)[1, 1].real - 0.8) < 1e-12

    def test_squeezed_reduces_to_gibbs(self):
        theta = theta_from_occupation(0.7, BathKind.THERMAL)
        assert np.abs(squeezed_gibbs_state(theta, 0.0) - gibbs_state(theta)).max() < 1e-15

    def test_strong_squeezing_depolarizes(self):
        theta = theta_from_occupation(0.7, BathKind.THERMAL)
        assert np.abs(squeezed_gibbs_state(theta, 20.0) - np.eye(2) / 2).max() < 1e-12

    @pytest.mark.parametrize("theta", [math.inf, -math.inf])
    def test_infinite_theta_is_a_pure_state(self, theta):
        pure = ketbra(2, 0, 0) if theta > 0 else ketbra(2, 1, 1)
        assert np.array_equal(gibbs_state(theta), pure)
        assert np.array_equal(squeezed_gibbs_state(theta, 0.0), pure)

    @pytest.mark.parametrize(
        "theta, squeezing",
        [
            pytest.param(math.nan, None, id="nan-theta"),
            pytest.param(math.nan, 0.5, id="squeezed-nan-theta"),
            pytest.param(0.5, math.nan, id="nan-squeezing"),
            pytest.param(0.5, math.inf, id="inf-squeezing"),
            pytest.param(0.5, -0.1, id="negative-squeezing"),
        ],
    )
    def test_nan_and_non_finite_inputs_rejected(self, theta, squeezing):
        # each would give an all-NaN state, except the negative squeezing
        with pytest.raises(ValueError):
            if squeezing is None:
                gibbs_state(theta)
            else:
                squeezed_gibbs_state(theta, squeezing)

    @pytest.mark.parametrize("squeezing", [355.3, 356.0])
    def test_squeezing_past_the_ceiling_rejected(self, squeezing):
        # mu^2 + nu^2 overflows there: a trace-0 state at 355.3, an
        # OverflowError from 355.6 on
        assert squeezing > MAX_SQUEEZING
        with pytest.raises(ValueError, match="squeezing must lie in"):
            squeezed_gibbs_state(0.5, squeezing)

    def test_squeezing_at_the_ceiling_has_unit_trace(self):
        state = squeezed_gibbs_state(0.5, MAX_SQUEEZING)
        assert np.isfinite(state).all()
        assert abs(np.trace(state) - 1.0) < 1e-15

    def test_zeta_contraction_identity(self):
        for n, r in [(0.4, 0.5), (1.3, 1.1), (0.05, 2.0)]:
            theta = theta_from_occupation(n, BathKind.THERMAL)
            plain = expectation(sigma_z(), gibbs_state(theta))
            squeezed = expectation(sigma_z(), squeezed_gibbs_state(theta, r))
            zeta = 1.0 / (math.cosh(r) ** 2 + math.sinh(r) ** 2)
            assert abs(squeezed - zeta * plain) < 1e-14


class TestFullJointModel:
    def test_channels_and_layout(self):
        spec = ReservoirSpec.thermal(2 * math.pi * 1e-4, 1.2)
        model = full_joint_model(match_rabi_frequencies(spec, 0.01, 2 * math.pi), 4)
        assert model.dim == 4 * (4 + 1)  # the n_x + n_y < 4 window
        assert len(model.channels) == 2
        assert all(rate == 2 * math.pi for rate, _ in model.channels)
        assert model.slow_rate == pytest.approx(slow_relaxation_rate(spec))
