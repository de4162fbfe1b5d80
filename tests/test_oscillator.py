"""Mode-as-working-substance reservoir synthesis and its validation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ionotto.lindblad import (
    DegenerateSteadyStateError,
    equilibrate,
    evolve,
    expectation,
    steady_state,
)
from ionotto.operators import (
    SpaceLayout,
    destroy,
    ketbra,
    kron,
    number_op,
    partial_trace,
    vacuum_state,
)
from ionotto.oscillator import (
    effective_mode_model,
    full_v_model,
    match_rabi_for_mode,
    mode_collapse_channels,
    quadratic_mode_moments,
)
from ionotto.reservoirs import LaserSettings, ReservoirSpec, match_rabi_frequencies
from panels import v_config, v_model

TWO_PI = 2 * math.pi
GAMMA_E = TWO_PI  # fast electronic decays
TARGET = TWO_PI * 2.5e-4  # effective mode decay rate, gamma / 4000
# squeezing multiplies the strongest coupling by mu = cosh(r); a slower
# target keeps the regime ratio at or above 50
TARGET_SQUEEZED = TWO_PI * 2e-4


class TestModeMatching:
    def test_pure_cooling_limit(self):
        spec = ReservoirSpec.thermal(TARGET, 0.0)
        settings = match_rabi_for_mode(spec, 0.01, GAMMA_E, GAMMA_E)
        assert settings.rabi[0] > 0
        assert settings.rabi[1] == settings.rabi[2] == settings.rabi[3] == 0.0

    def test_vanishing_squeezing_reduces_to_thermal(self):
        thermal = match_rabi_for_mode(
            ReservoirSpec.thermal(TARGET, 0.6), 0.01, GAMMA_E, GAMMA_E
        )
        squeezed = match_rabi_for_mode(
            ReservoirSpec.squeezed_thermal(TARGET, 0.6, 1e-14), 0.01, GAMMA_E, GAMMA_E
        )
        assert abs(squeezed.rabi[0] - thermal.rabi[0]) < 1e-6
        assert squeezed.rabi[1] < 1e-8
        assert squeezed.rabi[2] < 1e-8
        assert abs(squeezed.rabi[3] - thermal.rabi[3]) < 1e-6

    def test_inverted_bath_rejected(self):
        spec = ReservoirSpec.negative_temperature(TARGET, 0.8)
        with pytest.raises(ValueError):
            match_rabi_for_mode(spec, 0.01, GAMMA_E, GAMMA_E)

    @pytest.mark.parametrize(
        "lamb, gamma_ge, gamma_gf",
        [(math.nan, GAMMA_E, GAMMA_E), (math.inf, GAMMA_E, GAMMA_E),
         (0.01, math.inf, GAMMA_E), (0.01, GAMMA_E, math.nan), (0.01, 0.0, GAMMA_E)],
    )
    def test_rejects_non_finite_or_non_positive_inputs(self, lamb, gamma_ge, gamma_gf):
        spec = ReservoirSpec.thermal(TARGET, 0.6)
        with pytest.raises(ValueError, match="finite and > 0"):
            match_rabi_for_mode(spec, lamb, gamma_ge, gamma_gf)

    def test_regime_ratio_at_reference_point(self):
        spec = ReservoirSpec.thermal(TARGET, 0.6)
        settings = match_rabi_for_mode(spec, 0.01, GAMMA_E, GAMMA_E)
        assert settings.regime_ratio >= 50


class TestAdiabaticWarning:
    """Low-ratio warnings name their eliminated rate and point at the caller."""

    def test_match_rabi_frequencies(self):
        with pytest.warns(RuntimeWarning, match="kappa /") as caught:
            match_rabi_frequencies(ReservoirSpec.thermal(0.1, 0.6), 0.01, 1.0)
        assert [w.filename for w in caught] == [__file__]

    def test_match_rabi_for_mode(self):
        spec = ReservoirSpec.thermal(GAMMA_E / 100, 0.6)
        with pytest.warns(RuntimeWarning, match="gamma /") as caught:
            match_rabi_for_mode(spec, 0.01, GAMMA_E, GAMMA_E)
        assert [w.filename for w in caught] == [__file__]

    def test_one_warning_per_matching(self):
        # the V model is built from the matched settings, so the matching's
        # warning is the only one on the way to it
        spec = ReservoirSpec.thermal(GAMMA_E / 100, 0.6)
        with pytest.warns(RuntimeWarning, match="gamma /") as caught:
            settings = match_rabi_for_mode(spec, 0.01, GAMMA_E, GAMMA_E)
            v_model(settings, 5)
        assert settings.regime_ratio < 50
        assert [w.filename for w in caught] == [__file__]


class TestEffectiveModeModel:
    def test_thermal_mean_occupation(self):
        spec = ReservoirSpec.thermal(TARGET, 0.6)
        settings = match_rabi_for_mode(spec, 0.01, GAMMA_E, GAMMA_E)
        model = effective_mode_model(spec, settings, 20)
        rho = steady_state(model)
        assert abs(expectation(number_op(20), rho) - 0.6) < 1e-6

    def test_thermal_populations_geometric(self):
        spec = ReservoirSpec.thermal(TARGET, 0.6)
        settings = match_rabi_for_mode(spec, 0.01, GAMMA_E, GAMMA_E)
        rho = steady_state(effective_mode_model(spec, settings, 20))
        pops = np.diag(rho).real
        q = 0.6 / 1.6
        geometric = (1 - q) * q ** np.arange(20)
        assert np.abs(pops - geometric).max() < 1e-6

    def test_thermal_has_no_anomalous_moment(self):
        spec = ReservoirSpec.thermal(TARGET, 0.6)
        settings = match_rabi_for_mode(spec, 0.01, GAMMA_E, GAMMA_E)
        rho = steady_state(effective_mode_model(spec, settings, 20))
        a = destroy(20)
        assert abs(expectation(a @ a, rho)) < 1e-8

    def test_squeezed_moments_match_linear_solve(self):
        spec = ReservoirSpec.squeezed_thermal(TARGET_SQUEEZED, 0.4, 0.5)
        settings = match_rabi_for_mode(spec, 0.01, GAMMA_E, GAMMA_E)
        # the anti-squeezed quadrature is hot: Fock tail decays with
        # q = n_hot/(1+n_hot), n_hot = (n + 1/2) e^{2r} - 1/2 ~ 1.95
        fock = 48
        model = effective_mode_model(spec, settings, fock)
        rho = equilibrate(model, vacuum_state(fock), change_tol=1e-10).final_state
        n_oracle, a2_oracle = quadratic_mode_moments(
            mode_collapse_channels(settings, fock)
        )
        mu, nu = spec.mu, spec.nu
        assert abs(n_oracle - (0.4 * (mu**2 + nu**2) + nu**2)) < 1e-12
        assert abs(a2_oracle - (-(1 + 2 * 0.4) * mu * nu)) < 1e-12
        a = destroy(fock)
        n_sim = expectation(number_op(fock), rho)
        a2_sim = expectation(a @ a, rho)
        assert abs(n_sim - n_oracle) < 1e-6
        assert abs(a2_sim - a2_oracle) < 1e-6
        assert abs(a2_sim) > 0.5  # squeezing leaves a large anomalous moment

    @pytest.mark.parametrize(
        "other",
        [ReservoirSpec.thermal(TARGET, 0.7),
         ReservoirSpec.squeezed_thermal(TARGET, 0.6, 0.1)],
        ids=["occupation", "squeezing"],
    )
    def test_rejects_spec_other_than_the_matched_one(self, other):
        # same gamma as the matched bath, different occupation or squeezing
        settings = match_rabi_for_mode(
            ReservoirSpec.thermal(TARGET, 0.6), 0.01, GAMMA_E, GAMMA_E
        )
        with pytest.raises(ValueError, match="different bath"):
            effective_mode_model(other, settings, 8)

    def test_all_lasers_off_degenerate(self):
        spec = ReservoirSpec.thermal(TARGET, 0.6)
        settings = LaserSettings(
            spec, lamb=0.01, rates=(GAMMA_E, GAMMA_E),
            rabi=(0.0, 0.0, 0.0, 0.0), regime_ratio=math.inf,
        )
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(effective_mode_model(spec, settings, 6))

    def test_gain_dominated_moments_rejected(self):
        settings = LaserSettings(
            ReservoirSpec.thermal(TARGET, 0.6), lamb=0.01, rates=(GAMMA_E, GAMMA_E),
            rabi=(0.0, 0.0, 0.0, 100.0), regime_ratio=math.inf,
        )
        with pytest.raises(ValueError):
            quadratic_mode_moments(mode_collapse_channels(settings, 6))


class TestFullVModel:
    @pytest.mark.parametrize(
        "field, scale",
        [("lamb", 0.5), ("gamma_ge", 2.0), ("gamma_gf", 2.0), ("rabi", 0.5), ("fock_dim", 2)],
    )
    def test_rejects_config_that_disagrees_with_settings(self, field, scale):
        # every change keeps the regime ratio above the warning floor
        spec = ReservoirSpec.thermal(TARGET, 0.6)
        settings = match_rabi_for_mode(spec, 0.01, GAMMA_E, GAMMA_E)
        config = v_config(settings, 8)
        value = getattr(config, field)
        if field == "rabi":
            value = tuple(scale * rabi for rabi in value)
        else:
            value = scale * value
        with pytest.raises(ValueError, match=field):
            full_v_model(replace(config, **{field: value}), settings, 8)

    @pytest.mark.parametrize("fock_dim", [4.5, 4.0])
    def test_config_rejects_a_non_integer_fock_dim(self, fock_dim):
        spec = ReservoirSpec.thermal(TARGET, 0.6)
        config = v_config(match_rabi_for_mode(spec, 0.01, GAMMA_E, GAMMA_E), 8)
        with pytest.raises(ValueError, match="fock_dim must be an integer"):
            replace(config, fock_dim=fock_dim)
        assert replace(config, fock_dim=np.int64(4)).fock_dim == 4

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_config_rejects_rabi_that_is_not_finite_and_nonnegative(self, bad):
        spec = ReservoirSpec.thermal(TARGET, 0.6)
        config = v_config(match_rabi_for_mode(spec, 0.01, GAMMA_E, GAMMA_E), 8)
        with pytest.raises(ValueError, match="Rabi"):
            replace(config, rabi=(bad, *config.rabi[1:]))

    def test_dense_model_relaxes_implicitly(self):
        # dim 18 keeps the generator dense, but the fast electronic decays
        # make its window stiff: rk would take about 36 k steps, 12 s
        spec = ReservoirSpec.thermal(TARGET, 0.6)
        settings = match_rabi_for_mode(spec, 0.01, GAMMA_E, GAMMA_E)
        fock = 6
        model = v_model(settings, fock)
        report = equilibrate(model, kron(ketbra(3, 0, 0), vacuum_state(fock)))
        assert report.method == "implicit"

    def test_hamiltonian_hermitian(self):
        spec = ReservoirSpec.squeezed_thermal(TARGET_SQUEEZED, 0.4, 0.5)
        settings = match_rabi_for_mode(spec, 0.01, GAMMA_E, GAMMA_E)
        model = v_model(settings, 8)
        h = model.hamiltonian
        assert np.abs(h - h.conj().T).max() <= 1e-14

    def test_lasers_off_pure_electronic_decay(self):
        settings = LaserSettings(
            ReservoirSpec.thermal(TARGET, 0.6), lamb=0.01, rates=(GAMMA_E, GAMMA_E),
            rabi=(0.0, 0.0, 0.0, 0.0), regime_ratio=math.inf,
        )
        fock = 4
        model = v_model(settings, fock)
        layout = SpaceLayout((3, fock))
        mode0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        rho0 = kron(ketbra(3, 1, 1), mode0)
        t = 3.0
        report = evolve(model, rho0, t)
        reduced_e = partial_trace(report.final_state, layout, keep=(0,))
        assert abs(reduced_e[1, 1].real - math.exp(-GAMMA_E * t)) < 1e-7
        reduced_m = partial_trace(report.final_state, layout, keep=(1,))
        assert np.abs(reduced_m - mode0).max() < 1e-9

    def test_thermal_mode_moments_within_two_percent(self):
        spec = ReservoirSpec.thermal(TARGET, 0.6)
        settings = match_rabi_for_mode(spec, 0.01, GAMMA_E, GAMMA_E)
        assert settings.regime_ratio >= 50
        fock = 12  # mean 0.6: the geometric tail is negligible here
        model = v_model(settings, fock)
        layout = SpaceLayout((3, fock))
        rho0 = kron(ketbra(3, 0, 0), vacuum_state(fock))
        report = equilibrate(model, rho0, change_tol=1e-9)
        reduced_m = partial_trace(report.final_state, layout, keep=(1,))
        n_sim = expectation(number_op(fock), reduced_m)
        assert abs(n_sim - 0.6) / 0.6 <= 0.02
        # electronic component pinned at the ground state
        reduced_e = partial_trace(report.final_state, layout, keep=(0,))
        max_rabi = max(settings.rabi)
        bound = (settings.lamb * max_rabi / GAMMA_E) ** 2
        assert reduced_e[0, 0].real >= 1 - 10 * bound

    def test_squeezed_error_shrinks_as_ratio_doubles(self):
        # reference the effective model at the same truncation so the
        # Fock-tail bias cancels and only the elimination error remains
        spec = ReservoirSpec.squeezed_thermal(TARGET_SQUEEZED, 0.4, 0.5)
        fock = 14
        errors = []
        for gamma_e in (GAMMA_E, 4 * GAMMA_E):  # ratio scales as sqrt(gamma)
            settings = match_rabi_for_mode(spec, 0.01, gamma_e, gamma_e)
            effective = equilibrate(
                effective_mode_model(spec, settings, fock),
                vacuum_state(fock),
                change_tol=1e-10,
            ).final_state
            model = v_model(settings, fock)
            layout = SpaceLayout((3, fock))
            rho0 = kron(ketbra(3, 0, 0), vacuum_state(fock))
            report = equilibrate(model, rho0, change_tol=1e-10)
            reduced_m = partial_trace(report.final_state, layout, keep=(1,))
            n_eff = expectation(number_op(fock), effective)
            errors.append(abs(expectation(number_op(fock), reduced_m) - n_eff))
        assert errors[0] / 0.89 <= 0.02  # ratio >= 50 stays inside 2 percent
        assert errors[1] < errors[0]
