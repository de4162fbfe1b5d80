import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

import ionotto.lindblad as lindblad_module
import ionotto.cycle as cycle_module
from ionotto.cycle import (
    apply_transition_mixing,
    prepare_bath_equilibria,
    run_cycle_effective,
)
from ionotto.lindblad import (
    _DENSE_MAX_DIM,
    DegenerateSteadyStateError,
    EquilibrationError,
    IntegrationError,
    LindbladModel,
    equilibrate,
    equilibrate_lanes,
    evolve,
    expectation,
    liouvillian_matrix,
    steady_state,
    trace_norm,
)
from ionotto.operators import (
    SpaceLayout,
    destroy,
    ketbra,
    kron,
    number_op,
    sigma_minus,
    sigma_plus,
    sigma_z,
    vacuum_state,
)
from ionotto.oscillator import effective_mode_model, match_rabi_for_mode
from ionotto.reservoirs import (
    ReservoirSpec,
    bath_steady_state,
    match_rabi_frequencies,
)
from ionotto.sweep import load_config
from oracles import (
    box_joint_model,
    hermitian_propagator,
    reference_evolve,
    reference_liouvillian,
    reference_window_loop,
    thermal_state,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

H2_ZERO = np.zeros((2, 2), dtype=complex)


@pytest.fixture
def built(monkeypatch):
    """The model dimension of every generator that lindblad builds."""
    dims = []

    def spy(model):
        dims.append(model.dim)
        return liouvillian_matrix(model)

    monkeypatch.setattr(lindblad_module, "liouvillian_matrix", spy)
    return dims


@pytest.fixture
def trace_norms(monkeypatch):
    """The shape of every matrix handed to ``trace_norm`` by lindblad."""
    shapes = []

    def spy(a):
        shapes.append(a.shape)
        return trace_norm(a)

    monkeypatch.setattr(lindblad_module, "trace_norm", spy)
    return shapes


@pytest.fixture
def svd_shapes(monkeypatch):
    """The shape of every matrix handed to ``np.linalg.svd``."""
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


NON_FINITE = [np.nan, np.inf, -np.inf]


def non_finite_state(value):
    """A two-level state whose excited population is ``value``."""
    return np.diag([1.0, value]).astype(complex)


def sparse_joint_start():
    """A fock-4 box joint model (dim 32, past the dense size limit) and a
    start state with electronic coherence."""
    spec = ReservoirSpec.thermal(2 * np.pi * 1e-4, 0.8)
    model = box_joint_model(match_rabi_frequencies(spec, 0.01, 2 * np.pi), 4)
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    return model, kron(plus, thermal_state(4, 0.3), vacuum_state(4))


def thermal_two_level_model(gamma, n):
    """Bath contact channels with the rate-balance fixed point
    p_e = n / (1 + 2 n)."""
    return LindbladModel(
        H2_ZERO,
        ((gamma * (1 + n), sigma_minus()), (gamma * n, sigma_plus())),
        slow_rate=gamma * (1 + 2 * n) / 2,
    )


def two_level_model(method):
    """:func:`thermal_two_level_model` that ``equilibrate`` steps with
    ``method``: for ``implicit`` its slow rate is 1e4 times too small, so
    that one window spans 1.0e5 of its fastest time scales."""
    model = thermal_two_level_model(1.0, 0.6)
    return model if method == "rk" else replace(model, slow_rate=1.1e-4)


def short_window_model():
    """:func:`thermal_two_level_model` with a slow rate that sets windows
    of 0.01, far too short to relax within the window budget."""
    return replace(thermal_two_level_model(1.0, 0.6), slow_rate=500.0)


class TestModelValidation:
    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ValueError):
            LindbladModel(np.array([[0, 1], [0, 0]], dtype=complex), ())

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            LindbladModel(H2_ZERO, ((-1.0, sigma_minus()),))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            LindbladModel(H2_ZERO, ((1.0, destroy(3)),))

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejects_non_finite_hamiltonian(self, value):
        h = np.array([[0.0, value], [np.conj(value), 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hamiltonian has non-finite"):
            LindbladModel(h, ((1.0, sigma_minus()),))

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejects_non_finite_collapse_operator(self, value):
        op = sigma_minus()
        op[1, 0] = value
        with pytest.raises(ValueError, match="collapse operator has non-finite"):
            LindbladModel(H2_ZERO, ((1.0, op),))


class TestEvolve:
    def test_unitary_limit_phase(self):
        # equal superposition under H = sigma_z / 2 for t = pi: the
        # coherence picks up e^{i pi} = -1, populations stay put
        model = LindbladModel(sigma_z() / 2, ())
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        report = evolve(model, plus, np.pi)
        final = report.final_state
        assert abs(final[0, 0] - 0.5) < 1e-9
        assert abs(final[1, 1] - 0.5) < 1e-9
        assert abs(final[0, 1] + 0.5) < 1e-8
        assert report.max_trace_drift < 1e-10

    def test_pure_decay(self):
        gamma = 0.8
        model = LindbladModel(H2_ZERO, ((gamma, sigma_minus()),))
        report = evolve(model, ketbra(2, 1, 1), 2.0)
        assert abs(report.final_state[1, 1].real - np.exp(-gamma * 2.0)) < 1e-8

    def test_rate_equation_fixed_point(self):
        # two-level balance gamma (1+n) p_e = gamma n p_g
        model = thermal_two_level_model(1.0, 0.6)
        report = evolve(model, ketbra(2, 1, 1), 20.0)
        assert abs(report.final_state[1, 1].real - 0.6 / 2.2) < 1e-6

    def test_matches_exact_unitary(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = m + m.conj().T
        model = LindbladModel(h, ())
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        rho0 = np.outer(psi, psi.conj())
        t = 1.3
        u = hermitian_propagator(h, t)
        exact = u @ rho0 @ u.conj().T
        report = evolve(model, rho0, t)
        assert np.abs(report.final_state - exact).max() < 1e-8

    def test_positivity_and_trace_invariants(self):
        model = thermal_two_level_model(0.5, 1.1)
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        report = evolve(model, plus, 7.0)
        assert report.max_trace_drift <= 1e-8
        assert report.min_eigenvalue >= -1e-9

    def test_precondition_checks(self):
        model = thermal_two_level_model(1.0, 0.5)
        good = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValueError):
            evolve(model, 2 * good, 1.0)  # trace 2
        with pytest.raises(ValueError):
            evolve(model, np.array([[1, 0.1], [0, 0]], dtype=complex), 1.0)
        with pytest.raises(ValueError):
            evolve(model, good, -1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        model = thermal_two_level_model(1.0, 0.5)
        with pytest.raises(ValueError, match="finite"):
            evolve(model, np.eye(2, dtype=complex) / 2, t)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_state_rejected(self, value):
        model = thermal_two_level_model(1.0, 0.5)
        with pytest.raises(ValueError, match="state has non-finite"):
            evolve(model, non_finite_state(value), 1.0)

    def test_closing_a_rounding_gap_is_not_an_underflow(self):
        # the steps here end one rounding error short of t; the tiny step
        # that closes the gap used to raise "step size underflow"
        model = ReservoirSpec.thermal(1.0, 2.625).bath_model
        rho0 = np.diag([0.98328621, 1 - 0.98328621]).astype(complex)
        t = 0.0016
        report = evolve(model, rho0, t)
        exact = expm(t * liouvillian_matrix(model)) @ rho0.reshape(-1)
        assert np.abs(report.final_state - exact.reshape(2, 2)).max() < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_error_estimate_raises(self, bad, monkeypatch):
        # the first step's error norm (the third norm evolve takes, after
        # the two of the starting-step heuristic) comes out non-finite; a
        # nan used to grow the step and retry it forever.  _rms returns
        # one norm per lane, and evolve runs one lane.
        real_rms = lindblad_module._rms
        norms = []

        def rms(*args):
            norms.append(real_rms(*args))
            return [bad] if len(norms) == 3 else norms[-1]

        monkeypatch.setattr(lindblad_module, "_rms", rms)
        with pytest.raises(IntegrationError, match="error estimate"):
            evolve(thermal_two_level_model(1.0, 0.5), ketbra(2, 1, 1), 1.0)

    def test_zero_time_is_identity(self):
        model = thermal_two_level_model(1.0, 0.5)
        rho = np.diag([0.25, 0.75]).astype(complex)
        report = evolve(model, rho, 0.0)
        assert np.array_equal(report.final_state, rho)
        assert report.steps_taken == 0

    def test_sparse_generator_rejected(self):
        # rk stepping runs on dense generators only; the models past the
        # dense size limit relax with implicit windows
        model, rho0 = sparse_joint_start()
        with pytest.raises(ValueError, match="implicit"):
            evolve(model, rho0, 0.3)
        with pytest.raises(ValueError, match="implicit"):
            evolve(model, rho0, 0.0)
        with pytest.raises(ValueError, match="implicit"):
            equilibrate_lanes(model, [rho0])


class TestEvolveMatchesReference:
    """``evolve`` keeps the arithmetic of the plain reference loop bit for bit."""

    @staticmethod
    def assert_same_bits(model, rho0, t):
        report = evolve(model, rho0, t)
        reference = reference_evolve(model, rho0, t)
        assert report.final_state.tobytes() == reference.final_state.tobytes()
        assert report.steps_taken == reference.steps_taken > 0
        assert report.max_trace_drift == reference.max_trace_drift
        assert report.min_eigenvalue == reference.min_eigenvalue

    @pytest.mark.parametrize("panel", ["fig2a", "fig2b", "fig2c"])
    def test_shipped_bath_windows(self, panel):
        cycle = load_config(CONFIG_DIR / f"{panel}.json").cycle
        model = cycle.hot.bath_model
        window = 5.0 / model.slow_rate
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        starts = [
            apply_transition_mixing(bath_steady_state(cycle.cold), xi)
            for xi in (0.0, 0.13, 0.37, 0.5)
        ]
        for rho0 in starts + [plus]:
            # equilibrate's rk window, and a part of one
            self.assert_same_bits(model, rho0, window)
            self.assert_same_bits(model, rho0, 0.3 * window)


class TestGenerator:
    @pytest.mark.parametrize("dim", [_DENSE_MAX_DIM, _DENSE_MAX_DIM + 1])
    def test_dense_up_to_the_size_rule(self, dim, built):
        model = LindbladModel(
            np.diag(np.arange(dim)).astype(complex), ((0.3, destroy(dim)),)
        )
        if dim > _DENSE_MAX_DIM:
            with pytest.raises(ValueError, match="steady_state"):
                model.generator
            assert built == []
            return
        generator = model.generator
        assert model.generator is generator
        assert built == [dim]
        assert np.array_equal(generator, liouvillian_matrix(model))

    def test_equilibrate_builds_one_generator(self, built):
        cycle = load_config(CONFIG_DIR / "fig2c.json").cycle
        start = apply_transition_mixing(bath_steady_state(cycle.cold), 0.3)
        report = equilibrate(cycle.hot.bath_model, start)
        assert report.method == "rk"
        assert report.windows > 1
        assert built == [2]

    @pytest.mark.parametrize("n_max, sparse", [(3, False), (4, True)])
    def test_implicit_equilibrations_build_one_generator(self, n_max, sparse, built):
        # dim 18 keeps the cached generator dense (its stiffness reads it);
        # the implicit solve of either size builds only its sector's block,
        # so a dim 32 model builds no full-space generator
        model, _ = small_joint_model(gamma=STIFF_GAMMA, n_max=n_max)
        vac = vacuum_state(n_max)
        for start in (ketbra(2, 0, 0), ketbra(2, 1, 1)):
            report = equilibrate(model, kron(start, vac, vac))
            assert report.method == "implicit"
        assert built == ([] if sparse else [18])

    def test_effective_row_builds_two_generators(self, built):
        # a freshly loaded config: its specs have not built a bath model yet
        cycle = load_config(CONFIG_DIR / "fig2a.json").cycle
        for xi in (0.0, 0.1, 0.3, 0.5):
            run_cycle_effective(cycle, xi)
        # one generator per bath spec, over all rows
        assert built == [2, 2]


class TestExpectation:
    def test_identity(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        assert abs(expectation(np.eye(2, dtype=complex), rho) - 1.0) < 1e-15

    def test_sigma_z_ground(self):
        assert expectation(sigma_z(), ketbra(2, 0, 0)) == -1.0

    def test_thermal_mean_occupation(self):
        nbar, n_max = 1.0, 14  # n_max >= nbar + 6 sqrt(nbar)
        rho = thermal_state(n_max, nbar)
        q = nbar / (1 + nbar)
        weights = q ** np.arange(n_max)
        oracle = (np.arange(n_max) * weights).sum() / weights.sum()
        assert abs(expectation(number_op(n_max), rho) - oracle) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(np.eye(2, dtype=complex), np.eye(3, dtype=complex) / 3)

    def test_non_hermitian_returns_complex(self):
        value = expectation(sigma_plus(), 0.5 * np.ones((2, 2), dtype=complex))
        assert isinstance(value, complex)


def mode_model(spec, fock):
    """Effective mode model of ``spec``, matched in the adiabatic regime."""
    settings = match_rabi_for_mode(spec, 0.01, 2 * np.pi, 2 * np.pi)
    return effective_mode_model(spec, settings, fock)


class TestSteadyState:
    def test_zero_temperature_decay(self):
        model = LindbladModel(sigma_z() * 0.7, ((1.0, sigma_minus()),))
        assert np.abs(steady_state(model) - ketbra(2, 0, 0)).max() < 1e-10

    def test_thermal_rate_balance(self):
        model = thermal_two_level_model(1.0, 0.6)
        rho = steady_state(model)
        assert abs(rho[1, 1].real - 0.6 / 2.2) < 1e-10

    def test_population_inversion(self):
        gamma, n = 1.0, 0.8
        model = LindbladModel(
            H2_ZERO,
            ((gamma * (1 - n), sigma_minus()), (gamma * n, sigma_plus())),
        )
        rho = steady_state(model)
        assert abs(rho[1, 1].real - 0.8) < 1e-10

    def test_agrees_with_long_time_evolution(self):
        model = thermal_two_level_model(0.9, 1.3)
        direct = steady_state(model)
        evolved = evolve(model, ketbra(2, 0, 0), 60.0).final_state
        assert np.abs(direct - evolved).max() < 1e-6

    def test_requires_a_channel(self):
        with pytest.raises(ValueError):
            steady_state(LindbladModel(sigma_z(), ()))

    def test_degenerate_null_space_reported(self):
        zero_op = np.zeros((3, 3), dtype=complex)
        model = LindbladModel(np.zeros((3, 3), dtype=complex), ((1.0, zero_op),))
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(model)

    def test_thermal_mode_decomposes_by_coherence_order(self, svd_shapes):
        # a thermal bath conserves m - n: 39 blocks of 20 - |m - n| entries
        model = mode_model(ReservoirSpec.thermal(2 * np.pi * 2.5e-4, 0.6), 20)
        steady_state(model)
        sizes = sorted(rows for rows, _ in svd_shapes)
        assert all(rows == cols for rows, cols in svd_shapes)
        assert sizes == sorted(20 - abs(k) for k in range(-19, 20))

    def test_squeezed_mode_decomposes_by_parity(self, svd_shapes):
        spec = ReservoirSpec.squeezed_thermal(2 * np.pi * 2e-4, 0.4, 0.5)
        steady_state(mode_model(spec, 20))
        assert svd_shapes == [(200, 200), (200, 200)]

    def test_blocks_split_at_exact_cancellations(self, svd_shapes):
        # |0><1| + |2><3| and |0><1| - |2><3| at one rate cancel to exact
        # zeros at ((0, 2), (1, 3)) and ((2, 0), (3, 1)) of L (x) L^*: the
        # blocks are those of the nonzeros, 13 against 11 structural ones
        pair = np.zeros((2, 4, 4), dtype=complex)
        pair[:, 0, 1] = 1.0
        pair[:, 2, 3] = (1.0, -1.0)
        jumps = (0.5, ketbra(4, 0, 1)), (0.5, ketbra(4, 0, 2))
        model = LindbladModel(
            np.diag([0.0, 1.0, 0.3, 2.0]).astype(complex),
            ((1.0, pair[0]), (1.0, pair[1])) + jumps,
        )
        steady_state(model)
        liou = reference_liouvillian(model, sparse=True)
        count, labels = connected_components(abs(liou), directed=False)
        assert count == 13
        assert sorted(svd_shapes) == sorted((m, m) for m in np.bincount(labels))

    def test_builds_no_generator(self, built):
        spec = ReservoirSpec.squeezed_thermal(2 * np.pi * 2e-4, 0.4, 0.5)
        for model in (
            thermal_two_level_model(0.7, 0.4),
            mode_model(spec, 20),
            sparse_joint_start()[0],
        ):
            steady_state(model)
            assert "generator" not in vars(model)
        assert built == []

    def test_model_past_the_dense_size_matches_implicit_equilibration(
        self, svd_shapes
    ):
        # dim 32 is past the dense size limit: blocks are assembled from
        # the terms, and no SVD sees the whole 1024 x 1024 matrix
        model, _ = sparse_joint_start()
        assert model.dim > _DENSE_MAX_DIM
        direct = steady_state(model)
        assert max(rows for rows, _ in svd_shapes) < model.dim**2
        assert sum(rows for rows, _ in svd_shapes) == model.dim**2
        vac = vacuum_state(4)
        start = kron(ketbra(2, 0, 0), vac, vac)
        relaxed = equilibrate(model, start, change_tol=1e-13)
        assert np.abs(direct - relaxed.final_state).max() < 1e-10


# A bath this slow makes :func:`small_joint_model`'s window stiff (4.7e4
# fastest time scales at n_max 3), so equilibrate steps it implicitly.
STIFF_GAMMA = 2 * np.pi * 5e-4


def small_joint_model(kappa=2 * np.pi, gamma=2 * np.pi * 5e-3, n=0.8, n_max=3):
    """Electron and two lossy modes, sized so explicit stepping stays cheap:
    at n_max 3 a window spans 4.8e3 of its fastest time scales, so
    equilibrate steps it with rk."""
    lamb = 0.01
    layout = SpaceLayout((2, n_max, n_max))
    a = destroy(n_max)
    g_down = np.sqrt(kappa * gamma * (1 + n))
    g_up = np.sqrt(kappa * gamma * n)
    s_x = 0.5 * g_down * sigma_minus()
    s_y = 0.5 * g_up * sigma_plus()
    ident = np.eye(n_max, dtype=complex)
    h = kron(s_x, a.conj().T, ident) + kron(s_y, ident, a.conj().T)
    h = h + h.conj().T
    return LindbladModel(
        h,
        ((kappa, layout.embed(a, 1)), (kappa, layout.embed(a, 2))),
        slow_rate=gamma * (1 + 2 * n) / 2,
    ), layout


class TestEquilibrate:
    def test_two_level_window_convergence(self):
        model = thermal_two_level_model(1.0, 0.6)
        report = equilibrate(model, ketbra(2, 1, 1))
        assert report.method == "rk"
        assert report.last_change < 1e-8
        assert abs(report.final_state[1, 1].real - 0.6 / 2.2) < 1e-9
        assert report.max_trace_drift <= 1e-8
        assert report.min_eigenvalue >= -1e-9

    def test_implicit_matches_rk_on_joint_model(self):
        model, layout = small_joint_model()
        rho0 = kron(ketbra(2, 1, 1), vacuum_state(3), vacuum_state(3))
        rk = equilibrate(model, rho0)
        implicit = reference_window_loop(model, rho0, method="implicit")
        assert rk.method == "rk" and implicit.method == "implicit"
        assert np.abs(rk.final_state - implicit.final_state).max() < 1e-7
        assert implicit.rhs_residual < 1e-10

    def test_sparse_models_step_implicitly(self):
        model, _ = small_joint_model(n_max=4)  # dim 32 crosses the threshold
        rho0 = kron(ketbra(2, 0, 0), vacuum_state(4), vacuum_state(4))
        report = equilibrate(model, rho0)
        assert report.method == "implicit"

    def test_budget_exhaustion_raises(self):
        model = short_window_model()
        with pytest.raises(EquilibrationError, match="8 rk windows of 0.01"):
            equilibrate(model, ketbra(2, 1, 1))

    def test_needs_slow_rate(self):
        model = LindbladModel(H2_ZERO, ((1.0, sigma_minus()),))
        with pytest.raises(ValueError, match="slow_rate"):
            equilibrate(model, ketbra(2, 1, 1))

    @pytest.mark.parametrize("method", ["rk", "implicit"])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_state_rejected(self, method, value):
        model = two_level_model(method)
        with pytest.raises(ValueError, match="state has non-finite"):
            equilibrate(model, non_finite_state(value))

    @pytest.mark.parametrize("method", ["rk", "implicit"])
    @pytest.mark.parametrize("change_tol", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_change_tol_rejected(self, change_tol, method):
        # up front: a window test against such a tol never passes (nan, 0,
        # negative) or passes at once (inf)
        model = two_level_model(method)
        with pytest.raises(ValueError, match="change_tol"):
            equilibrate(model, ketbra(2, 1, 1), change_tol=change_tol)

    @pytest.mark.parametrize("method", ["rk", "implicit"])
    @pytest.mark.parametrize("change_tol", [1e155, 1e300])
    def test_huge_change_tol_passes_the_first_window(self, change_tol, method):
        # the Frobenius pre-test squares change_tol, which used to raise
        # OverflowError past 1.3e154
        model = two_level_model(method)
        report = equilibrate(model, np.diag([1.0, 0.0]), change_tol=change_tol)
        assert report.method == method
        assert report.windows == 1
        assert report.last_change < change_tol

    @pytest.mark.parametrize("window", [np.nan, np.inf])
    def test_bad_window_rejected(self, window):
        # the window 5 / slow_rate is nan for a nan rate and overflows to
        # inf for a subnormal one; both are refused at construction
        slow_rate = 1e-309 if window == np.inf else np.nan
        with pytest.raises(ValueError, match="window"):
            LindbladModel(H2_ZERO, ((1.0, sigma_minus()),), slow_rate=slow_rate)

    @pytest.mark.parametrize(
        "bad",
        [
            non_finite_state(np.nan),
            np.eye(3) / 3,
            np.array([[0.5, 0.1], [0.0, 0.5]]),
            np.diag([0.6, 0.6]),
            np.diag([1.2, -0.2]),
        ],
        ids=["non_finite", "shape", "non_hermitian", "trace", "negative"],
    )
    def test_lanes_reject_a_bad_start_as_equilibrate_does(self, bad):
        # the first window checks each start once, with equilibrate's text
        model = thermal_two_level_model(1.0, 0.6)
        with pytest.raises(ValueError) as single:
            equilibrate(model, bad)
        with pytest.raises(ValueError) as lanes:
            equilibrate_lanes(model, [ketbra(2, 1, 1), bad])
        assert str(lanes.value) == str(single.value)

    def test_lanes_reject_a_stiff_dense_model(self):
        # equilibrate steps it implicitly, so rk lanes could not match it
        model = two_level_model("implicit")
        assert equilibrate(model, ketbra(2, 1, 1)).method == "implicit"
        with pytest.raises(ValueError, match="stiff"):
            equilibrate_lanes(model, [ketbra(2, 1, 1)])

    @pytest.mark.parametrize("slow_rate", [np.nan, np.inf, 0.0, -1.0])
    def test_non_finite_slow_rate_rejected(self, slow_rate):
        # at construction, before any solve
        with pytest.raises(ValueError, match="slow_rate"):
            LindbladModel(H2_ZERO, ((1.0, sigma_minus()),), slow_rate=slow_rate)

    def test_frobenius_pretest_skips_trace_norms(self, trace_norms):
        spec = ReservoirSpec.squeezed_thermal(2 * np.pi * 2e-4, 0.4, 0.5)
        report = equilibrate(mode_model(spec, 48), vacuum_state(48), change_tol=1e-10)
        assert report.method == "implicit"
        assert report.windows > 5
        assert 1 <= len(trace_norms) <= 2

    def test_exhausted_budget_reports_the_exact_last_change(self, trace_norms):
        model = short_window_model()
        with pytest.raises(EquilibrationError) as exhausted:
            equilibrate(model, ketbra(2, 1, 1))
        # only the last window takes the exact norm
        assert trace_norms == [(2, 2)]
        with pytest.raises(EquilibrationError) as reference:
            reference_window_loop(model, ketbra(2, 1, 1))
        assert str(exhausted.value) == str(reference.value)


def assert_same_report(report, reference):
    assert report.final_state.tobytes() == reference.final_state.tobytes()
    for name in (
        "method",
        "windows",
        "window_duration",
        "last_change",
        "max_trace_drift",
        "min_eigenvalue",
        "rhs_residual",
        "steps_taken",
        "sector_dim",
    ):
        assert getattr(report, name) == getattr(reference, name), name


class TestEquilibrateMatchesWindowLoop:
    """The Frobenius pre-test changes no window count and no bit."""

    @pytest.mark.parametrize("panel", ["fig2a", "fig2b", "fig2c"])
    def test_bath_models_rk(self, panel):
        cycle = load_config(CONFIG_DIR / f"{panel}.json").cycle
        model = cycle.hot.bath_model
        start = apply_transition_mixing(bath_steady_state(cycle.cold), 0.3)
        # a start that is Hermitian only to 1e-11, as the input check allows
        skewed = start + 1e-11 * ketbra(2, 0, 1)
        for rho0 in (start, skewed, ketbra(2, 1, 1)):
            report = equilibrate(model, rho0)
            assert report.method == "rk"
            assert_same_report(report, reference_window_loop(model, rho0))

    def test_start_hermitian_to_the_input_tolerance(self):
        # the start's upper coherence is off by 1e-10, the most the input
        # check allows; trace_norm's eigvalsh reads the lower triangle, so
        # the first change measures 1.0e-12 although its Frobenius norm is
        # 9.9e-11, and the window must still pass at change_tol 1e-11
        cycle = load_config(CONFIG_DIR / "fig2a.json").cycle
        model = cycle.hot.bath_model
        rho0 = bath_steady_state(cycle.hot) + 1e-10 * ketbra(2, 0, 1)
        report = equilibrate(model, rho0, change_tol=1e-11)
        assert report.windows == 1
        assert_same_report(report, reference_window_loop(model, rho0, change_tol=1e-11))

    @pytest.mark.parametrize("fock, method", [(6, "rk"), (48, "implicit")])
    def test_change_just_below_the_tolerance_passes(self, fock, method):
        # change_tol a hair above the exact change of the converging window:
        # the pre-test must not skip that window
        spec = ReservoirSpec.squeezed_thermal(2 * np.pi * 2e-4, 0.4, 0.5)
        model = mode_model(spec, fock)
        rho0 = vacuum_state(fock)
        first = reference_window_loop(model, rho0)
        tol = first.last_change * (1 + 1e-9)
        report = equilibrate(model, rho0, change_tol=tol)
        assert report.method == method
        assert report.windows == first.windows > 2
        assert_same_report(report, reference_window_loop(model, rho0, change_tol=tol))

    # rk at fock 12, implicit on the sparse generator at fock 48
    @pytest.mark.parametrize("fock, method, windows", [(12, "rk", 4), (48, "implicit", 6)])
    @pytest.mark.parametrize(
        "spec",
        [
            ReservoirSpec.thermal(2 * np.pi * 2.5e-4, 0.6),
            ReservoirSpec.squeezed_thermal(2 * np.pi * 2e-4, 0.4, 0.5),
        ],
        ids=["thermal", "squeezed"],
    )
    def test_mode_models(self, spec, fock, method, windows):
        model = mode_model(spec, fock)
        report = equilibrate(model, vacuum_state(fock), change_tol=1e-10)
        assert report.method == method
        assert report.windows >= windows
        reference = reference_window_loop(model, vacuum_state(fock), change_tol=1e-10)
        assert_same_report(report, reference)

    @pytest.mark.parametrize("fock_dim", [4, 6])
    @pytest.mark.parametrize("panel", ["fig2a", "fig2c"])
    def test_joint_window_models_implicit(self, panel, fock_dim, monkeypatch):
        solves = []

        def spy(model, rho0, **kwargs):
            solves.append((model, rho0, kwargs, equilibrate(model, rho0, **kwargs)))
            return solves[-1][-1]

        monkeypatch.setattr(cycle_module, "equilibrate", spy)
        cycle = load_config(CONFIG_DIR / f"{panel}.json").cycle
        prepare_bath_equilibria(replace(cycle, fock_dim=fock_dim))
        assert len(solves) == 2
        for model, rho0, kwargs, report in solves:
            assert report.method == "implicit"
            assert_same_report(report, reference_window_loop(model, rho0, **kwargs))


class TestLiouvillianMatrix:
    def test_builds_no_kronecker_product(self, monkeypatch):
        models = [
            thermal_two_level_model(0.7, 0.4),
            small_joint_model()[0],
            mode_model(ReservoirSpec.squeezed_thermal(2 * np.pi * 2e-4, 0.4, 0.5), 6),
        ]
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a Kronecker product was formed")

        monkeypatch.setattr(np, "kron", spy)
        monkeypatch.setattr(sp, "kron", spy)
        for model in models:
            liouvillian_matrix(model)
            steady_state(model)
        assert calls == []

    def test_generator_annihilates_steady_state(self):
        model = thermal_two_level_model(1.0, 0.6)
        rho = steady_state(model)
        assert np.abs(liouvillian_matrix(model) @ rho.reshape(-1)).max() < 1e-12

    def test_trace_norm(self):
        assert abs(trace_norm(np.diag([0.5, -0.5])) - 1.0) < 1e-14


def full_space_backward_euler(model, rho0, change_tol=1e-8, budget=60):
    """Reference window loop: backward Euler on the whole vectorized space."""
    d = model.dim
    dt = 5.0 / model.slow_rate
    liou = reference_liouvillian(model, sparse=True)
    lu = spla.splu((sp.identity(d * d, format="csc", dtype=complex) - dt * liou).tocsc())
    rho = rho0
    for window in range(1, budget + 1):
        mat = lu.solve(rho.reshape(-1)).reshape(d, d)
        mat = 0.5 * (mat + mat.conj().T)
        change = trace_norm(mat - rho)
        rho = mat
        if change < change_tol:
            return rho, window
    raise AssertionError("reference loop did not converge")


def squeezed_joint_model(n_max):
    spec = ReservoirSpec.squeezed_thermal(2 * np.pi * 1e-4, 0.4, 0.5)
    return box_joint_model(match_rabi_frequencies(spec, 0.01, 2 * np.pi), n_max)


class TestSectorRestriction:
    @pytest.mark.parametrize(
        "model",
        [
            small_joint_model(gamma=STIFF_GAMMA)[0],
            small_joint_model(n_max=4)[0],
            squeezed_joint_model(4),
            squeezed_joint_model(5),
        ],
        ids=["thermal-3", "thermal-4", "squeezed-4", "squeezed-5"],
    )
    def test_matches_full_space_loop(self, model):
        n_max = math.isqrt(model.dim // 2)
        rho0 = kron(ketbra(2, 1, 1), vacuum_state(n_max), vacuum_state(n_max))
        report = equilibrate(model, rho0)
        assert report.method == "implicit"
        reference, windows = full_space_backward_euler(model, rho0)
        assert report.windows == windows
        assert np.abs(report.final_state - reference).max() < 1e-12
        assert report.sector_dim < model.dim**2

    @pytest.mark.parametrize("n_max", [4, 5])
    def test_electronic_coherence_start_state_is_kept(self, n_max):
        model = squeezed_joint_model(n_max)
        vac = vacuum_state(n_max)
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        coherent = equilibrate(model, kron(plus, vac, vac))
        ground = equilibrate(model, kron(ketbra(2, 0, 0), vac, vac))
        reference, windows = full_space_backward_euler(model, kron(plus, vac, vac))
        assert coherent.windows == windows
        assert np.abs(coherent.final_state - reference).max() < 1e-12
        # the start-state coherences live outside the trace sector
        assert coherent.sector_dim > ground.sector_dim
        assert np.abs(coherent.final_state - ground.final_state).max() < 1e-7

    @pytest.mark.parametrize("panel, sector_dim", [("fig2a", 572), ("fig2c", 2592)])
    def test_sector_dim_of_shipped_panels(self, panel, sector_dim):
        cycle = load_config(CONFIG_DIR / f"{panel}.json").cycle
        n_max = cycle.fock_dim
        settings = match_rabi_frequencies(cycle.hot, cycle.lamb, cycle.kappa)
        model = box_joint_model(settings, n_max)
        vac = vacuum_state(n_max)
        report = equilibrate(model, kron(ketbra(2, 1, 1), vac, vac))
        assert report.method == "implicit"
        assert report.sector_dim == sector_dim
        assert report.rhs_residual < 1e-10

    @pytest.mark.parametrize("method", ["rk", "implicit"])
    def test_rhs_residual_is_relative_to_the_generator(self, method):
        # the same dynamics on clocks 1e6 times faster and slower: max
        # |L rho| spans twelve decades (measured 5e-17 to 5e-5 with rk),
        # max |L rho| / max |L| stays put (3.1e-11 with rk, 1e-15 implicit)
        base = two_level_model(method)
        residuals = []
        for speed in (1e-6, 1.0, 1e6):
            model = LindbladModel(
                H2_ZERO,
                tuple((speed * rate, op) for rate, op in base.channels),
                slow_rate=speed * base.slow_rate,
            )
            report = equilibrate(model, ketbra(2, 1, 1))
            assert report.method == method
            residuals.append(report.rhs_residual)
        assert 0 < max(residuals) < 1e-10
        assert max(residuals) <= 1.2 * min(residuals)

    def test_rk_reports_the_full_space(self):
        model = thermal_two_level_model(1.0, 0.6)
        assert equilibrate(model, ketbra(2, 1, 1)).sector_dim == 4
