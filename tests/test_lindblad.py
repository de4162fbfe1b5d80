from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm

import ionotto.lindblad as lindblad_module
from ionotto.cycle import apply_transition_mixing, run_cycle_effective
from ionotto.lindblad import (
    _DENSE_MAX_DIM,
    DegenerateSteadyStateError,
    EquilibrationError,
    IntegrationError,
    LindbladModel,
    equilibrate,
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
from ionotto.reservoirs import (
    ReservoirSpec,
    bath_steady_state,
    electronic_bath_model,
    full_joint_model,
)
from ionotto.sweep import load_config
from oracles import hermitian_propagator, reference_evolve, thermal_state

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

H2_ZERO = np.zeros((2, 2), dtype=complex)


@pytest.fixture
def built(monkeypatch):
    """The ``sparse`` flag of every generator that lindblad builds."""
    flags = []

    def spy(model, *, sparse=False):
        flags.append(sparse)
        return liouvillian_matrix(model, sparse=sparse)

    monkeypatch.setattr(lindblad_module, "liouvillian_matrix", spy)
    return flags


def sparse_joint_start():
    """A fock-4 box joint model (dim 32, past the dense size limit) and a
    start state with electronic coherence."""
    spec = ReservoirSpec.thermal(2 * np.pi * 1e-4, 0.8)
    model = full_joint_model(spec, 0.01, 2 * np.pi, 4)
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    return model, kron(plus, thermal_state(4, 0.3), vacuum_state(4))


def thermal_two_level_model(gamma, n):
    """Bath contact channels with the rate-balance fixed point
    p_e = n / (1 + 2 n)."""
    return LindbladModel(
        H2_ZERO,
        ((gamma * (1 + n), sigma_minus()), (gamma * n, sigma_plus())),
        SpaceLayout((2,)),
        slow_rate=gamma * (1 + 2 * n) / 2,
    )


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
            evolve(model, good, 1.0, tol=1e-3)  # above the allowed band
        with pytest.raises(ValueError):
            evolve(model, good, -1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        model = thermal_two_level_model(1.0, 0.5)
        with pytest.raises(ValueError, match="finite"):
            evolve(model, np.eye(2, dtype=complex) / 2, t)

    @pytest.mark.parametrize("atol", [0.0, -1e-12, np.nan, np.inf])
    def test_bad_absolute_tolerance_rejected(self, atol):
        model = thermal_two_level_model(1.0, 0.5)
        with pytest.raises(ValueError, match="absolute tolerance"):
            evolve(model, ketbra(2, 1, 1), 1.0, atol=atol)

    def test_closing_a_rounding_gap_is_not_an_underflow(self):
        # the steps here end one rounding error short of t; the tiny step
        # that closes the gap used to raise "step size underflow"
        model = electronic_bath_model(ReservoirSpec.thermal(1.0, 2.625))
        rho0 = np.diag([0.98328621, 1 - 0.98328621]).astype(complex)
        t = 0.0016
        report = evolve(model, rho0, t)
        exact = expm(t * liouvillian_matrix(model)) @ rho0.reshape(-1)
        assert np.abs(report.final_state - exact.reshape(2, 2)).max() < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_error_estimate_raises(self, bad, monkeypatch):
        # the first step's error norm (the third norm evolve takes, after
        # the two of the starting-step heuristic) comes out non-finite; a
        # nan used to grow the step and retry it forever
        real_rms = lindblad_module._rms
        norms = []

        def rms(*args):
            norms.append(real_rms(*args))
            return bad if len(norms) == 3 else norms[-1]

        monkeypatch.setattr(lindblad_module, "_rms", rms)
        with pytest.raises(IntegrationError, match="error estimate"):
            evolve(thermal_two_level_model(1.0, 0.5), ketbra(2, 1, 1), 1.0)

    def test_zero_time_is_identity(self):
        model = thermal_two_level_model(1.0, 0.5)
        rho = np.diag([0.25, 0.75]).astype(complex)
        report = evolve(model, rho, 0.0)
        assert np.array_equal(report.final_state, rho)
        assert report.steps_taken == 0

    def test_sparse_generator_matches_expm(self, built):
        model, rho0 = sparse_joint_start()
        t = 0.3
        report = evolve(model, rho0, t)
        assert built == [True]
        exact = expm(t * liouvillian_matrix(model)) @ rho0.reshape(-1)
        assert np.abs(report.final_state - exact.reshape(32, 32)).max() < 1e-8


class TestEvolveMatchesReference:
    """``evolve`` keeps the arithmetic of the plain reference loop bit for bit."""

    @staticmethod
    def assert_same_bits(model, rho0, t, *args, **kwargs):
        report = evolve(model, rho0, t, *args, **kwargs)
        reference = reference_evolve(model, rho0, t, *args, **kwargs)
        assert report.final_state.tobytes() == reference.final_state.tobytes()
        assert report.steps_taken == reference.steps_taken > 0
        assert report.max_trace_drift == reference.max_trace_drift
        assert report.min_eigenvalue == reference.min_eigenvalue

    @pytest.mark.parametrize("panel", ["fig2a", "fig2b", "fig2c"])
    def test_shipped_bath_windows(self, panel):
        cycle = load_config(CONFIG_DIR / f"{panel}.json").cycle
        model = electronic_bath_model(cycle.hot)
        window = 5.0 / model.slow_rate
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        starts = [
            apply_transition_mixing(bath_steady_state(cycle.cold), xi)
            for xi in (0.0, 0.13, 0.37, 0.5)
        ]
        for rho0 in starts + [plus]:
            # equilibrate's rk window, and evolve at its default tolerances
            self.assert_same_bits(model, rho0, window, 1e-9, atol=1e-12)
            self.assert_same_bits(model, rho0, 0.3 * window)

    def test_sparse_joint_model(self):
        model, rho0 = sparse_joint_start()
        assert model.dim > _DENSE_MAX_DIM
        self.assert_same_bits(model, rho0, 0.3)


class TestGenerator:
    @pytest.mark.parametrize("dim", [_DENSE_MAX_DIM, _DENSE_MAX_DIM + 1])
    def test_dense_up_to_the_size_rule(self, dim, built):
        model = LindbladModel(
            np.diag(np.arange(dim)).astype(complex), ((0.3, destroy(dim)),)
        )
        generator = model.generator
        assert model.generator is generator
        sparse = dim > _DENSE_MAX_DIM
        assert built == [sparse]
        assert sp.issparse(generator) == sparse
        expected = liouvillian_matrix(model, sparse=sparse)
        if sparse:
            generator, expected = generator.toarray(), expected.toarray()
        assert np.array_equal(generator, expected)

    def test_equilibrate_builds_one_generator(self, built):
        cycle = load_config(CONFIG_DIR / "fig2c.json").cycle
        start = apply_transition_mixing(bath_steady_state(cycle.cold), 0.3)
        report = equilibrate(electronic_bath_model(cycle.hot), start)
        assert report.method == "rk"
        assert report.windows > 1
        assert built == [False]

    def test_effective_row_builds_two_generators(self, built):
        # a freshly loaded config: its specs have not built a bath model yet
        cycle = load_config(CONFIG_DIR / "fig2a.json").cycle
        for xi in (0.0, 0.1, 0.3, 0.5):
            run_cycle_effective(cycle, xi)
        # one dense generator per bath spec, over all rows
        assert built == [False, False]
        assert electronic_bath_model(cycle.hot) is cycle.hot.bath_model


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


def small_joint_model(kappa=2 * np.pi, gamma=2 * np.pi * 5e-3, n=0.8, n_max=3):
    """Electron and two lossy modes, sized so explicit stepping stays cheap."""
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
        layout,
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
        rk = equilibrate(model, rho0, method="rk", max_windows=12)
        implicit = equilibrate(model, rho0, method="implicit")
        assert rk.method == "rk" and implicit.method == "implicit"
        assert np.abs(rk.final_state - implicit.final_state).max() < 1e-7
        assert implicit.rhs_residual < 1e-10

    def test_auto_picks_implicit_for_joint_models(self):
        model, _ = small_joint_model(n_max=4)  # dim 32 crosses the threshold
        rho0 = kron(ketbra(2, 0, 0), vacuum_state(4), vacuum_state(4))
        report = equilibrate(model, rho0)
        assert report.method == "implicit"

    def test_budget_exhaustion_raises(self):
        model = thermal_two_level_model(1.0, 0.6)
        with pytest.raises(EquilibrationError):
            equilibrate(model, ketbra(2, 1, 1), window=0.01, max_windows=2)

    def test_needs_window_or_slow_rate(self):
        model = LindbladModel(H2_ZERO, ((1.0, sigma_minus()),))
        with pytest.raises(ValueError):
            equilibrate(model, ketbra(2, 1, 1))

    @pytest.mark.parametrize("window", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_window_rejected(self, window):
        model = thermal_two_level_model(1.0, 0.6)
        with pytest.raises(ValueError, match="window"):
            equilibrate(model, ketbra(2, 1, 1), window=window)

    @pytest.mark.parametrize("slow_rate", [np.nan, np.inf])
    def test_non_finite_slow_rate_rejected(self, slow_rate):
        model = LindbladModel(H2_ZERO, ((1.0, sigma_minus()),), slow_rate=slow_rate)
        with pytest.raises(ValueError, match="slow_rate"):
            equilibrate(model, ketbra(2, 1, 1))


class TestLiouvillianMatrix:
    def test_sparse_matches_dense(self):
        model = thermal_two_level_model(0.7, 0.4)
        dense = liouvillian_matrix(model)
        sparse = liouvillian_matrix(model, sparse=True).toarray()
        assert np.abs(dense - sparse).max() < 1e-15

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
    liou = liouvillian_matrix(model, sparse=True)
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
    return full_joint_model(spec, 0.01, 2 * np.pi, n_max)


class TestSectorRestriction:
    @pytest.mark.parametrize(
        "model",
        [
            small_joint_model()[0],
            small_joint_model(n_max=4)[0],
            squeezed_joint_model(4),
            squeezed_joint_model(5),
        ],
        ids=["thermal-3", "thermal-4", "squeezed-4", "squeezed-5"],
    )
    def test_matches_full_space_loop(self, model):
        n_max = model.layout.dims[1]
        rho0 = kron(ketbra(2, 1, 1), vacuum_state(n_max), vacuum_state(n_max))
        report = equilibrate(model, rho0, method="implicit")
        reference, windows = full_space_backward_euler(model, rho0)
        assert report.windows == windows
        assert np.abs(report.final_state - reference).max() < 1e-12
        assert report.sector_dim < model.dim**2

    @pytest.mark.parametrize("n_max", [4, 5])
    def test_electronic_coherence_start_state_is_kept(self, n_max):
        model = squeezed_joint_model(n_max)
        vac = vacuum_state(n_max)
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        coherent = equilibrate(model, kron(plus, vac, vac), method="implicit")
        ground = equilibrate(model, kron(ketbra(2, 0, 0), vac, vac), method="implicit")
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
        model = full_joint_model(cycle.hot, cycle.lamb, cycle.kappa, n_max)
        vac = vacuum_state(n_max)
        report = equilibrate(model, kron(ketbra(2, 1, 1), vac, vac))
        assert report.method == "implicit"
        assert report.sector_dim == sector_dim
        assert report.rhs_residual < 1e-10

    def test_rk_reports_the_full_space(self):
        model = thermal_two_level_model(1.0, 0.6)
        assert equilibrate(model, ketbra(2, 1, 1)).sector_dim == 4
