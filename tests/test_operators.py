import numpy as np
import pytest

from ionotto.operators import (
    SpaceLayout,
    destroy,
    hermiticity_defect,
    ketbra,
    kron,
    number_op,
    partial_trace,
    sigma_minus,
    sigma_plus,
    sigma_z,
    vacuum_state,
)
from oracles import hermitian_propagator, thermal_state, unitarity_defect


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dyadic_complex(rng, shape):
    """Entries with short binary mantissas so products are exact floats."""
    re = rng.integers(-8, 9, size=shape) / 16.0
    im = rng.integers(-8, 9, size=shape) / 16.0
    return re + 1j * im


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_eigen_action_on_excited_vacuum(self):
        op = kron(sigma_z(), np.eye(2))
        vec = np.zeros(4, dtype=complex)
        vec[2] = 1.0  # |e> x |0>
        assert np.allclose(op @ vec, vec)

    def test_definition_entrywise(self):
        # dyadic entries make the products exact, so == is legitimate
        rng = np.random.default_rng(1)
        a = dyadic_complex(rng, (2, 2))
        b = dyadic_complex(rng, (3, 3))
        out = kron(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    for l in range(3):
                        assert out[i * 3 + k, j * 3 + l] == a[i, j] * b[k, l]

    def test_associative_exactly(self):
        rng = np.random.default_rng(2)
        a = dyadic_complex(rng, (2, 2))
        b = dyadic_complex(rng, (3, 3))
        c = dyadic_complex(rng, (2, 2))
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(3)
        m = random_complex(rng, (2, 2))
        rho_e = m @ m.conj().T
        rho_e /= np.trace(rho_e)
        layout = SpaceLayout((2, 3))
        joint = kron(rho_e, vacuum_state(3))
        assert np.allclose(partial_trace(joint, layout, keep=(0,)), rho_e, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        layout = SpaceLayout((2, 3, 2))
        m = random_complex(rng, (12, 12))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        for keep in [(0,), (1,), (2,), (0, 2)]:
            reduced = partial_trace(rho, layout, keep=keep)
            assert abs(np.trace(reduced) - 1.0) < 1e-12

    def test_maximally_entangled_reduces_to_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        layout = SpaceLayout((2, 2))
        for keep in [(0,), (1,)]:
            assert np.allclose(
                partial_trace(rho, layout, keep=keep), np.eye(2) / 2, atol=1e-14
            )

    def test_kron_factor_recovery(self):
        # tracing out one factor leaves the other scaled by the traced
        # factor's trace
        rng = np.random.default_rng(5)
        ma = random_complex(rng, (2, 2))
        mb = random_complex(rng, (3, 3))
        rho_a = ma @ ma.conj().T
        rho_a /= np.trace(rho_a)
        rho_b = mb @ mb.conj().T  # deliberately unnormalized
        trace_b = np.trace(rho_b)
        layout = SpaceLayout((2, 3))
        joint = kron(rho_a, rho_b)
        assert np.abs(partial_trace(joint, layout, (0,)) - trace_b * rho_a).max() < 1e-12
        assert np.abs(partial_trace(joint, layout, (1,)) - rho_b).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5, dtype=complex), SpaceLayout((2, 3)), keep=(0,))
        with pytest.raises(ValueError):
            partial_trace(np.eye(6, dtype=complex), SpaceLayout((2, 3)), keep=(5,))


class TestBosonicOperators:
    def test_lowering_definition(self):
        assert np.array_equal(destroy(2), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_number_operator(self):
        a = destroy(4)
        assert np.allclose(a.conj().T @ a, np.diag([0, 1, 2, 3]))
        assert np.allclose(number_op(4), np.diag([0, 1, 2, 3]))

    def test_commutator_truncation_artifact(self):
        a = destroy(6)
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(6, dtype=complex)
        expected[5, 5] = -5.0
        assert np.allclose(comm, expected, atol=1e-14)

    def test_too_small(self):
        with pytest.raises(ValueError):
            destroy(1)

    @pytest.mark.parametrize("build", [destroy, number_op])
    @pytest.mark.parametrize("n_max", [4.5, 4.0, "4"])
    def test_non_integer_truncation_rejected(self, build, n_max):
        # np.diag would make 4.5 a 5 x 5 matrix
        with pytest.raises(ValueError, match="Fock truncation must be an integer"):
            build(n_max)

    @pytest.mark.parametrize("build", [destroy, number_op])
    def test_numpy_integer_truncation_accepted(self, build):
        assert np.array_equal(build(np.int64(4)), build(4))

    @pytest.mark.parametrize(
        "build, name",
        [
            pytest.param(
                lambda size: SpaceLayout((2, size)), "subsystem dimension", id="layout"
            ),
            pytest.param(lambda size: ketbra(size, 0, 0), "dimension", id="ketbra"),
            pytest.param(vacuum_state, "Fock truncation", id="vacuum"),
        ],
    )
    @pytest.mark.parametrize("size", [4.5, 4.0, "4"])
    def test_non_integer_size_rejected(self, build, name, size):
        # int() would make SpaceLayout((2, 4.5)) a (2, 4) layout, and
        # np.zeros raise TypeError for ketbra and vacuum_state
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            build(size)

    def test_numpy_integer_size_accepted(self):
        assert SpaceLayout((np.int64(2), np.int32(4))).dims == (2, 4)
        assert np.array_equal(ketbra(np.int64(4), 1, 2), ketbra(4, 1, 2))
        assert np.array_equal(vacuum_state(np.int64(4)), vacuum_state(4))

    def test_thermal_state_mean_matches_geometric_sum(self):
        nbar, n_max = 0.6, 12
        rho = thermal_state(n_max, nbar)
        q = nbar / (1 + nbar)
        weights = q ** np.arange(n_max)
        oracle = (np.arange(n_max) * weights).sum() / weights.sum()
        mean = np.trace(number_op(n_max) @ rho).real
        assert abs(mean - oracle) < 1e-12
        assert abs(oracle - nbar) < 1e-3  # truncation tail at n_max = 12


class TestTwoLevel:
    def test_sign_convention(self):
        # excited state is the +1 eigenvector
        assert sigma_z()[1, 1] == 1.0
        assert np.array_equal(sigma_minus(), ketbra(2, 0, 1))
        assert np.array_equal(sigma_plus(), sigma_minus().conj().T)


class TestHermitianPropagator:
    def test_zero_generator(self):
        assert np.allclose(hermitian_propagator(np.zeros((3, 3)), 2.5), np.eye(3))

    def test_half_sigma_z_full_turn(self):
        u = hermitian_propagator(sigma_z() / 2, 2 * np.pi)
        assert np.allclose(u, -np.eye(2), atol=1e-12)

    def test_unitarity_random(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = random_complex(rng, (5, 5))
            h = m + m.conj().T
            t = rng.uniform(0, 10)
            assert unitarity_defect(hermitian_propagator(h, t)) <= 1e-10

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        m = random_complex(rng, (4, 4))
        h = m + m.conj().T
        t1, t2 = 0.7, 1.9
        u12 = hermitian_propagator(h, t1) @ hermitian_propagator(h, t2)
        assert np.abs(u12 - hermitian_propagator(h, t1 + t2)).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_propagator(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


class TestSpaceLayout:
    def test_dim_product(self):
        assert SpaceLayout((2, 6, 6)).dim == 72

    def test_embed_matches_kron(self):
        layout = SpaceLayout((2, 3))
        a = destroy(3)
        assert np.array_equal(layout.embed(a, 1), kron(np.eye(2), a))

    def test_embed_validates(self):
        layout = SpaceLayout((2, 3))
        with pytest.raises(ValueError):
            layout.embed(destroy(4), 1)
        with pytest.raises(ValueError):
            layout.embed(destroy(3), 2)

    def test_hermiticity_defect(self):
        assert hermiticity_defect(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1.0
