"""Property: ``liouvillian_matrix`` reproduces the sum of Kronecker products.

Random models of dim 1-12: a Hermitian Hamiltonian with structural zeros
and up to three channels, each sparse, diagonal-only or dense, with rates
that may be zero.  Entries come from a grid with signed zeros and with
negative, imaginary and fractional parts.

The dense output equals ``reference_liouvillian``, and every nonzero entry
is bit-equal to it.  The nonzeros that ``_Terms`` evaluates on its support,
which ``steady_state`` and ``equilibrate``'s sector block read on models
of any size, are, to the bit, the canonical CSR form of the dense
reference's nonzeros.  Against the sparse reference they have the same
structure and the same values: that reference sums the ``sp.kron`` terms
of the nonzeros only, so a zero real or imaginary part can carry the
opposite sign there.  On every model the library builds, the two
reference forms agree bit for bit, and the ``test_shipped_*`` tests
compare the assembled nonzeros with the sparse reference directly.

The generator also picks ``equilibrate``'s stepper: ``test_stepper_*``
pin it, and the stiffness figure it reads, on each model family at the
sizes that the sweep, the benchmark and the tests build.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import ionotto.cycle as cycle_module
from ionotto.cycle import prepare_bath_equilibria
from ionotto.lindblad import (
    _DENSE_MAX_DIM,
    _STIFF_WINDOW,
    EquilibrationReport,
    LindbladModel,
    _stepper,
    _Terms,
    liouvillian_matrix,
)
from ionotto.oscillator import (
    VSystemConfig,
    effective_mode_model,
    full_v_model,
    match_rabi_for_mode,
)
from ionotto.reservoirs import ReservoirSpec
from ionotto.sweep import load_config
from oracles import reference_liouvillian

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
PANELS = ("fig2a", "fig2b", "fig2c")
TWO_PI = 2 * math.pi

GRID = np.array([0.0, -0.0, 0.5, 1.0, -1.0, 2.0, -1.0 / 3.0])


def grid_matrix(rng, dim, shape):
    """A complex matrix on the grid: sparse, diagonal-only or dense."""
    values = rng.choice(GRID, (dim, dim)) + 1j * rng.choice(GRID, (dim, dim))
    if shape == "diagonal":
        return np.diag(np.diag(values))
    if shape == "sparse":
        return np.where(rng.random((dim, dim)) < 0.25, values, 0.0)
    return values


@st.composite
def random_models(draw):
    dim = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = st.sampled_from(["sparse", "diagonal", "dense"])
    rates = st.sampled_from([0.0, 0.3, 1.0, 2.5])
    half = grid_matrix(rng, dim, draw(shapes))
    channels = tuple(
        (draw(rates), grid_matrix(rng, dim, draw(shapes)))
        for _ in range(draw(st.integers(0, 3)))
    )
    return LindbladModel(half + half.conj().T, channels)


def assembled_csr(model):
    """The nonzeros that ``_Terms`` evaluates on the whole support, in
    canonical CSR form."""
    n = model.dim**2
    terms = _Terms(model)
    support = terms.support()
    data = terms.entries(support)
    support, data = support[data != 0], data[data != 0]
    indptr = np.searchsorted(support, np.arange(n + 1) * n)
    return sp.csr_matrix((data, support % n, indptr), shape=(n, n))


def assert_dense_bits(dense, reference):
    assert dense.shape == reference.shape and dense.flags.c_contiguous
    assert np.array_equal(dense, reference)
    nonzero = reference != 0
    assert dense[nonzero].tobytes() == reference[nonzero].tobytes()


def assert_same_csr(matrix, reference):
    assert isinstance(matrix, sp.csr_matrix) and matrix.shape == reference.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(matrix, name).tobytes() == getattr(reference, name).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(model=random_models())
def test_assembly_matches_kronecker_sum(model):
    reference = reference_liouvillian(model)
    assert_dense_bits(liouvillian_matrix(model), reference)
    sparse = assembled_csr(model)
    assert_same_csr(sparse, sp.csr_matrix(reference))
    stored = reference_liouvillian(model, sparse=True)
    assert np.array_equal(sparse.indptr, stored.indptr)
    assert np.array_equal(sparse.indices, stored.indices)
    assert np.array_equal(sparse.data, stored.data)


# The oscillator models of the benchmark's mode workload: bath rates at
# regime ratio 50 (thermal) and 53 (squeezed), electronic decays 2 pi.
MODE_SPECS = {
    "thermal": ReservoirSpec.thermal(TWO_PI * 2.5e-4, 0.6),
    "squeezed": ReservoirSpec.squeezed_thermal(TWO_PI * 2e-4, 0.4, 0.5),
}


def mode_model(kind, fock):
    settings = match_rabi_for_mode(MODE_SPECS[kind], 0.01, TWO_PI, TWO_PI)
    return effective_mode_model(MODE_SPECS[kind], settings, fock)


def v_model(kind, fock):
    settings = match_rabi_for_mode(MODE_SPECS[kind], 0.01, TWO_PI, TWO_PI)
    config = VSystemConfig(
        omega_ge=TWO_PI * 1e6,
        omega_gf=1.2 * TWO_PI * 1e6,
        omega_m=10 * TWO_PI,
        lamb=0.01,
        gamma_ge=TWO_PI,
        gamma_gf=TWO_PI,
        rabi=settings.rabi,
        fock_dim=fock,
    )
    return full_v_model(config, settings, fock)


def window_models(panel, fock_dim, monkeypatch):
    """The cold and hot excitation-window models of the full-mode bath
    strokes, taken from ``prepare_bath_equilibria`` without solving them."""
    models = []

    def capture(model, rho0, **kwargs):
        models.append(model)
        return EquilibrationReport(rho0, "implicit", 1, 1.0, 0.0, 0.0, 0.0, 0.0)

    monkeypatch.setattr(cycle_module, "equilibrate", capture)
    config = load_config(CONFIG_DIR / f"{panel}.json").cycle
    prepare_bath_equilibria(replace(config, fock_dim=fock_dim))
    return models


def assert_matches_reference(model):
    """Assembled nonzeros against the sparse reference to the bit,
    structure included; the dense output too while the dense reference
    stays small."""
    assert_same_csr(assembled_csr(model), reference_liouvillian(model, sparse=True))
    if model.dim <= _DENSE_MAX_DIM:
        assert_dense_bits(liouvillian_matrix(model), reference_liouvillian(model))


@pytest.mark.parametrize("kind, fock", [("thermal", 20), ("squeezed", 48)])
def test_shipped_mode_models(kind, fock):
    assert_matches_reference(mode_model(kind, fock))


@pytest.mark.parametrize("kind, fock", [("thermal", 20), ("squeezed", 16)])
def test_shipped_full_v_models(kind, fock):
    assert_matches_reference(v_model(kind, fock))


@pytest.mark.parametrize("panel", PANELS)
def test_shipped_bath_models(panel):
    cycle = load_config(CONFIG_DIR / f"{panel}.json").cycle
    for spec in (cycle.cold, cycle.hot):
        assert_matches_reference(spec.bath_model)


@pytest.mark.parametrize("fock_dim", [6, 7, 8])
@pytest.mark.parametrize("panel", PANELS)
def test_shipped_window_models(panel, fock_dim, monkeypatch):
    models = window_models(panel, fock_dim, monkeypatch)
    assert [model.dim for model in models] == [fock_dim * (fock_dim + 1)] * 2
    for model in models:
        assert_matches_reference(model)




def family_models(family, sizes, monkeypatch):
    """The models of ``family`` at each of ``sizes``: the Fock dimension of
    the mode, or the ``fock_dim`` of the full-mode bath strokes."""
    if family == "bath":
        cycles = [load_config(CONFIG_DIR / f"{panel}.json").cycle for panel in PANELS]
        return [spec.bath_model for cycle in cycles for spec in (cycle.cold, cycle.hot)]
    if family == "mode":
        return [mode_model(kind, fock) for kind in MODE_SPECS for fock in sizes]
    if family == "full_v":
        return [v_model(kind, fock) for kind in MODE_SPECS for fock in sizes]
    return [
        model
        for panel in PANELS
        for fock_dim in sizes
        for model in window_models(panel, fock_dim, monkeypatch)
    ]


@pytest.mark.parametrize(
    "family, sizes, low, high, stepper",
    [
        ("bath", (), 9.9, 10.1, "rk"),
        ("mode", (4, 6, 12, 14, 24), 100.0, 2.2e3, "rk"),
        ("window", (2, 3, 4), 5.9e4, 6.1e5, "implicit"),
        ("full_v", (2, 4, 6, 8), 8.0e4, 1.1e5, "implicit"),
    ],
)
def test_stepper_of_dense_models(family, sizes, low, high, stepper, monkeypatch):
    # the figures of each family stay 4.5x or more away from the constant
    assert high * 4.5 < _STIFF_WINDOW or low > 4.5 * _STIFF_WINDOW
    for model in family_models(family, sizes, monkeypatch):
        assert model.dim <= _DENSE_MAX_DIM
        assert low <= model.window_stiffness <= high
        assert _stepper(model) == stepper


@pytest.mark.parametrize(
    "family, sizes",
    [("mode", (48,)), ("full_v", (12, 14, 16, 20)), ("window", (5, 6, 8))],
)
def test_stepper_of_sparse_models(family, sizes, monkeypatch):
    for model in family_models(family, sizes, monkeypatch):
        assert model.dim > _DENSE_MAX_DIM
        assert _stepper(model) == "implicit"
        # no stiffness figure is computed: such a model has no generator
        assert "window_stiffness" not in vars(model)
