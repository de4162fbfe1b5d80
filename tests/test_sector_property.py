"""Property: the implicit path's sector block is the full-space route's, bit for bit.

``equilibrate`` steps a sparse model on the generator's block over the
reached sector, which ``_sector_block`` labels and assembles without the
whole generator.  The reference takes ``reference_liouvillian(model,
sparse=True)``, labels its components (``oracles.reference_state_sector``)
and slices the block.  The sector, the block's ``data``, ``indices`` and
``indptr`` bytes, and the residual max |L rho| read from the block for a
state on the sector must all equal the reference's.

Random sparse models (dim 25-32) carry one engineered exact cancellation
on a structural entry: channels ``g (|0><1| + |2><3|) + A`` and ``g
(|0><1| - |2><3|) + B`` at one rate, whose L (x) L^* terms cancel to an
exact zero at ((0, 2), (1, 3)) and ((2, 0), (3, 1)).  When the gadget
states 0-3 are cut off from the rest and the start state holds the (0, 2)
coherence, that cancellation splits the structural component, and only
the relabelling of the block's nonzero pattern finds the true sector.
The six shipped joint bath models at fock 6 and 8 run the same check, and
their implicit equilibrations report what the full-space loop reports.  A
start state that is Hermitian only within tolerance keeps the transposes of
its entries in the sector, so its windows stay on it.

``steady_state`` takes its blocks from the same ``_Terms.blocks``: on the
cancelling draws it returns ``oracles.reference_block_steady_state``'s bytes
or raises its ``DegenerateSteadyStateError``, and on joint window models
without cancellations neither route labels a graph on all d^2 vectorized
entries.
"""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import ionotto.cycle as cycle_module
from ionotto.cycle import prepare_bath_equilibria
import ionotto.lindblad as lindblad_module
from ionotto.lindblad import (
    DegenerateSteadyStateError,
    LindbladModel,
    _sector_block,
    _Terms,
    equilibrate,
    steady_state,
)
from ionotto.operators import kron, vacuum_state
from ionotto.reservoirs import (
    ReservoirSpec,
    full_joint_model,
    match_rabi_frequencies,
)
from ionotto.sweep import load_config
from oracles import (
    box_joint_model,
    reference_block_steady_state,
    reference_liouvillian,
    reference_state_sector,
    reference_window_loop,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def assert_block_matches_oracle(model, rho, rng):
    sector, block = _sector_block(model, rho)
    liou = reference_liouvillian(model, sparse=True)
    expected_sector = reference_state_sector(liou, rho.reshape(-1), model.dim)
    assert sector.tobytes() == expected_sector.tobytes()
    expected = liou[expected_sector][:, expected_sector]
    for name in ("data", "indices", "indptr"):
        assert getattr(block, name).tobytes() == getattr(expected, name).tobytes(), name
    # rows of L v outside the sector are exactly zero for v on the sector
    v = np.zeros(model.dim**2, dtype=complex)
    v[sector] = rng.normal(size=sector.size) + 1j * rng.normal(size=sector.size)
    residual = float(np.abs(block.dot(v[sector])).max()) if sector.size else 0.0
    assert residual == float(np.abs(liou.dot(v)).max())
    return sector


def sparse_hermitian(rng, dim, density, active):
    a = np.zeros((dim, dim), dtype=complex)
    mask = rng.random((dim, dim)) < density
    mask &= np.outer(active, active)
    a[mask] = rng.normal(size=mask.sum()) + 1j * rng.normal(size=mask.sum())
    return a + a.conj().T


@st.composite
def cancelling_models(draw):
    """A sparse model with the cancelling gadget on states 0-3, and a
    Hermitian start state."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(25, 32))
    isolated = draw(st.booleans())
    density = draw(st.sampled_from([0.02, 0.05, 0.1]))
    rest = np.arange(dim) >= 4
    # with the gadget cut off, H and the random channel parts avoid it
    active = rest if isolated else np.ones(dim, dtype=bool)
    hamiltonian = sparse_hermitian(rng, dim, density, active)
    hamiltonian[np.arange(4), np.arange(4)] += rng.normal(size=4)
    g = complex(rng.normal(), rng.normal())
    rate = draw(st.sampled_from([0.5, 1.0, 2.0]))
    channels = []
    for sign in (1.0, -1.0):
        op = np.zeros((dim, dim), dtype=complex)
        mask = (rng.random((dim, dim)) < density) & np.outer(active, active)
        op[mask] = rng.normal(size=mask.sum()) + 1j * rng.normal(size=mask.sum())
        op[0, 1], op[2, 3] = g, sign * g
        channels.append((rate, op))
    model = LindbladModel(hamiltonian, tuple(channels), slow_rate=1.0)
    # a random state on some basis states, with the (0, 2) coherence and
    # without states 1 and 3
    weights = np.where(rng.random(dim) < 0.3, rng.random(dim), 0.0)
    weights[0] = weights[2] = 1.0
    weights[1] = weights[3] = 0.0
    psi = np.sqrt(weights) * np.exp(2j * np.pi * rng.random(dim))
    coherent = np.outer(psi, psi.conj()) / weights.sum()
    if draw(st.booleans()):
        rho = coherent
    else:
        rho = np.diag(np.diag(coherent))
    return model, rho, rng, isolated


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=cancelling_models())
def test_sector_block_matches_the_full_space_route(case):
    model, rho, rng, isolated = case
    assert model.dim > 24  # the sparse size: equilibrate steps it implicitly
    sector = assert_block_matches_oracle(model, rho, rng)
    d = model.dim
    if isolated and rho[0, 2] != 0:
        # the cancelled entries were (0, 2)'s only link to (1, 3)
        assert 0 * d + 2 in sector and 1 * d + 3 not in sector


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=cancelling_models())
def test_sector_block_evaluates_the_generator_once(case):
    # a relabelled sector filters the entries already evaluated; the
    # oracle route builds its generator without _Terms
    model, rho, rng, isolated = case
    evaluated = []
    entries = _Terms.entries

    def spy(terms, flat):
        evaluated.append(flat.size)
        return entries(terms, flat)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Terms, "entries", spy)
        sector = assert_block_matches_oracle(model, rho, rng)
    assert len(evaluated) == 1
    if isolated and rho[0, 2] != 0:
        # the cancellation split the structural component
        assert 1 * model.dim + 3 not in sector


# each draw takes two dense SVDs of blocks up to 961 x 961, about 0.6 s;
# six draws hold both gadget layouts, unique and degenerate null spaces
@settings(max_examples=6, deadline=None, derandomize=True)
@given(case=cancelling_models())
def test_steady_state_through_exact_cancellations(case):
    # steady_state relabels the nonzeros through the same branch as the
    # sector; the oracle labels the full-space sparse generator's nonzeros
    model = case[0]
    try:
        expected = reference_block_steady_state(model)
    except DegenerateSteadyStateError as error:
        with pytest.raises(DegenerateSteadyStateError, match=re.escape(str(error))):
            steady_state(model)
    else:
        assert steady_state(model).tobytes() == expected.tobytes()


@pytest.mark.parametrize("fock_dim", [3, 4])
@pytest.mark.parametrize(
    "spec",
    [
        ReservoirSpec.thermal(2 * np.pi * 1e-4, 0.8),
        ReservoirSpec.squeezed_thermal(2 * np.pi * 1e-4, 0.4, 0.5),
    ],
    ids=["thermal", "squeezed"],
)
def test_no_full_graph_is_labelled(spec, fock_dim, monkeypatch):
    # without cancellations both routes label only the small graphs of
    # _Terms.blocks: the pattern's d vertices and the q^2 blocks
    model = full_joint_model(match_rabi_frequencies(spec, 0.01, 2 * np.pi), fock_dim)
    sizes = []
    components = lindblad_module._components

    def spy(rows, cols, n):
        sizes.append(n)
        return components(rows, cols, n)

    monkeypatch.setattr(lindblad_module, "_components", spy)
    rho = np.zeros((model.dim, model.dim), dtype=complex)
    rho[0, 0] = 1.0
    for solve in (steady_state, lambda model: _sector_block(model, rho)):
        sizes.clear()
        solve(model)
        assert max(sizes) < model.dim**2
        assert len(sizes) == 2 and sizes[0] == model.dim


@pytest.mark.parametrize("fock_dim", [6, 8])
@pytest.mark.parametrize("panel", ["fig2a", "fig2b", "fig2c"])
def test_shipped_joint_bath_models(panel, fock_dim, monkeypatch):
    solves = []

    def spy(model, rho0, **kwargs):
        solves.append((model, rho0, kwargs, equilibrate(model, rho0, **kwargs)))
        return solves[-1][-1]

    monkeypatch.setattr(cycle_module, "equilibrate", spy)
    cycle = load_config(CONFIG_DIR / f"{panel}.json").cycle
    prepare_bath_equilibria(replace(cycle, fock_dim=fock_dim))
    assert len(solves) == 2
    rng = np.random.default_rng(fock_dim)
    for model, rho0, kwargs, report in solves:
        sector = assert_block_matches_oracle(model, rho0, rng)
        assert report.method == "implicit" and report.sector_dim == sector.size
        reference = reference_window_loop(model, rho0, **kwargs)
        assert report.final_state.tobytes() == reference.final_state.tobytes()
        assert report.rhs_residual == reference.rhs_residual
        assert report.windows == reference.windows


def test_sector_holds_the_transpose_of_the_start_state():
    # Hermitian only within tolerance: rho[0, 16] != 0 == rho[16, 0]
    settings = match_rabi_frequencies(
        ReservoirSpec.thermal(2 * np.pi * 1e-4, 0.4), 0.01, 2 * np.pi
    )
    model = box_joint_model(settings, 4)
    d = model.dim
    vac = vacuum_state(4)
    electron = np.diag([0.5, 0.5]).astype(complex)
    electron[0, 1] = 1e-12
    rho = kron(electron, vac, vac)
    sector, block = _sector_block(model, rho)
    rows, cols = np.nonzero(rho)
    assert np.isin(cols * d + rows, sector).all()
    # so the windows' re-symmetrized states stay on the sector, where
    # rhs_residual reads L rho, relative to the block's largest entry
    report = equilibrate(model, rho)
    outside = np.ones(d * d, dtype=bool)
    outside[sector] = False
    assert report.sector_dim == sector.size
    assert not report.final_state.reshape(-1)[outside].any()
    full = reference_liouvillian(model, sparse=True).dot(report.final_state.reshape(-1))
    assert report.rhs_residual == float(np.abs(full).max()) / float(abs(block).max())
