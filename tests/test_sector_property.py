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

``_Terms.blocks`` keeps the layout of its last call (support and labels
before any entry is evaluated) under a key of the model dim, the pattern
of H and every L^dag L, the nonzeros of each L and the seeds.  A model
solved on a kept layout returns the bits of a run from an empty store:
fig2a's two joint baths, and each cancelling draw with its sign twin,
whose entries do not cancel.  A layout that differs in one part of the
key alone is not reused.  Tests that count labellings start from an
empty store.
"""

import re

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
from oracles import (
    box_joint_model,
    reference_block_steady_state,
    reference_liouvillian,
    reference_state_sector,
    reference_window_loop,
)
from panels import PANELS, panel


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
        panel("fig2c").hot,
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
        # from an empty layout store: a kept layout labels nothing
        monkeypatch.setattr(_Terms, "_layout", None)
        solve(model)
        assert max(sizes) < model.dim**2
        assert len(sizes) == 2 and sizes[0] == model.dim


@pytest.mark.parametrize("fock_dim", [6, 8])
@pytest.mark.parametrize("name", PANELS)
def test_shipped_joint_bath_models(name, fock_dim, monkeypatch):
    solves = []

    def spy(model, rho0, **kwargs):
        solves.append((model, rho0, kwargs, equilibrate(model, rho0, **kwargs)))
        return solves[-1][-1]

    monkeypatch.setattr(cycle_module, "equilibrate", spy)
    prepare_bath_equilibria(panel(name, fock_dim=fock_dim))
    assert len(solves) == 2
    rng = np.random.default_rng(fock_dim)
    for model, rho0, kwargs, report in solves:
        sector = assert_block_matches_oracle(model, rho0, rng)
        assert report.method == "implicit" and report.sector_dim == sector.size
        reference = reference_window_loop(model, rho0, **kwargs)
        assert report.final_state.tobytes() == reference.final_state.tobytes()
        assert report.rhs_residual == reference.rhs_residual
        assert report.windows == reference.windows


def solved(solve, model):
    """The bytes of the arrays that ``solve(model)`` returns, or the text
    of its ``DegenerateSteadyStateError``."""
    try:
        result = solve(model)
    except DegenerateSteadyStateError as error:
        return str(error)
    if isinstance(result, np.ndarray):
        return result.tobytes()
    sector, block = result
    return [sector.tobytes()] + [
        getattr(block, name).tobytes() for name in ("data", "indices", "indptr")
    ]


def assert_reuse_keeps_bits(solve, models):
    """Each of ``models``, which share one layout, solved on the layout
    that the last of them left returns the bits of its run from an empty
    store, and derives no layout."""
    derived = []
    layout_of = _Terms._layout_of

    def spy(terms, seeds):
        derived.append(seeds)
        return layout_of(terms, seeds)

    with pytest.MonkeyPatch.context() as patch:
        expected = []
        for model in models:
            patch.setattr(_Terms, "_layout", None)
            expected.append(solved(solve, model))
        patch.setattr(_Terms, "_layout_of", spy)
        assert [solved(solve, model) for model in models] == expected
    assert derived == []


def joint_starts(name, fock_dim, monkeypatch):
    """(model, start state) of each joint bath solve of the panel ``name``."""
    solves = []

    def spy(model, rho0, **kwargs):
        solves.append((model, rho0))
        return equilibrate(model, rho0, **kwargs)

    monkeypatch.setattr(cycle_module, "equilibrate", spy)
    prepare_bath_equilibria(panel(name, fock_dim=fock_dim))
    return solves


def test_baths_of_one_pattern_share_a_layout(monkeypatch):
    # fig2a's thermal baths: one sparsity pattern, different entries, and
    # start states with the same nonzeros
    (cold, cold_start), (hot, hot_start) = joint_starts("fig2a", 4, monkeypatch)
    assert np.array_equal(cold_start != 0, hot_start != 0)
    assert not np.array_equal(cold.hamiltonian, hot.hamiltonian)
    for models in ((cold, hot), (hot, cold)):
        assert_reuse_keeps_bits(lambda m: _sector_block(m, cold_start), models)
        assert_reuse_keeps_bits(steady_state, models)


def test_a_layout_serves_its_own_key_alone(monkeypatch):
    # each pair's layouts differ in one part of the key alone: the seeds
    # (none, then some), other seeds, the pattern of H and every D, or the
    # nonzeros of an L (|0><1| + i |2><1| has the D pattern of |0><1|)
    d = 4
    lower = np.zeros((d, d), dtype=complex)
    lower[0, 1] = 1.0
    spread = lower.copy()
    spread[2, 1] = 1j
    h = np.diag(np.arange(1.0, d + 1.0)).astype(complex)
    coupled = h.copy()
    coupled[2, 3] = coupled[3, 2] = 0.5
    base = LindbladModel(h, ((1.0, lower), (0.5, lower.T)))
    ground = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
    coherent = ground.copy()
    coherent[0, 1] = coherent[1, 0] = 0.1
    pairs = [
        ((steady_state, base), (lambda m: _sector_block(m, ground), base)),
        ((lambda m: _sector_block(m, ground), base),
         (lambda m: _sector_block(m, coherent), base)),
        ((lambda m: _sector_block(m, ground), base),
         (lambda m: _sector_block(m, ground),
          LindbladModel(coupled, base.channels))),
        ((lambda m: _sector_block(m, ground), base),
         (lambda m: _sector_block(m, ground),
          LindbladModel(h, ((1.0, spread), (0.5, lower.T))))),
    ]
    for (first, stored), (second, model) in pairs:
        monkeypatch.setattr(_Terms, "_layout", None)
        expected = solved(second, model)
        monkeypatch.setattr(_Terms, "_layout", None)
        solved(first, stored)
        assert solved(second, model) == expected


def sign_twin(model):
    """``model`` with the second channel's (2, 3) entry negated: the same
    nonzero patterns, and the gadget's L (x) L^* terms add where those of
    ``model`` cancel to an exact zero."""
    (rate, first), (second_rate, second) = model.channels
    second = second.copy()
    second[2, 3] = -second[2, 3]
    return LindbladModel(
        model.hamiltonian, ((rate, first), (second_rate, second)), model.slow_rate
    )


@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=cancelling_models())
def test_a_kept_layout_relabels_per_model(case):
    # one layout serves both models, whose entries cancel differently; the
    # relabelling of exact zeros is each model's own
    model, rho, _, _ = case
    assert_reuse_keeps_bits(lambda m: _sector_block(m, rho), (model, sign_twin(model)))


# each model's steady state takes dense SVDs of blocks up to 961 x 961;
# with the gadget cut off, the model's cancellation splits a block
@settings(max_examples=2, deadline=None, derandomize=True)
@given(case=cancelling_models().filter(lambda case: case[3]))
def test_a_kept_layout_keeps_the_steady_state_bits(case):
    model = case[0]
    assert_reuse_keeps_bits(steady_state, (model, sign_twin(model)))


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
