"""Property: the block-wise ``steady_state`` agrees with one dense SVD,
and bit for bit with the full-space block route.

Random electronic bath models of all three kinds, thermal and squeezed
effective mode models at fock 3-12, and small random models whose
channels may be sparse, disconnected or switched off.  Either both
solvers report a degenerate null space, or their states agree within
1e-12.

``steady_state`` assembles each block from the generator's terms.
``oracles.reference_block_steady_state`` labels the blocks from the
nonzeros of the full-space sparse reference generator and cuts each one
from it; on the models above, on ladder models past the dense size (dim
25-28), on the shipped bath models, the fock-20 mode models and a dim-32
joint model, the two return the same bytes or the same degeneracy.
"""

import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ionotto.lindblad import (
    _DENSE_MAX_DIM,
    DegenerateSteadyStateError,
    LindbladModel,
    steady_state,
)
from ionotto.oscillator import effective_mode_model, match_rabi_for_mode
from ionotto.reservoirs import ReservoirSpec, match_rabi_frequencies
from oracles import (
    box_joint_model,
    reference_block_steady_state,
    reference_steady_state,
)
from panels import PANELS, mode_model, panel

TWO_PI = 2 * math.pi
GAMMAS = st.floats(min_value=1e-5, max_value=1e2)
OCCUPATIONS = st.floats(min_value=1e-3, max_value=5.0)
SQUEEZINGS = st.floats(min_value=1e-3, max_value=1.5)

BATH_SPECS = st.one_of(
    st.builds(ReservoirSpec.thermal, GAMMAS, OCCUPATIONS),
    st.builds(
        ReservoirSpec.negative_temperature,
        GAMMAS,
        st.floats(min_value=0.5, max_value=1.0, exclude_min=True, exclude_max=True),
    ),
    st.builds(ReservoirSpec.squeezed_thermal, GAMMAS, OCCUPATIONS, SQUEEZINGS),
)

# Mode rates up to 2 pi 2.5e-4 against electronic decays of 2 pi 10 keep
# gamma / (lambda max Omega) = sqrt(gamma / (rate (1 + n))) / cosh(r)
# above 60 for n <= 3 and r <= 1: the matching raises no adiabatic-ratio
# warning.
GAMMA_E = TWO_PI * 10
MODE_RATES = st.floats(min_value=TWO_PI * 1e-6, max_value=TWO_PI * 2.5e-4)
MODE_OCCUPATIONS = st.floats(min_value=1e-2, max_value=3.0)
MODE_SPECS = st.one_of(
    st.builds(ReservoirSpec.thermal, MODE_RATES, MODE_OCCUPATIONS),
    st.builds(
        ReservoirSpec.squeezed_thermal,
        MODE_RATES,
        MODE_OCCUPATIONS,
        st.floats(min_value=1e-2, max_value=1.0),
    ),
)


@st.composite
def mode_models(draw):
    spec = draw(MODE_SPECS)
    lamb = draw(st.floats(min_value=1e-3, max_value=0.1))
    matched = match_rabi_for_mode(spec, lamb, GAMMA_E, GAMMA_E)
    return effective_mode_model(spec, matched, draw(st.integers(3, 12)))


# Entries from a small grid, zero more often than not: the null spaces
# are then exact, away from the n eps null threshold, and the condition
# numbers stay moderate.
GRID = st.sampled_from([0.0, 0.0, 0.0, 0.0, 0.5, 1.0, -1.0, 2.0])


@st.composite
def sparse_matrices(draw, groups):
    """A sparse matrix, a diagonal one or (twice as often) a single jump
    |i><j|; half of them only couple levels of one group."""
    dim = groups.size
    shape = draw(st.sampled_from(["sparse", "diagonal", "jump", "jump"]))
    if shape == "jump":
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        mat = np.zeros((dim, dim), dtype=complex)
        mat[i, j] = draw(st.sampled_from([0.5, 1.0, 2.0]))
    else:
        size = dim * dim
        re = np.array(draw(st.lists(GRID, min_size=size, max_size=size)))
        im = np.array(draw(st.lists(GRID, min_size=size, max_size=size)))
        mat = (re + 1j * im).reshape(dim, dim)
        if shape == "diagonal":
            mat = np.diag(np.diag(mat))
    if draw(st.booleans()):
        mat[groups[:, None] != groups[None, :]] = 0.0
    return mat


@st.composite
def random_models(draw):
    """Models whose Hamiltonian and channels are sparse, may leave the
    levels in disconnected groups, and may carry rate zero; the channel
    count reaches 4 so that jump channels can connect every level."""
    dim = draw(st.integers(2, 4))
    groups = np.array(draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim)))
    h = draw(sparse_matrices(groups))
    channels = tuple(
        (draw(st.sampled_from([0.0, 0.3, 1.0, 2.5])), draw(sparse_matrices(groups)))
        for _ in range(draw(st.integers(1, 4)))
    )
    if all(rate == 0.0 for rate, _ in channels):
        channels += ((1.0, draw(sparse_matrices(groups))),)
    return LindbladModel(h + h.conj().T, channels)


@st.composite
def ladder_models(draw):
    """Models past the dense size: a diagonal Hamiltonian with, at times,
    couplings two levels apart, lowering and raising channels with grid
    amplitudes on the first off-diagonal, and at times a dephasing channel
    or a jump between two random levels.  Their blocks stay small enough
    for a dense SVD each."""
    dim = draw(st.integers(_DENSE_MAX_DIM + 1, 28))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = np.diag(rng.choice([0.0, 0.5, 1.0, -1.0], dim)).astype(complex)
    if draw(st.booleans()):
        pair = np.diag(rng.choice([0.0, 0.5, 1.0], dim - 2), 2)
        h += pair + pair.T
    rates = st.sampled_from([0.0, 0.3, 1.0, 2.5])
    lower = np.diag(rng.choice([0.5, 1.0, 2.0], dim - 1), 1).astype(complex)
    channels = [(draw(rates), lower), (draw(rates), lower.T.copy())]
    if draw(st.booleans()):
        dephasing = np.diag(rng.choice([0.0, 1.0, -1.0], dim)).astype(complex)
        channels.append((draw(rates), dephasing))
    if draw(st.booleans()):
        jump = np.zeros((dim, dim), dtype=complex)
        jump[tuple(rng.integers(0, dim, 2))] = 1.0
        channels.append((draw(rates), jump))
    if all(rate == 0.0 for rate, _ in channels):
        channels[0] = (1.0, lower)
    return LindbladModel(h, tuple(channels))


def _solve(solver, model):
    try:
        return solver(model)
    except DegenerateSteadyStateError:
        return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    model=st.one_of(
        BATH_SPECS.map(lambda spec: spec.bath_model), mode_models(), random_models()
    )
)
def test_block_svd_matches_dense_svd(model):
    blockwise = _solve(steady_state, model)
    reference = _solve(reference_steady_state, model)
    assert (blockwise is None) == (reference is None)
    if blockwise is None:
        return
    assert np.abs(blockwise - reference).max() <= 1e-12


def assert_same_bytes(model):
    try:
        expected = reference_block_steady_state(model)
    except DegenerateSteadyStateError as exc:
        with pytest.raises(DegenerateSteadyStateError, match=re.escape(str(exc))):
            steady_state(model)
        return
    assert steady_state(model).tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    model=st.one_of(
        BATH_SPECS.map(lambda spec: spec.bath_model),
        mode_models(),
        random_models(),
    )
)
def test_blocks_from_terms_match_the_full_space_route(model):
    assert_same_bytes(model)


# blocks of a few hundred entries: each example takes a dense SVD of each
@settings(max_examples=12, deadline=None, derandomize=True)
@given(model=ladder_models())
def test_models_past_the_dense_size_match_the_full_space_route(model):
    assert model.dim > _DENSE_MAX_DIM
    assert_same_bytes(model)


def shipped_models():
    """The six shipped bath models, the fock-20 thermal and squeezed mode
    models and a fock-4 box joint model (dim 32)."""
    models = {}
    for name in PANELS:
        cycle = panel(name)
        models[f"{name}-cold"] = cycle.cold.bath_model
        models[f"{name}-hot"] = cycle.hot.bath_model
    for kind in ("thermal", "squeezed"):
        models[f"mode-{kind}-20"] = mode_model(kind, 20)
    spec = ReservoirSpec.thermal(TWO_PI * 1e-4, 0.8)
    models["joint-32"] = box_joint_model(match_rabi_frequencies(spec, 0.01, TWO_PI), 4)
    return models


SHIPPED = shipped_models()


@pytest.mark.parametrize("model", SHIPPED.values(), ids=SHIPPED.keys())
def test_shipped_models_match_the_full_space_route(model):
    assert_same_bytes(model)
