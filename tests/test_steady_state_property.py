"""Property: the block-wise ``steady_state`` agrees with one dense SVD.

Random electronic bath models of all three kinds, thermal and squeezed
effective mode models at fock 3-12, and small random models whose
channels may be sparse, disconnected or switched off.  Either both
solvers report a degenerate null space, or their states agree within
1e-12; on a generator that is a single block the two are bit-equal.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ionotto.lindblad import (
    DegenerateSteadyStateError,
    LindbladModel,
    _block_labels,
    steady_state,
)
from ionotto.oscillator import effective_mode_model, match_rabi_for_mode
from ionotto.reservoirs import ReservoirSpec
from oracles import reference_steady_state

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
# are then exact, away from the 1e-9 null threshold, and the condition
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
    if _block_labels(model.generator).max() == 0:
        assert blockwise.tobytes() == reference.tobytes()
