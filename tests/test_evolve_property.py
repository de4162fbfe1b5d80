"""Property: ``evolve`` matches the plain reference loop bit for bit.

Random valid bath specs of all three kinds, at cold-bath and hot-bath
occupations, from random diagonal and coherent two-level starts, over
random fractions of the equilibration window.  The integrator's short
sums (``_total``) equal ``np.add.reduce`` bit for bit.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ionotto.lindblad import _total, evolve
from ionotto.reservoirs import ReservoirSpec
from oracles import reference_evolve

GAMMAS = st.floats(min_value=1e-5, max_value=1e2)
OCCUPATIONS = st.floats(min_value=1e-3, max_value=5.0)
SPECS = st.one_of(
    st.builds(ReservoirSpec.thermal, GAMMAS, OCCUPATIONS),
    st.builds(
        ReservoirSpec.negative_temperature,
        GAMMAS,
        st.floats(min_value=0.5, max_value=1.0, exclude_min=True, exclude_max=True),
    ),
    st.builds(
        ReservoirSpec.squeezed_thermal,
        GAMMAS,
        OCCUPATIONS,
        st.floats(min_value=1e-3, max_value=1.5),
    ),
)
UNIT = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def starts(draw):
    """A diagonal state, or one whose coherence is a drawn fraction of the
    largest that keeps it positive."""
    p = draw(UNIT)
    rho = np.diag([1.0 - p, p]).astype(complex)
    if draw(st.booleans()):
        phase = np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        c = draw(UNIT) * math.sqrt(p * (1.0 - p)) * phase
        rho[0, 1], rho[1, 0] = c, np.conj(c)
    return rho


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    spec=SPECS,
    rho0=starts(),
    fraction=st.floats(min_value=1e-3, max_value=2.0),
)
def test_evolve_matches_reference_bits(spec, rho0, fraction):
    model = spec.bath_model
    t = fraction * 5.0 / model.slow_rate
    report = evolve(model, rho0, t)
    reference = reference_evolve(model, rho0, t)
    assert report.final_state.tobytes() == reference.final_state.tobytes()
    assert report.steps_taken == reference.steps_taken > 0
    assert report.max_trace_drift == reference.max_trace_drift
    assert report.min_eigenvalue == reference.min_eigenvalue


REALS = st.floats(allow_nan=False, width=64)


def same_bits(value, expected):
    return np.array(value).tobytes() == np.array(expected).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    values=st.one_of(
        st.lists(REALS, min_size=1, max_size=7),
        st.lists(st.complex_numbers(allow_nan=False), min_size=1, max_size=3),
    )
)
def test_short_sums_are_numpys(values):
    # below 8 real terms numpy adds left to right, and so does _total, in
    # Python numbers; builtin sum compensates from Python 3.12 on
    a = np.array(values)
    total = _total(a)
    assert type(total) is type(values[0])
    expected = np.add.reduce(a)
    if np.isnan(expected):  # inf - inf: both are nan, whatever their sign bit
        assert np.isnan(total)
    else:
        assert same_bits(total, expected)


@pytest.mark.parametrize("dtype", [float, complex])
def test_longer_sums_are_numpys_pairwise_ones(dtype):
    # from 8 real terms numpy sums in blocks, and left to right would lose
    # the seven 1s against 1e16 that the blocks keep
    terms = 8 if dtype is float else 4
    a = np.array([1e16] + [1.0] * (terms - 1), dtype=dtype)
    left_to_right = 0.0
    for value in a.tolist():
        left_to_right += value
    assert np.add.reduce(a) != left_to_right
    assert same_bits(_total(a), np.add.reduce(a))
    # one term fewer is summed left to right in Python numbers, without
    # compensation: the 1s stay lost
    assert type(_total(a[:-1])) is dtype
    assert same_bits(_total(a[:-1]), np.add.reduce(a[:-1]))
    assert _total(a[:-1]) == 1e16
