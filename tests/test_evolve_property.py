"""Property: ``evolve`` matches the plain reference loop bit for bit.

Random valid bath specs of all three kinds, at cold-bath and hot-bath
occupations, from random diagonal and coherent two-level starts, over
random fractions of the equilibration window and at the tolerances the
library uses.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ionotto.lindblad import evolve
from ionotto.reservoirs import ReservoirSpec, electronic_bath_model
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


# (tol, atol) of equilibrate's rk windows, and evolve's defaults
TOLERANCES = st.sampled_from([(1e-9, 1e-12), (1e-9, None), (1e-6, None)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    spec=SPECS,
    rho0=starts(),
    fraction=st.floats(min_value=1e-3, max_value=2.0),
    tolerances=TOLERANCES,
)
def test_evolve_matches_reference_bits(spec, rho0, fraction, tolerances):
    model = electronic_bath_model(spec)
    t = fraction * 5.0 / model.slow_rate
    tol, atol = tolerances
    report = evolve(model, rho0, t, tol, atol=atol)
    reference = reference_evolve(model, rho0, t, tol, atol=atol)
    assert report.final_state.tobytes() == reference.final_state.tobytes()
    assert report.steps_taken == reference.steps_taken > 0
    assert report.max_trace_drift == reference.max_trace_drift
    assert report.min_eigenvalue == reference.min_eigenvalue
