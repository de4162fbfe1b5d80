"""Property: the matching identity holds over random specs.

For any valid bath spec and any lambda and kappa in the adiabatic regime,
the Liouvillian of the laser channels that :func:`match_rabi_frequencies`
prescribes equals the Liouvillian of the target bath entry for entry, to
rounding.  ``ionotto validate`` prints this defect for the shipped
configs; here it is checked.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ionotto.lindblad import LindbladModel, liouvillian_matrix
from ionotto.operators import sigma_minus
from ionotto.reservoirs import (
    ADIABATIC_RATIO_FLOOR,
    ReservoirSpec,
    channels_from_settings,
    match_rabi_frequencies,
    sideband_weights,
)

GAMMAS = st.floats(min_value=1e-6, max_value=1e-1)
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    spec=SPECS,
    lamb=st.floats(min_value=1e-3, max_value=0.3),
    ratio=st.floats(min_value=ADIABATIC_RATIO_FLOOR, max_value=1e4),
)
def test_matched_channels_reproduce_the_bath(spec, lamb, ratio):
    # kappa / (lambda max Omega) = sqrt(kappa) / (largest sideband weight),
    # so this kappa puts the drawn ratio at the floor or above it
    kappa = (ratio * max(sideband_weights(spec))) ** 2 * (1 + 1e-12)
    matched = match_rabi_frequencies(spec, lamb, kappa)
    assert matched.regime_ratio >= ADIABATIC_RATIO_FLOOR
    target = spec.bath_model
    lasers = LindbladModel(
        target.hamiltonian, channels_from_settings(matched, sigma_minus())
    )
    expected = liouvillian_matrix(target)
    defect = np.abs(liouvillian_matrix(lasers) - expected).max()
    assert defect <= 1e-12 * max(1.0, float(np.abs(expected).max()))
