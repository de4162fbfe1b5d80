"""Property: the full mode's window model is the box model sliced, bit for bit.

:func:`ionotto.reservoirs.full_joint_model` builds the joint model of the
electron and the two motional modes on the excitation window n_x + n_y <
n_max, electron-major, with the window states in box order (n_x major).
The reference, ``oracles.box_joint_model``, builds it on the whole box
(2, n_max, n_max).  Sliced to the window with ``np.ix_``, its Hamiltonian
and channel operators must have the window model's bytes, and its rates
and ``slow_rate`` must equal the window model's.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ionotto.reservoirs import ReservoirSpec, full_joint_model, match_rabi_frequencies
from oracles import box_joint_model

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


def joint_window(n_max: int) -> np.ndarray:
    """Box indices of the joint states (electron, n_x, n_y) with n_x + n_y
    < n_max, electron-major and in box order within each electron state."""
    window = [nx * n_max + ny for nx in range(n_max) for ny in range(n_max) if nx + ny < n_max]
    return np.array([e * n_max**2 + i for e in range(2) for i in window])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    spec=SPECS,
    lamb=st.floats(min_value=1e-3, max_value=0.3),
    kappa=st.floats(min_value=1e-2, max_value=1e2),
    n_max=st.integers(min_value=2, max_value=8),
)
@pytest.mark.filterwarnings("ignore:kappa /:RuntimeWarning")
def test_window_model_is_the_sliced_box(spec, lamb, kappa, n_max):
    matched = match_rabi_frequencies(spec, lamb, kappa)
    model = full_joint_model(matched, n_max)
    box = box_joint_model(matched, n_max)
    joint = joint_window(n_max)
    kept = np.ix_(joint, joint)
    assert model.dim == n_max * (n_max + 1)
    assert model.hamiltonian.tobytes() == box.hamiltonian[kept].tobytes()
    assert len(model.channels) == len(box.channels) == 2
    for (rate, op), (box_rate, box_op) in zip(model.channels, box.channels):
        assert rate == box_rate
        assert op.tobytes() == box_op[kept].tobytes()
    assert model.slow_rate == box.slow_rate
