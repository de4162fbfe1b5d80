"""Properties: the first law and the Otto bound over random valid cycles.

Closed-form rows close the first law to rounding, and with positive
temperatures (thermal or squeezed hot bath) an engine row never beats
the Otto efficiency: eta <= eta_otto reduces to (1 - s)(T_c + T_h) >= 0
with s = 1 - 2 xi.  Effective rows book the first-law defect as the
energy of the cooled state minus that of the start, which the cycle
closure (their largest entrywise distance) bounds.  Full rows at small
``fock_dim`` close the first law and keep the Otto bound too, and their
bath endpoints are the effective baths' steady states.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ionotto.cycle import (
    CycleConfig,
    prepare_bath_equilibria,
    run_cycle_closed_form,
    run_cycle_effective,
    run_cycle_full,
)
from ionotto.reservoirs import BathKind, ReservoirSpec, bath_steady_state

TWO_PI = 2 * math.pi
GAMMAS = st.floats(min_value=1e-5, max_value=1e-2).map(lambda g: TWO_PI * g)
OCCUPATIONS = st.floats(min_value=0.01, max_value=5.0)


@st.composite
def cycle_configs(
    draw, gammas=GAMMAS, occupations=OCCUPATIONS, max_r=1.5, fock_dims=st.just(6)
):
    """A valid cycle; half the draws put the hotter occupation on the hot
    bath, so that thermal hot baths also give engine rows."""
    cold_n, hot_n = draw(occupations), draw(occupations)
    if draw(st.booleans()):
        cold_n, hot_n = sorted((cold_n, hot_n))
    hot = draw(
        st.one_of(
            st.builds(ReservoirSpec.thermal, gammas, st.just(hot_n)),
            st.builds(
                ReservoirSpec.negative_temperature,
                gammas,
                st.floats(min_value=0.55, max_value=0.95),
            ),
            st.builds(
                ReservoirSpec.squeezed_thermal,
                gammas,
                st.just(hot_n),
                st.floats(min_value=0.05, max_value=max_r),
            ),
        )
    )
    ratio = draw(st.floats(min_value=1.05, max_value=4.0))
    return CycleConfig(
        omega_e_cold=TWO_PI * 1e6,
        omega_e_hot=ratio * TWO_PI * 1e6,
        lamb=0.01,
        kappa=TWO_PI,
        cold=ReservoirSpec.thermal(draw(gammas), cold_n),
        hot=hot,
        fock_dim=draw(fock_dims),
    )


XIS = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=cycle_configs(), xi=XIS)
def test_closed_form_first_law_and_otto_bound(config, xi):
    # the grid reaches the engine rows of a config whose drawn xi misses them
    for x in [xi, *(k / 20 for k in range(21))]:
        result = run_cycle_closed_form(config, x)
        assert abs(result.energies.first_law_defect) <= 1e-12
        if config.hot.kind is not BathKind.NEGATIVE_TEMPERATURE:
            if result.efficiency is not None:
                assert result.efficiency <= result.eta_otto + 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=cycle_configs(), xi=XIS)
def test_effective_first_law_bounded_by_closure(config, xi):
    result = run_cycle_effective(config, xi)
    closure = result.diagnostics["cycle_closure"]
    assert closure < 1e-8
    assert abs(result.energies.first_law_defect) <= closure + 1e-14


# above 2 pi 5e-5 a draw's regime ratio falls under the adiabatic floor,
# whose RuntimeWarning pytest turns into an error
FULL_GAMMAS = st.floats(min_value=1e-5, max_value=5e-5).map(lambda g: TWO_PI * g)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    config=cycle_configs(
        FULL_GAMMAS,
        st.floats(min_value=0.01, max_value=2.0),
        max_r=1.0,
        fock_dims=st.sampled_from([4, 5]),
    ),
    xi=XIS,
)
def test_full_first_law_otto_bound_and_endpoints(config, xi):
    equilibria = prepare_bath_equilibria(config)
    for x in [xi, *(k / 20 for k in range(21))]:
        result = run_cycle_full(config, x, equilibria)
        assert abs(result.energies.first_law_defect) <= 1e-12
        if config.hot.kind is not BathKind.NEGATIVE_TEMPERATURE:
            if result.efficiency is not None:
                assert result.efficiency <= result.eta_otto + 1e-12
    # the truncation error of the joint solve shrinks with fock_dim; a
    # squeezed bath's joint endpoint differs at criterion 3's 1e-2
    diagonal_tol = 1e-11 if config.fock_dim == 4 else 1e-13
    for spec, state in (
        (config.cold, equilibria.cold_state),
        (config.hot, equilibria.hot_state),
    ):
        tol = 1e-2 if spec.kind is BathKind.SQUEEZED_THERMAL else diagonal_tol
        assert np.abs(state - bath_steady_state(spec)).max() <= tol
