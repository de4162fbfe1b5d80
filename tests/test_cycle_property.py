"""Properties: the first law and the Otto bound over random valid cycles.

Closed-form rows close the first law to rounding, and with positive
temperatures (thermal or squeezed hot bath) an engine row never beats
the Otto efficiency: eta <= eta_otto reduces to (1 - s)(T_c + T_h) >= 0
with s = 1 - 2 xi.  Effective rows book the first-law defect as the
energy of the cooled state minus that of the start, which the cycle
closure (their largest entrywise distance) bounds.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ionotto.cycle import (
    CycleConfig,
    run_cycle_closed_form,
    run_cycle_effective,
)
from ionotto.reservoirs import BathKind, ReservoirSpec

TWO_PI = 2 * math.pi
GAMMAS = st.floats(min_value=1e-5, max_value=1e-2).map(lambda g: TWO_PI * g)
OCCUPATIONS = st.floats(min_value=0.01, max_value=5.0)


@st.composite
def cycle_configs(draw):
    """A valid cycle; half the draws put the hotter occupation on the hot
    bath, so that thermal hot baths also give engine rows."""
    cold_n, hot_n = draw(OCCUPATIONS), draw(OCCUPATIONS)
    if draw(st.booleans()):
        cold_n, hot_n = sorted((cold_n, hot_n))
    hot = draw(
        st.one_of(
            st.builds(ReservoirSpec.thermal, GAMMAS, st.just(hot_n)),
            st.builds(
                ReservoirSpec.negative_temperature,
                GAMMAS,
                st.floats(min_value=0.55, max_value=0.95),
            ),
            st.builds(
                ReservoirSpec.squeezed_thermal,
                GAMMAS,
                st.just(hot_n),
                st.floats(min_value=0.05, max_value=1.5),
            ),
        )
    )
    ratio = draw(st.floats(min_value=1.05, max_value=4.0))
    return CycleConfig(
        omega_e_cold=TWO_PI * 1e6,
        omega_e_hot=ratio * TWO_PI * 1e6,
        lamb=0.01,
        kappa=TWO_PI,
        cold=ReservoirSpec.thermal(draw(GAMMAS), cold_n),
        hot=hot,
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
