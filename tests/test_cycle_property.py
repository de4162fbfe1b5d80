"""Properties: the first law and the Otto bound over random valid cycles.

Closed-form rows close the first law to rounding, and with positive
temperatures (thermal or squeezed hot bath) an engine row never beats
the Otto efficiency: eta <= eta_otto reduces to (1 - s)(T_c + T_h) >= 0
with s = 1 - 2 xi.  Effective rows book the first-law defect as the
energy of the cooled state minus that of the start, which the cycle
closure (their largest entrywise distance) bounds.  Full rows at small
``fock_dim`` close the first law and keep the Otto bound too, and their
bath endpoints are the effective baths' steady states.  The stroke engine
books the closed form's analytic endpoints to the per-stroke formulas of
``oracles.closed_form_thermo`` within rounding, and its gap energy reads
the populations with the bits of the sigma_z expectation.

The second law holds on every row: with each bath's beta read from its
endpoint state, the entropy production of ``oracles.entropy_production``
is nonnegative, the effective rows' equals the closed form's, and no
engine row beats the generalized bound 1 - beta_h / beta_c, which the
squeezed panel's efficiencies past the ``eta_carnot`` column obey.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ionotto.cycle import (
    CycleConfig,
    Regime,
    _gap_energy,
    prepare_bath_equilibria,
    run_cycle_closed_form,
    run_cycle_effective,
    run_cycle_effective_grid,
    run_cycle_full,
)
from ionotto.lindblad import expectation
from ionotto.operators import sigma_z
from ionotto.reservoirs import BathKind, ReservoirSpec, bath_steady_state
from ionotto.sweep import load_config
from oracles import closed_form_thermo, entropy_production
from panels import CONFIG_DIR, PANELS

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
    states = bath_steady_state(config.cold), bath_steady_state(config.hot)
    for x in [xi, *(k / 20 for k in range(21))]:
        result = run_cycle_closed_form(config, x)
        assert abs(result.energies.first_law_defect) <= 1e-12
        if config.hot.kind is not BathKind.NEGATIVE_TEMPERATURE:
            if result.efficiency is not None:
                assert result.efficiency <= result.eta_otto + 1e-12
        sigma, bound = entropy_production(config, result, *states)
        assert sigma >= -1e-12
        # with beta_h < 0 the bound exceeds 1 and holds by itself
        if result.regime is Regime.HEAT_ENGINE:
            assert result.efficiency <= bound + 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=cycle_configs(), xi=XIS)
def test_closed_form_books_the_analytic_energies(config, xi):
    # the energies reach R = omega_h / omega_c, so rounding scales with it:
    # one draw here books 1.37 two ulps (4.4e-16) off the formula; 40000
    # random cycles stayed within 3.2e-16 R
    tol = 4e-16 * config.frequency_ratio
    for x in [xi, *(k / 20 for k in range(21))]:
        energies = run_cycle_closed_form(config, x).energies
        expected = closed_form_thermo(config, x)
        for name in ("w_expansion", "w_compression", "q_hot", "q_cold"):
            assert abs(getattr(energies, name) - getattr(expected, name)) <= tol


TINY = st.floats(min_value=-1e-10, max_value=1e-10)


@st.composite
def near_states(draw):
    """Hermitian 2 x 2 matrices with off-diagonals up to 1e-10 and a trace
    within 1e-10 of 1, as the bath strokes leave them."""
    p_g = draw(st.floats(min_value=0.0, max_value=1.0))
    coherence = complex(draw(TINY), draw(TINY))
    p_e = 1.0 - p_g + draw(TINY)
    return np.array([[p_g, coherence], [coherence.conjugate(), p_e]], dtype=complex)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(rho=near_states(), gap=st.floats(min_value=0.5, max_value=8.0))
def test_gap_energy_has_the_bits_of_the_sigma_z_expectation(rho, gap):
    energy = _gap_energy(rho, gap)
    assert type(energy) is float
    assert energy.hex() == float(0.5 * gap * expectation(sigma_z(), rho)).hex()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=cycle_configs(), xi=XIS)
def test_effective_first_law_bounded_by_closure(config, xi):
    result = run_cycle_effective(config, xi)
    closure = result.diagnostics["cycle_closure"]
    assert closure < 1e-8
    assert abs(result.energies.first_law_defect) <= closure + 1e-14
    states = bath_steady_state(config.cold), bath_steady_state(config.hot)
    sigma, _ = entropy_production(config, result, *states)
    closed, _ = entropy_production(config, run_cycle_closed_form(config, xi), *states)
    assert abs(sigma - closed) <= 1e-8


# up to 2 pi 5e-5 every draw's regime ratio stays above the adiabatic
# floor, where the joint endpoints may be held to the effective baths'
# steady states
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
    states = equilibria.cold_state, equilibria.hot_state
    for x in [xi, *(k / 20 for k in range(21))]:
        result = run_cycle_full(config, x, equilibria)
        assert abs(result.energies.first_law_defect) <= 1e-12
        if config.hot.kind is not BathKind.NEGATIVE_TEMPERATURE:
            if result.efficiency is not None:
                assert result.efficiency <= result.eta_otto + 1e-12
        assert entropy_production(config, result, *states)[0] >= -1e-12
    # the truncation error of the joint solve shrinks with fock_dim; a
    # squeezed bath's joint endpoint differs at criterion 3's 1e-2
    diagonal_tol = 1e-11 if config.fock_dim == 4 else 1e-13
    for spec, state in (
        (config.cold, equilibria.cold_state),
        (config.hot, equilibria.hot_state),
    ):
        tol = 1e-2 if spec.kind is BathKind.SQUEEZED_THERMAL else diagonal_tol
        assert np.abs(state - bath_steady_state(spec)).max() <= tol


@pytest.mark.parametrize("name", PANELS)
def test_shipped_rows_produce_entropy(name):
    # measured minima: 3.006e-2 (fig2a), 6.388e-1 (fig2b), 1.073e-2 (fig2c;
    # 1.071e-2 on its full rows, whose betas come from the joint endpoints)
    sweep = load_config(CONFIG_DIR / f"{name}.json")
    config, grid = sweep.cycle, sweep.xi_grid
    analytic = bath_steady_state(config.cold), bath_steady_state(config.hot)
    equilibria = prepare_bath_equilibria(config)
    joint = equilibria.cold_state, equilibria.hot_state
    rows = [(run_cycle_closed_form(config, xi), analytic) for xi in grid]
    rows += [(row, analytic) for row in run_cycle_effective_grid(config, grid)]
    rows += [(run_cycle_full(config, xi, equilibria), joint) for xi in grid]
    for result, states in rows:
        assert entropy_production(config, result, *states)[0] >= 0, result
