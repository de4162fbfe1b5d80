"""Property: lanes of one Dormand-Prince loop get the bits of single runs,
and a single lane gets the bits of the plain reference loop.

Random models of dim 1-4 (a Hermitian Hamiltonian and one to three dense
channels) with 1-9 start states each.  A start may be the model's
stationary state, which passes the first window and whose oversized first
step is rejected, or a random pure, mixed or diagonal state, which takes
several windows.  ``_dormand_prince`` on the stacked starts must return,
per lane, the state bytes, step count and trace drift of ``evolve``;
``equilibrate_lanes`` must return ``equilibrate``'s report field for
field, or raise when a single run raises, and refuse a model whose window
is stiff, which ``equilibrate`` steps implicitly.  On models of dim 1-5,
``evolve`` and a one-lane ``equilibrate_lanes`` run must match
``reference_evolve`` and its windows: dim 1 and 2 add their norms and
trace in Python floats, dim 3 only its trace, and dim 4 and 5 neither.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ionotto.lindblad import (
    DegenerateSteadyStateError,
    EquilibrationError,
    LindbladModel,
    _dormand_prince,
    _slowest_window,
    _stepper,
    equilibrate,
    equilibrate_lanes,
    evolve,
    steady_state,
)
from oracles import reference_evolve

START_KINDS = ("stationary", "pure", "mixed", "diagonal")


def random_state(rng, dim, kind, model):
    if kind == "stationary" and dim > 1:
        try:
            return steady_state(model)
        except DegenerateSteadyStateError:
            kind = "mixed"
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if kind == "pure":
        a[:, 1:] = 0.0
    elif kind == "diagonal":
        a = np.diag(np.abs(np.diag(a)) + 0.1)
    rho = a @ a.conj().T
    return (rho / np.trace(rho)).astype(complex)


@st.composite
def lane_cases(draw, max_dim=4):
    """A model of dim 1 to ``max_dim`` whose slow rate is its spectral gap,
    and the start states of its lanes."""
    # the dimension follows the seed, which hypothesis draws about evenly,
    # so every dimension comes up (a drawn integer in 1..max_dim came out
    # uneven: dim 2 once in 40 examples, the 2 x 2 of every shipped row)
    seed = draw(st.integers(0, 2**32 - 1))
    dim = 1 + seed % max_dim
    rng = np.random.default_rng(seed)
    half = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    channels = tuple(
        (
            draw(st.sampled_from([0.5, 1.0, 2.0])),
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
        )
        for _ in range(draw(st.integers(1, 3)))
    )
    hamiltonian = 0.5 * (half + half.conj().T)
    rates = -np.linalg.eigvals(LindbladModel(hamiltonian, channels).generator).real
    gap = rates[rates > 1e-9].min() if (rates > 1e-9).any() else 1.0
    model = LindbladModel(hamiltonian, channels, slow_rate=float(gap))
    kinds = draw(st.lists(st.sampled_from(START_KINDS), min_size=1, max_size=9))
    starts = [random_state(rng, dim, kind, model) for kind in kinds]
    return model, starts


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    case=lane_cases(),
    fraction=st.floats(min_value=1e-3, max_value=2.0),
)
def test_lanes_match_single_evolve(case, fraction):
    model, starts = case
    t = fraction * 5.0 / model.slow_rate
    lanes = np.stack([rho.reshape(-1) for rho in starts])
    results = _dormand_prince(model.generator, lanes, t)
    assert len(results) == len(starts)
    for rho, (final, lane_steps, drift) in zip(starts, results):
        single = evolve(model, rho, t)
        assert final.tobytes() == single.final_state.tobytes()
        assert lane_steps == single.steps_taken > 0
        assert drift == single.max_trace_drift
        assert float(np.linalg.eigvalsh(final).min()) == single.min_eigenvalue


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=lane_cases())
def test_lanes_match_single_equilibrate(case):
    model, starts = case
    if _stepper(model) != "rk":
        with pytest.raises(ValueError, match="stiff"):
            equilibrate_lanes(model, starts)
        return
    singles = []
    for rho in starts:
        try:
            singles.append(equilibrate(model, rho))
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            singles.append(exc)
    failures = [type(s) for s in singles if isinstance(s, Exception)]
    if failures:
        with pytest.raises(tuple(failures)):
            equilibrate_lanes(model, starts)
        return
    reports = equilibrate_lanes(model, starts)
    assert len(reports) == len(starts)
    for report, single in zip(reports, singles):
        assert report.final_state.tobytes() == single.final_state.tobytes()
        for field in report.__dataclass_fields__:
            if field != "final_state":
                assert getattr(report, field) == getattr(single, field), field


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    case=lane_cases(max_dim=5),
    fraction=st.floats(min_value=1e-3, max_value=2.0),
)
def test_one_lane_matches_the_reference_loop(case, fraction):
    model, starts = case
    t = fraction * 5.0 / model.slow_rate
    for rho in starts:
        report = evolve(model, rho, t)
        reference = reference_evolve(model, rho, t)
        assert report.final_state.tobytes() == reference.final_state.tobytes()
        assert report.steps_taken == reference.steps_taken
        assert report.max_trace_drift == reference.max_trace_drift
        assert report.min_eigenvalue == reference.min_eigenvalue
    if _stepper(model) != "rk":
        return
    # a one-lane equilibrate_lanes run against its windows, one by one
    dt = _slowest_window(model)
    for rho in starts:
        try:
            (lane,) = equilibrate_lanes(model, [rho])
        except EquilibrationError:
            continue
        steps, drift = 0, 0.0
        for _ in range(lane.windows):
            window = reference_evolve(model, rho, dt)
            rho = window.final_state
            steps += window.steps_taken
            drift = max(drift, window.max_trace_drift)
        assert lane.final_state.tobytes() == rho.tobytes()
        assert lane.steps_taken == steps
        assert lane.max_trace_drift == drift
        assert lane.min_eigenvalue == window.min_eigenvalue
