"""Property: the start-state check rejects exactly where ``eigvalsh`` does.

``_check_state`` reads a diagonal state's smallest eigenvalue from its
real diagonal and sends every other state through ``np.linalg.eigvalsh``.
The draws reach the eigenvalue test (finite, Hermitian and unit trace
within 1e-10): diagonal and non-diagonal states of dim 1 to 72, the
joint models' largest, with entries from 1e-40 to 1, entries on both
sides of the bound -1e-10, signed zeros on and off the diagonal, and
imaginary diagonal parts within the Hermitian tolerance.  The check must
accept where ``eigvalsh(rho).min() >= -1e-10``, and otherwise reject with
that value in its message.  On a diagonal draw, ``eigvalsh``'s smallest
value is the real diagonal's, bit for bit.
"""

import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ionotto.lindblad import _check_state

BOUND = -1e-10
# entries at and around the bound, and both zeros
EDGES = [
    BOUND,
    np.nextafter(BOUND, 0.0),
    np.nextafter(BOUND, -1.0),
    1.5 * BOUND,
    0.5 * BOUND,
    -0.0,
    0.0,
]


@st.composite
def states(draw):
    """A state that passes every check before the eigenvalue test, and
    whether it is diagonal."""
    dim = draw(st.integers(1, 72))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # magnitudes from 1e-40 to 1, with some entries on the bound's edges
    diagonal = 10.0 ** rng.uniform(-40.0, 0.0, dim)
    edges = rng.random(dim) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    diagonal[edges] = rng.choice(EDGES, edges.sum())
    diagonal /= max(diagonal.sum(), 1.0)
    diagonal[0] += 1.0 - diagonal.sum()
    rho = np.diag(diagonal).astype(complex)
    if draw(st.booleans()):
        # Hermitian within tolerance: the defect 2 |imag| stays below 1e-10
        rho[np.diag_indices(dim)] += 1j * rng.uniform(-5e-11, 5e-11, dim) / dim
    coupling = draw(st.sampled_from([None, -0.0, 1e-12, 1e-6, 1e-2]))
    if coupling is not None and dim > 1:
        i, j = sorted(rng.choice(dim, 2, replace=False))
        phase = np.exp(2j * np.pi * rng.random())
        value = complex(-0.0, -0.0) if coupling == 0 else coupling * phase
        rho[i, j], rho[j, i] = value, np.conj(value)
    diagonal_state = np.count_nonzero(rho - np.diag(rho.diagonal())) == 0
    return rho, diagonal_state


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=states())
def test_check_state_rejects_where_eigvalsh_does(case):
    rho, diagonal_state = case
    dim = rho.shape[0]
    smallest = float(np.linalg.eigvalsh(rho).min())
    if diagonal_state:
        assert smallest == float(rho.diagonal().real.min())
    if smallest < BOUND:
        message = f"initial state has negative eigenvalue {smallest:.3e}"
        with pytest.raises(ValueError, match=re.escape(message)):
            _check_state(rho, dim)
    else:
        assert _check_state(rho, dim).tobytes() == rho.tobytes()
