"""Master-equation integration and steady-state solvers.

The dissipator convention is fixed once for the whole package: a channel
``(rate, L)`` contributes

    (rate / 2) * (2 L rho L^dag - L^dag L rho - rho L^dag L)

to ``d rho / dt = -i [H, rho] + dissipators`` with hbar = 1 and every
angular frequency in rad/us.  All engineered-bath builders express their
channel lists in this convention, which is pinned down by the two-level
rate-balance fixed point p_e = n / (1 + 2 n) exercised in the tests.

States are vectorized row-major, so vec(A rho B) = (A kron B^T) vec(rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .operators import hermiticity_defect, is_hermitian

__all__ = [
    "LindbladModel",
    "EvolutionReport",
    "EquilibrationReport",
    "DegenerateSteadyStateError",
    "EquilibrationError",
    "IntegrationError",
    "liouvillian_matrix",
    "expectation",
    "evolve",
    "steady_state",
    "equilibrate",
    "equilibrate_lanes",
    "trace_norm",
]

# Largest model dimension with a (dense) generator.  Larger models (the
# joint ion models) are big and very sparse: ``equilibrate`` and
# ``steady_state`` assemble only blocks of their generator.
_DENSE_MAX_DIM = 24
# A dense model whose ``window_stiffness`` exceeds this is stiff: the joint
# and V models measure 5.9e4 or more, the effective ones at most 2.1e3.
_STIFF_WINDOW = 1e4
# Accepted-step budget of one ``evolve`` call.
_MAX_STEPS = 2_000_000
# Relative and absolute per-step error targets of every ``rk`` step.
_RK_RTOL = 1e-9
_RK_ATOL = 1e-12
# Window budgets of ``rk`` and ``implicit`` runs, and default window test.
_RK_WINDOWS = 8
_IMPLICIT_WINDOWS = 60
_CHANGE_TOL = 1e-8
# Equilibration windows last this many slowest relaxation times.
_WINDOW_SPAN = 5.0


class DegenerateSteadyStateError(RuntimeError):
    """The Liouvillian null space is not one dimensional."""


class EquilibrationError(RuntimeError):
    """The window test did not converge within the window budget."""


class IntegrationError(RuntimeError):
    """Non-finite entries appeared during integration (stiffness or
    parameter blow-up), or the step budget ran out."""


@dataclass(frozen=True)
class LindbladModel:
    """A Hamiltonian plus a list of (rate, collapse operator) channels.

    ``slow_rate`` is the slowest relaxation rate of the model, None or
    finite and > 0 with 5 / slow_rate finite: :func:`equilibrate` runs
    windows of 5 / slow_rate and needs it.  Builders that know the
    engineered bath parameters fill it in.

    The generator is built once per model, on first use, and cached; the
    model's arrays must therefore not be mutated after construction.
    """

    hamiltonian: np.ndarray
    channels: tuple[tuple[float, np.ndarray], ...]
    slow_rate: float | None = None

    def __post_init__(self) -> None:
        if self.slow_rate is not None and not (
            0.0 < self.slow_rate < math.inf
            and math.isfinite(_WINDOW_SPAN / float(self.slow_rate))
        ):
            raise ValueError(
                "slow_rate must be None or finite and > 0 with a finite window "
                f"{_WINDOW_SPAN:g} / slow_rate, got {self.slow_rate}"
            )
        h = np.asarray(self.hamiltonian, dtype=complex)
        # before the Hermiticity test, which nan entries would pass
        if not np.isfinite(h).all():
            raise ValueError("Hamiltonian has non-finite entries")
        defect = hermiticity_defect(h)
        if defect > 1e-10:
            raise ValueError(
                f"Hamiltonian is not Hermitian (max deviation {defect:.3e})"
            )
        chans = []
        for rate, op in self.channels:
            rate = float(rate)
            if not np.isfinite(rate) or rate < 0:
                raise ValueError(f"channel rate must be finite and >= 0, got {rate}")
            op = np.asarray(op, dtype=complex)
            if op.shape != h.shape:
                raise ValueError(
                    f"collapse operator shape {op.shape} does not match "
                    f"Hamiltonian shape {h.shape}"
                )
            if not np.isfinite(op).all():
                raise ValueError("collapse operator has non-finite entries")
            chans.append((rate, op))
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "channels", tuple(chans))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def generator(self) -> np.ndarray:
        """:func:`liouvillian_matrix`, built once."""
        return liouvillian_matrix(self)

    @cached_property
    def window_stiffness(self) -> float:
        """How many of its fastest time scales a window spans: 5 / slow_rate
        times the Gershgorin bound max_i sum_j |L_ij| of the generator."""
        return _slowest_window(self) * float(np.abs(self.generator).sum(axis=1).max())


@dataclass(frozen=True)
class EvolutionReport:
    """Outcome of one integration run; the hygiene fields are measured."""

    final_state: np.ndarray
    steps_taken: int
    max_trace_drift: float
    min_eigenvalue: float


@dataclass(frozen=True)
class EquilibrationReport:
    """Outcome of window-based relaxation toward the bath steady state."""

    final_state: np.ndarray
    method: str
    windows: int
    window_duration: float
    last_change: float
    max_trace_drift: float
    min_eigenvalue: float
    # max |L rho| over the largest |entry| of L (of its sector block when
    # the stepper solved one)
    rhs_residual: float
    steps_taken: int = 0
    # size of the vectorized system the stepper solved
    sector_dim: int = 0


def liouvillian_matrix(model: LindbladModel) -> np.ndarray:
    """Dense matrix of the generator acting on row-major vectorized states.

    -1j (H x I - I x H^T), then per channel + rate L x L^* - (rate / 2)
    (D x I + I x D^T), D = L^dag L, summed in this order without forming a
    Kronecker product x: index arithmetic on the nonzeros of H, L and D
    places the terms' support, and each term is evaluated there as x[i, j]
    y[k, l], as numpy's ``kron`` does.  A model past ``_DENSE_MAX_DIM``
    raises ``ValueError`` and builds nothing.
    """
    if model.dim > _DENSE_MAX_DIM:
        raise ValueError(
            f"no generator past model dim {_DENSE_MAX_DIM}, got {model.dim}: "
            "equilibrate() relaxes it with implicit windows and "
            "steady_state() solves it block by block"
        )
    n = model.dim**2
    terms = _Terms(model)
    support = terms.support()
    dense = np.zeros(n * n, dtype=complex)
    dense[support] = terms.entries(support)
    return dense.reshape(n, n)


class _Terms:
    """The generator's terms, H and each channel's rate, L and D = L^dag L,
    and the one assembly body of :func:`liouvillian_matrix`, of
    :func:`equilibrate`'s sector block and of :func:`steady_state`'s blocks,
    which both take the generator's split from :meth:`blocks`.

    ``pattern`` holds the nonzeros of H and of every D: x (x) I and I (x)
    x^T place x[i, j] at ((i, k), (j, k)) and ((k, j), (k, i)).  The
    nonzeros of ``pattern`` and of each L are read once, here.
    """

    # (key, support, labels) of the last layout :meth:`blocks` derived
    _layout: tuple | None = None

    def __init__(self, model: LindbladModel) -> None:
        self.d = model.dim
        self.h = model.hamiltonian
        self.channels = [
            (rate, op, op.conj().T @ op) for rate, op in model.channels if rate
        ]
        self.pattern = np.logical_or.reduce(
            [self.h != 0] + [x != 0 for *_, x in self.channels]
        )
        self.nonzeros = np.nonzero(self.pattern)
        self.links = [np.nonzero(op) for _, op, _ in self.channels]

    def support(self, inside: np.ndarray | None = None) -> np.ndarray:
        """Sorted flat indices row n + col of the union of the terms'
        structural nonzeros, in the rows that the boolean mask ``inside``
        over vectorized entries selects (all rows by default)."""
        d = self.d
        n = d * d
        rows = np.ones((d, d), dtype=bool) if inside is None else inside.reshape(d, d)
        i, j = self.nonzeros
        # rows (i d + k) of x (x) I, (k d + j) of I (x) x^T, (a d + a') of
        # L (x) L^* for nonzeros (a, b) and (a', b') of L
        p, k = np.nonzero(rows[i])
        t, r = np.nonzero(rows[:, j].T)
        flat = [[-1], (i[p] * n + j[p]) * d + k * (n + 1)]
        flat.append(r * (d * n + d) + j[t] * n + i[t])
        for a, b in self.links:
            p, r = np.nonzero(rows[np.ix_(a, a)])
            flat.append((a[p] * n + b[p]) * d + a[r] * n + b[r])
        flat = np.concatenate(flat)
        flat.sort()  # below every index, -1 makes each first occurrence differ
        return flat[1:][flat[1:] != flat[:-1]]

    def blocks(self, seeds: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """The one block rule of the package: the generator's exact
        nonzeros, as sorted flat indices row n + col and their values, and
        a component label for every vectorized entry, the components of
        the graph of those nonzeros (edges joined both ways).  They are the
        blocks of a weak symmetry: a thermal bath conserves the coherence
        order, a squeezed one the parity.  With ``seeds``, flat indices of
        vectorized entries, only the components that hold them are kept:
        the nonzeros are those of their rows, and every other entry is
        labelled -1.

        With c the components of ``pattern`` + ``pattern``^T, the terms
        x (x) I and I (x) x^T join every block c(i) x c(k) into one piece,
        and L (x) L^* joins block (c(i), c(k)) to (c(j), c(l)) for
        L[i, j] L[k, l] != 0.  So the support's components are read from
        that block graph, on q^2 vertices for q components of the pattern,
        and only the kept rows are placed and evaluated, once.  A
        structural entry can cancel to an exact zero and split a component;
        only then is the nonzero pattern labelled again, on n vertices, and
        the entries filtered to the kept rows.  Each entry is computed on
        its own, so the filtered arrays are those of an evaluation on the
        relabelled rows.

        The support and the labels before the entries are evaluated, the
        layout, follow from d, ``pattern``, the nonzeros of each L and
        ``seeds`` alone.  The last layout is kept (one, read-only), so
        baths that share a sparsity pattern derive it once and evaluate
        only their own entries; the relabelling stays per model.
        """
        n = self.d * self.d
        key = (
            self.d,
            self.pattern.tobytes(),
            tuple((a.tobytes(), b.tobytes()) for a, b in self.links),
            None if seeds is None else seeds.tobytes(),
        )
        stored = _Terms._layout  # read once: one tuple is one consistent layout
        if stored is not None and stored[0] == key:
            _, support, labels = stored
        else:
            support, labels = self._layout_of(seeds)
            support.flags.writeable = labels.flags.writeable = False
            _Terms._layout = (key, support, labels)
        data = self.entries(support)
        nonzero = data != 0
        if not nonzero.all():
            support, data = support[nonzero], data[nonzero]
            labels = _components(*np.divmod(support, n), n)
            if seeds is not None:
                # a kept row's columns are kept too
                labels = _kept(labels, seeds)
                rows = labels[support // n] >= 0
                support, data = support[rows], data[rows]
        return support, data, labels

    def _layout_of(self, seeds: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """The support and the component labels of :meth:`blocks`, read
        from the block graph, before any entry is evaluated."""
        comp = _components(*self.nonzeros, self.d)
        q = int(comp.max()) + 1
        # L (x) L^* joins blocks (A, A') -> (B, B'), numbered A q + A', for
        # links A -> B and A' -> B' of L between components
        tails, heads = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
        for i, j in self.links:
            joined = np.zeros((q, q), dtype=bool)
            joined[comp[i], comp[j]] = True
            a, b = np.nonzero(joined)
            tails.append(np.add.outer(a * q, a).ravel())
            heads.append(np.add.outer(b * q, b).ravel())
        labels = _components(np.concatenate(tails), np.concatenate(heads), q * q)
        block = np.add.outer(comp * q, comp).ravel()  # the block of each entry
        if seeds is not None:
            labels = _kept(labels, block[seeds])
        labels = labels[block]
        return self.support(None if seeds is None else labels >= 0), labels

    def entries(self, flat: np.ndarray) -> np.ndarray:
        """The generator at sorted flat indices taken from the support; each
        entry is computed on its own, so a subset gets the bits of the whole."""
        d, h, channels = self.d, self.h, self.channels
        n = d * d
        # x (x) y holds x[i, j] y[k, l] at (i d + k, j d + l); a factor I
        # gives one of its two entries there, picked by k == l (or by
        # i == j), so x (x) I holds x[i, j] times that entry, and I (x) x^T
        # holds x[l, k]
        quot, rem = np.divmod(np.arange(n), d)
        diagonal = (quot == rem).astype(np.intp)
        units = np.array([0j, 1 + 0j])
        liou = np.empty(flat.size, dtype=complex)
        for start in range(0, flat.size, 8192):  # runs that stay in cache
            part = liou[start : start + 8192]
            row, col = np.divmod(flat[start : start + 8192], n)
            ij, kl = quot[row] * d + quot[col], rem[row] * d + rem[col]
            lk = rem[col] * d + rem[row]
            eye_kl, eye_ij = units[diagonal[kl]], units[diagonal[ij]]
            np.subtract(h.ravel()[ij] * eye_kl, h.ravel()[lk] * eye_ij, out=part)
            part *= -1j
            for rate, op, opdop in channels:
                part += rate * (op.ravel()[ij] * op.ravel()[kl].conj())
                part -= (rate / 2.0) * (
                    opdop.ravel()[ij] * eye_kl + opdop.ravel()[lk] * eye_ij
                )
        return liou


def expectation(op: np.ndarray, rho: np.ndarray):
    """tr(op rho); returns a real scalar when ``op`` is Hermitian."""
    if op.shape != rho.shape or op.shape[0] != op.shape[1]:
        raise ValueError(f"shape mismatch: op {op.shape} vs state {rho.shape}")
    value = complex(np.einsum("ij,ji->", op, rho))
    if is_hermitian(op):
        if abs(value.imag) > 1e-9:
            raise ValueError(
                f"expectation of a Hermitian operator came out complex "
                f"(imag {value.imag:.3e})"
            )
        return value.real
    return value


def trace_norm(a: np.ndarray) -> float:
    """Trace norm (sum of singular values); uses eigvalsh when Hermitian."""
    if is_hermitian(a, tol=1e-8):
        return float(np.abs(np.linalg.eigvalsh(a)).sum())
    return float(np.linalg.svd(a, compute_uv=False).sum())


def _check_state(rho: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"state shape {rho.shape} does not match model dim {dim}")
    if not np.isfinite(rho).all():
        raise ValueError("initial state has non-finite entries")
    defect = hermiticity_defect(rho)
    if defect > 1e-10:
        raise ValueError(f"initial state is not Hermitian (deviation {defect:.3e})")
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"initial state trace is {tr}, expected 1")
    diagonal = rho.diagonal()
    if np.count_nonzero(rho) == np.count_nonzero(diagonal):
        # eigvalsh returns the real diagonal of a diagonal state, sorted
        min_eig = float(diagonal.real.min())
    else:
        min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < -1e-10:
        raise ValueError(f"initial state has negative eigenvalue {min_eig:.3e}")
    return rho


# Dormand-Prince 4(5) tableau with the first-same-as-last property.  The
# rows are cast to complex once: the stage products would cast them anyway.
# The fifth-order weights are the last row followed by a zero weight, so
# the last stage's state is the fifth-order solution.
_DP_A = [
    np.array(row, dtype=complex)
    for row in (
        [],
        [1 / 5],
        [3 / 40, 9 / 40],
        [44 / 45, -56 / 15, 32 / 9],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    )
]
# (stage, tableau row) of stages 1 to 6
_DP_STAGES = list(enumerate(_DP_A))[1:]
_DP_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
    dtype=complex,
)


# rtol, atol and 1/2 as 0-d arrays of the dtype each ufunc casts them to:
# the same values, without a scalar conversion per call
_RTOL_A = np.array(_RK_RTOL, dtype=float)
_ATOL_A = np.array(_RK_ATOL, dtype=float)
_HALF = np.array(0.5, dtype=complex)
# numpy's add.reduce adds fewer real terms than this (a complex entry is
# two) in one loop, left to right from 0.0, and more in blocks of 8
_SEQUENTIAL_TERMS = 8


def _total(a: np.ndarray):
    """``np.add.reduce(a)`` of the 1-D array ``a``, bit for bit.

    Below ``_SEQUENTIAL_TERMS`` real terms the entries are read with
    ``tolist()`` and added left to right in Python numbers, in numpy's own
    order, which is cheaper than the reduction call on a few entries.
    Builtin ``sum`` would not do: it compensates float sums from Python
    3.12 on.
    """
    if a.nbytes >= 8 * _SEQUENTIAL_TERMS:  # 8-byte real terms
        return np.add.reduce(a)
    total = 0.0
    for value in a.tolist():
        total += value
    return total


def _rms(v: np.ndarray, buf: np.ndarray) -> list[float]:
    """Root mean square of |v| along the last axis, one per lane: ``v`` is
    one lane (1-D) or lanes in rows; ``buf`` is real scratch of v's shape."""
    np.abs(v, buf)
    np.multiply(buf, buf, buf)
    if buf.ndim == 1:
        return [math.sqrt(_total(buf) / buf.size)]
    n = buf.shape[1]
    return [math.sqrt(total / n) for total in np.add.reduce(buf, axis=1).tolist()]


def _step_calls(gen, y, h, yi, k, err_vec, abs_y, scale):
    """The numpy calls of a :func:`_dormand_prince` step on the lanes of
    ``y``, bound once per batch.

    Returns ``attempt`` and the ``(function, operand, out)`` call of the
    generator product at ``y`` into ``k[0]``.  ``attempt()`` tries one
    step of size ``h`` from ``y``, whose moduli ``abs_y`` holds: the
    stages into ``k``, the fifth-order state into ``yi``, the error
    estimate into ``err_vec`` and its scale into ``scale``.

    A 1-D ``y`` is one lane, whose products are ``dot`` calls.  A 2-D
    ``y`` holds lanes in rows: ``np.matmul`` broadcasts the tableau rows
    over the lanes' k and the generator over their states, and per lane
    that is the BLAS call that ``dot`` makes on one lane.  The ufuncs take
    ``out`` positionally, which skips a keyword parse per call; numpy
    deprecates that for ``maximum`` alone.
    """
    if y.ndim == 1:
        apply = gen.dot
        stages = [(row.dot, k[:s], yi, apply, yi, k[s]) for s, row in _DP_STAGES]
        error, refresh = _DP_ERR.dot, (apply, y, k[0])
    else:
        apply = partial(np.matmul, gen)
        stages = [
            (partial(np.matmul, row), k[:, :s], yi)
            + (apply, yi[..., None], k[:, s, :, None])
            for s, row in _DP_STAGES
        ]
        error = partial(np.matmul, _DP_ERR)
        refresh = (apply, y[..., None], k[:, 0, :, None])
    # local names: the loop below runs once per step attempt
    multiply, add, absolute, maximum = np.multiply, np.add, np.abs, np.maximum
    rtol, atol = _RTOL_A, _ATOL_A

    def attempt() -> None:
        # every sum keeps the order of the plain expression in its comment
        for combine, ks, yi_out, derive, yi_in, k_out in stages:
            # yi = y + h * (k[:stage].T @ _DP_A[stage])
            combine(ks, out=yi_out)
            multiply(h, yi, yi)
            add(y, yi, yi)
            derive(yi_in, out=k_out)
        # y5 is the last stage's yi; err_vec = h * (k.T @ _DP_ERR)
        error(k, out=err_vec)
        multiply(h, err_vec, err_vec)
        # scale = atol + rtol * max(|y|, |y5|), non-finite where y5 is
        absolute(yi, scale)
        maximum(abs_y, scale, out=scale)
        multiply(rtol, scale, scale)
        add(atol, scale, scale)

    return attempt, refresh


def _control(err: float, time: float, h: float, steps: int, t: float):
    """Step control of one lane after an attempt of size ``h`` from
    ``time`` with scaled error norm ``err``.

    Returns whether the step is accepted, the lane's new time, its next
    step size (ending at ``t`` at the latest) and its accepted steps.
    """
    if not math.isfinite(err):
        raise IntegrationError(f"non-finite error estimate at t = {time:.6g}")
    accepted = err <= 1.0
    if accepted:
        time += h
        steps += 1
    if steps >= _MAX_STEPS:
        raise IntegrationError(
            f"step budget {_MAX_STEPS} exhausted at t = {time:.6g}; for long "
            "stiff relaxations use equilibrate()"
        )
    # h *= min(5.0, max(0.2, factor)), without the builtins' call cost
    factor = 0.9 * err ** -0.2 if err > 0 else 5.0
    h *= 5.0 if factor > 5.0 else factor if factor > 0.2 else 0.2
    # a last step that only closes a rounding gap to t is not an underflow
    if time < t and h <= t * 1e-15:
        raise IntegrationError(
            f"step size underflow at t = {time:.6g} (stiff blow-up)"
        )
    rest = t - time
    return accepted, time, h if h <= rest else rest, steps


def _lane(gen, y, k0, t, h) -> tuple[np.ndarray, int, float]:
    """Carry one lane, the vectorized state ``y`` (1-D, integrated in
    place) with derivative ``k0`` at time 0, to ``t``.

    ``h`` is its first step size.  Its time, step size, counts and
    decisions are Python scalars, and its sums are :func:`_total`'s.
    Returns the final (d, d) state, the accepted steps and the largest
    trace drift.
    """
    n = y.size
    d = math.isqrt(n)
    k = np.empty((7, n), dtype=complex)
    k[0] = k0
    yi = np.empty(n, dtype=complex)
    err_vec = np.empty(n, dtype=complex)
    abs_y, scale, sq = np.empty(n), np.empty(n), np.empty(n)
    conj_t = np.empty((d, d), dtype=complex)
    y_mat, y5_mat = y.reshape(d, d), yi.reshape(d, d)
    y5_t = y5_mat.T
    trace = y[:: d + 1]
    # a 0-d h skips broadcasting
    h_c = np.empty((), dtype=complex)
    attempt, (refresh, y_in, k0_out) = _step_calls(
        gen, y, h_c, yi, k, err_vec, abs_y, scale
    )
    # local names: the loop runs once per step attempt
    absolute, divide, conjugate, add, multiply = (
        np.abs, np.divide, np.conjugate, np.add, np.multiply
    )
    isfinite, total, rms, control, half = math.isfinite, _total, _rms, _control, _HALF
    time, steps, drift = 0.0, 0, 0.0
    absolute(y, abs_y)
    while True:
        h_c[()] = h
        attempt()
        if not isfinite(total(scale)):
            raise IntegrationError(f"non-finite state entries at t = {time:.6g}")
        divide(err_vec, scale, err_vec)
        (err,) = rms(err_vec, sq)
        accepted, time, h, steps = control(err, time, h, steps, t)
        if not accepted:
            continue
        # y = 0.5 * (y5 + y5^dag)
        conjugate(y5_t, conj_t)
        add(y5_mat, conj_t, y_mat)
        multiply(half, y_mat, y_mat)
        # re-evaluate: symmetrization invalidates FSAL
        refresh(y_in, out=k0_out)
        absolute(y, abs_y)
        lane_drift = abs(total(trace) - 1.0)
        if lane_drift > drift:
            drift = float(lane_drift)
        if time >= t:
            return y_mat, steps, drift


def _dormand_prince(gen, y: np.ndarray, t: float) -> list[tuple[np.ndarray, int, float]]:
    """Integrate each lane (row) of the vectorized states ``y`` to ``t``.

    Each step's local error stays below rtol ``_RK_RTOL`` and atol
    ``_RK_ATOL``.  ``gen`` is a dense generator.  The lanes share it and
    nothing else: each has its own step size, time, accept/reject decision
    and step count, and its step control (:func:`_control`) runs on Python
    floats, so every lane gets the bits that it gets alone.  Two or more
    lanes run in one batch, whose buffers hold every lane to the end: a
    lane that reaches ``t`` steps by 0 from then on and is never written
    again, and the loop ends when no lane is short of ``t``.  An only
    lane runs in :func:`_lane` on 1-D arrays, with its time, step size,
    step count and drift in Python scalars.  There its three sums per
    step (the scale's finiteness check, the error norm and the trace)
    are :func:`_total`'s: below 8 real terms, where ``np.add.reduce``
    itself adds left to right, they add the entries in Python floats and
    keep numpy's bits without a reduction call.  Every product and
    elementwise ufunc is the same call, on the same operands in the same
    order, in either layout.  Returns each lane's final (d, d) state,
    accepted steps and largest trace drift, in lane order.
    """
    lanes, n = y.shape
    d = math.isqrt(n)
    if lanes == 1:
        y = y[0]
        k0 = gen.dot(y)
    else:
        k0 = np.empty_like(y)
        np.matmul(gen, y[..., None], out=k0[..., None])
    if not np.isfinite(k0).all():
        raise IntegrationError("non-finite derivative at the initial state")
    # the standard starting-step heuristic 0.01 d0 / d1; where d1's squares
    # overflow (generators past about 1e142), d1 is scaled by the lane's
    # largest |k0|, as LAPACK's dnrm2 scales, and that peak divides last
    scale0 = _RK_ATOL + _RK_RTOL * np.abs(y)
    sq = np.empty(y.shape)
    with np.errstate(over="ignore"):
        d0s, d1s = _rms(y / scale0, sq), _rms(k0 / scale0, sq)
    hs = [min(t, 0.01 * d0 / d1 if d1 > 0 else t * 1e-3) for d0, d1 in zip(d0s, d1s)]
    for lane, d1 in enumerate(d1s):
        if d1 == math.inf:
            k, s = k0.reshape(lanes, n)[lane], scale0.reshape(lanes, n)[lane]
            peak = np.abs(k).max()
            size = np.abs(k) / peak / s
            hs[lane] = min(t, 0.01 * d0s[lane] / math.sqrt(_total(size * size) / n) / peak)
    if lanes == 1:
        return [_lane(gen, y, k0, t, hs[0])]
    # per lane: accepted steps, largest trace drift, time
    steps = [0] * lanes
    drifts = [0.0] * lanes
    times = [0.0] * lanes
    live = list(range(lanes))  # the lanes short of t
    k = np.empty((lanes, 7, n), dtype=complex)
    k[:, 0] = k0
    yi = np.empty_like(y)
    err_vec = np.empty_like(y)
    conj_t = np.empty((lanes, d, d), dtype=complex)
    abs_y = np.empty(y.shape)
    scale = np.empty(y.shape)
    # flat views: a mixed-type ufunc call is cheaper on one axis
    err_flat, scale_flat = err_vec.reshape(-1), scale.reshape(-1)
    y_mat = y.reshape(lanes, d, d)
    y5_mat = yi.reshape(lanes, d, d)
    y5_t = y5_mat.transpose(0, 2, 1)
    traces = y[:, :: d + 1]
    h_c = np.empty((lanes, 1), dtype=complex)
    attempt, (refresh, y_in, k0_out) = _step_calls(
        gen, y, h_c, yi, k, err_vec, abs_y, scale
    )
    np.abs(y, abs_y)
    while live:
        h_c[:, 0] = hs
        attempt()
        # a lane at t has finite, unchanged entries
        if not math.isfinite(np.add.reduce(scale, axis=None)):
            lane = int(np.argmin(np.isfinite(np.add.reduce(scale, axis=1))))
            raise IntegrationError(
                f"non-finite state entries at t = {times[lane]:.6g}"
            )
        np.divide(err_flat, scale_flat, err_flat)
        errs = _rms(err_vec, sq)
        accepted = []
        for lane in live:
            ok, times[lane], hs[lane], steps[lane] = _control(
                errs[lane], times[lane], hs[lane], steps[lane], t
            )
            if ok:
                accepted.append(lane)
        if not accepted:
            continue
        # y = 0.5 * (y5 + y5^dag) on the accepted lanes
        np.conjugate(y5_t, conj_t)
        np.add(y5_mat, conj_t, conj_t)
        np.multiply(_HALF, conj_t, conj_t)
        y_mat[accepted] = conj_t[accepted]
        # re-evaluate: symmetrization invalidates FSAL
        refresh(y_in, out=k0_out)
        np.abs(y, abs_y)
        sums = np.add.reduce(traces, axis=1)
        for lane in accepted:
            drift = abs(sums[lane] - 1.0)
            if drift > drifts[lane]:
                drifts[lane] = float(drift)
            if times[lane] >= t:
                hs[lane] = 0.0
                live.remove(lane)
    return list(zip(y_mat, steps, drifts))


def evolve(model: LindbladModel, rho0: np.ndarray, t: float) -> EvolutionReport:
    """Integrate the master equation to time ``t``.

    Adaptive embedded Runge-Kutta (Dormand-Prince 4/5) on the vectorized
    density matrix with per-step local error below the library's one rk
    accuracy, rtol 1e-9 and atol 1e-12.  After every accepted
    step the state is re-symmetrized, rho <- (rho + rho^dag)/2, which
    removes Hermiticity drift without affecting the accuracy order.  The
    right-hand side is the model's cached :attr:`LindbladModel.generator`,
    read before the state check and the ``t == 0`` return, so a model past
    ``_DENSE_MAX_DIM`` raises its ``ValueError`` whatever ``t``.  ``t``
    must be finite; a non-finite error estimate raises
    :class:`IntegrationError`.  This is the
    one-lane call of the integrator that :func:`equilibrate_lanes` runs
    on many states at once, in one batch loop, with the same bits per
    state.  Its one lane runs in :func:`_lane`: its step control reads
    Python floats, and its sums of fewer than 8 real terms, numpy's
    sequential size, are added left to right in Python floats
    (:func:`_total`), as ``np.add.reduce`` does there.
    """
    if not (0.0 <= t < math.inf):
        raise ValueError(f"evolution time must be finite and >= 0, got {t}")
    gen = model.generator
    rho = _check_state(rho0, model.dim)
    if t == 0.0:
        return EvolutionReport(
            final_state=rho.copy(),
            steps_taken=0,
            max_trace_drift=float(abs(np.trace(rho) - 1.0)),
            min_eigenvalue=float(np.linalg.eigvalsh(rho).min()),
        )
    # step control runs on Python floats
    ((final, steps, drift),) = _dormand_prince(gen, rho.reshape(1, -1).copy(), float(t))
    return EvolutionReport(
        final_state=final,
        steps_taken=steps,
        max_trace_drift=drift,
        min_eigenvalue=float(np.linalg.eigvalsh(final).min()),
    )


def steady_state(model: LindbladModel) -> np.ndarray:
    """Stationary state as the null vector of the generator.

    The generator splits into the blocks of :meth:`_Terms.blocks`, which
    also gives :func:`equilibrate`'s sector.  Each block gets a dense
    singular-value decomposition; permuting L to block-diagonal form
    keeps its singular values, so the pooled values locate the null space
    of the whole L.  Singular values at most n eps of the largest, n = dim^2
    (numpy's ``matrix_rank`` default), are null.  A null-space dimension
    other than one is reported, never silently resolved.  The null vector
    comes from the block holding the smallest singular value.  The
    returned state is Hermitian with unit trace.  No full-space matrix is
    built at any size, and the cost follows the largest block.
    """
    if not model.channels or all(rate == 0.0 for rate, _ in model.channels):
        raise ValueError("steady_state needs at least one dissipative channel")
    n = model.dim**2
    support, data, labels = _Terms(model).blocks()
    rows, cols = np.divmod(support, n)
    svals = []
    smin = math.inf
    for label in range(labels.max() + 1):
        block = np.flatnonzero(labels == label)
        held = labels[rows] == label
        sub = np.zeros((block.size, block.size), dtype=complex)
        sub[tuple(np.searchsorted(block, (rows[held], cols[held])))] = data[held]
        _, block_svals, vh = np.linalg.svd(sub)
        svals.append(block_svals)
        if block_svals[-1] < smin:
            smin = block_svals[-1]
            null_block, null_vec = block, vh[-1]
    svals = np.concatenate(svals)
    smax = float(svals.max())
    null_tol = max(smax, 1e-300) * n * np.finfo(float).eps
    null_count = int(np.count_nonzero(svals <= null_tol))
    if null_count != 1:
        raise DegenerateSteadyStateError(
            f"Liouvillian null space has dimension {null_count}, expected 1"
        )
    vec = np.zeros(model.dim**2, dtype=complex)
    vec[null_block] = null_vec.conj()
    rho = vec.reshape(model.dim, model.dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho)
    if abs(tr) < 1e-12 * np.linalg.norm(rho):
        raise DegenerateSteadyStateError(
            "null vector is traceless; no normalizable steady state"
        )
    return (rho / tr).astype(complex)


def _components(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Connected-component label of each of ``n`` vertices of the undirected
    graph with edges (``rows``, ``cols``).

    The edges go into one canonical CSR pattern both ways, so the strong
    components of that symmetric graph are the components, and scipy finds
    them without the transposed copy that its undirected search makes.
    (scipy 1.17's strong components do not return on a pattern with
    duplicate entries, so they are dropped.)
    """
    keys = np.concatenate(([-1], rows * n + cols, cols * n + rows))
    keys.sort()  # below every key, -1 makes each first occurrence differ
    keys = keys[1:][keys[1:] != keys[:-1]]
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    graph = sp.csr_matrix((np.ones(keys.size), keys % n, indptr), shape=(n, n))
    return connected_components(graph, directed=True, connection="strong")[1]


def _kept(labels: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """``labels`` with -1 on every component that holds none of ``seeds``."""
    hit = np.zeros(labels.max() + 1, dtype=bool)
    hit[labels[seeds]] = True
    return np.where(hit[labels], labels, -1)


def _sector_block(
    model: LindbladModel, rho: np.ndarray
) -> tuple[np.ndarray, sp.csr_matrix]:
    """The vectorized entries that the dynamics from ``rho`` can reach, and
    the generator's block on them (CSR, exact zeros dropped).

    A block of :meth:`_Terms.blocks` without a nonzero of ``rho`` stays
    exactly zero for all times; blocks holding a diagonal entry (the
    trace) are always kept, and so are those holding a nonzero of rho^T:
    windows re-symmetrize the state, so a start state that is Hermitian
    only within tolerance keeps its transposed entries in the sector, and
    every row of L rho outside the sector stays exactly zero.

    :meth:`_Terms.blocks` keeps those blocks and evaluates only their
    rows, so the block holds the nonzeros of :func:`liouvillian_matrix`
    on the sector bit for bit.
    """
    d = model.dim
    n = d * d
    held = np.flatnonzero((rho != 0) | (rho.T != 0))
    seeds = np.concatenate((np.arange(d) * (d + 1), held))
    support, data, labels = _Terms(model).blocks(seeds)
    inside = labels >= 0
    sector = np.flatnonzero(inside)
    indices = (np.cumsum(inside) - 1)[support % n]
    indptr = np.searchsorted(support, np.append(sector, n) * n)
    m = sector.size
    return sector, sp.csr_matrix((data, indices, indptr), shape=(m, m))


def _slowest_window(model: LindbladModel) -> float:
    if model.slow_rate is None:
        raise ValueError("equilibrate needs a model that carries slow_rate")
    return _WINDOW_SPAN / model.slow_rate


def _stepper(model: LindbladModel) -> str:
    """The window stepper of :func:`equilibrate`: ``implicit`` for a model
    past ``_DENSE_MAX_DIM``, which has no generator (no stiffness is
    computed), or a stiff window (``window_stiffness`` above
    ``_STIFF_WINDOW``), where rk would take tens of thousands of steps per
    window; ``rk`` otherwise."""
    if model.dim > _DENSE_MAX_DIM or model.window_stiffness > _STIFF_WINDOW:
        return "implicit"
    return "rk"


def _windows(
    advance: Callable[[list[np.ndarray]], list[tuple[np.ndarray, int, float]]],
    rhos: Sequence[np.ndarray],
    change_tol: float,
    dt: float,
    liou,
    sector: np.ndarray | None = None,
) -> list[EquilibrationReport]:
    """The window loop of :func:`equilibrate` on the lanes ``rhos``.

    ``advance`` takes the states of the lanes still running and returns
    each one's state a window later, accepted steps and trace drift.
    Each lane keeps its own window count and window test and leaves once
    its change falls below ``change_tol``.  ``liou`` sets the stepper,
    budget and ``sector_dim`` (its size): the dense generator steps
    ``rk`` with ``_RK_WINDOWS``, its CSR block on the vectorized entries
    ``sector``, which hold every nonzero of the states, steps
    ``implicit`` with ``_IMPLICIT_WINDOWS``.  ``rhs_residual`` is max
    |L rho| relative to the largest |entry| of ``liou``, so that it does
    not grow with the generator's scale.
    """
    rhos = [np.asarray(rho, dtype=complex) for rho in rhos]
    if sector is None:
        budget, method, entries, sector = _RK_WINDOWS, "rk", liou, slice(None)
    else:
        # the largest |entry| of a CSR block is over its stored entries,
        # which abs() of the matrix would first copy into a new matrix
        budget, method, entries = _IMPLICIT_WINDOWS, "implicit", liou.data
    scale = float(np.abs(entries).max(initial=0.0))
    sector_dim = liou.shape[0]
    # a square past the float range is inf and rules no window out; the
    # power operator would raise OverflowError there
    bound = change_tol * (1 + 1e-6)
    steps = [0] * len(rhos)
    drifts = [0.0] * len(rhos)
    changes = [math.inf] * len(rhos)
    reports: list[EquilibrationReport | None] = [None] * len(rhos)
    live = list(range(len(rhos)))
    for w in range(budget):
        if not live:
            break
        running = []
        for lane, (new_rho, new_steps, drift) in zip(
            live, advance([rhos[lane] for lane in live])
        ):
            steps[lane] += new_steps
            drifts[lane] = max(drifts[lane], drift)
            step = new_rho - rhos[lane]
            rho = rhos[lane] = new_rho
            # ||A||_F <= ||A||_1 for the change and for the Hermitian matrix
            # that trace_norm's eigvalsh reads from its lower triangle; the
            # margin covers rounding, squares below 1e-300 lose precision,
            # and the budget's last window takes the exact norm
            low, diag = np.tril(step, -1), step.diagonal().real
            floor = min(np.vdot(step, step).real, 2 * np.vdot(low, low).real + diag @ diag)
            if w + 1 < budget and floor > bound * bound > 1e-300:
                running.append(lane)
                continue
            changes[lane] = trace_norm(step)
            if not changes[lane] < change_tol:  # a nan change does not pass
                running.append(lane)
                continue
            reports[lane] = EquilibrationReport(
                final_state=rho,
                method=method,
                windows=w + 1,
                window_duration=dt,
                last_change=changes[lane],
                max_trace_drift=drifts[lane],
                min_eigenvalue=float(np.linalg.eigvalsh(rho).min()),
                rhs_residual=float(np.abs(liou.dot(rho.reshape(-1)[sector])).max())
                / (scale or 1.0),
                steps_taken=steps[lane],
                sector_dim=sector_dim,
            )
        live = running
    if live:
        raise EquilibrationError(
            f"no equilibration after {budget} {method} windows of {dt:.4g} "
            f"(last change {changes[live[0]]:.3e}, tol {change_tol:.3e})"
        )
    return reports


def equilibrate(
    model: LindbladModel,
    rho0: np.ndarray,
    *,
    change_tol: float = _CHANGE_TOL,
) -> EquilibrationReport:
    """Relax toward the stationary state in windows of fixed duration.

    The run stops once the trace-norm change across one window falls
    below ``change_tol``, which must be finite and > 0.  The window is
    5 / slow_rate of the model, so the binding criterion is the window
    test rather than the horizon; a model without ``slow_rate`` is
    rejected.  The budget is fixed per stepper: 8 ``rk`` or 60
    ``implicit`` windows (:func:`_windows`).  Windows are sized by the
    population rate, so a coherent start on a squeezed bath, whose
    slowest coherence rate lies below it, can exhaust the budget.  As
    ||A||_F <= ||A||_1, a window whose change has a Frobenius norm above
    ``change_tol`` cannot pass and skips :func:`trace_norm`'s eigenvalues.

    :func:`_stepper` picks the window stepper from the model, and the
    report's ``method`` names it.  The eliminated decays of the joint and
    V models are fast against the engineered bath, so those models step
    ``implicit`` and the effective ones ``rk``.

    ``rk`` integrates each window with :func:`evolve`, which checks each
    window start, the first too.  ``implicit`` checks the start state,
    then advances with backward-Euler macro-steps: one sparse LU of
    I - dt B, with B the block of L on the components that hold the trace
    or the start state, then one triangular solve per window.  Entries
    outside those components stay exactly zero, so the restriction changes
    neither the fixed point nor the window count; ``sector_dim`` reports
    the size of the solved system, and ``rhs_residual`` is read from B.
    :func:`_sector_block` assembles B alone, bit for bit the nonzeros of
    the full generator on the sector, which is never built here.  The
    scheme is L-stable, damps the fast motional scales regardless of
    stiffness, and shares the exact fixed point L rho = 0
    with the true dynamics, which is the quantity every caller extracts.
    """
    if not (0.0 < change_tol < math.inf):
        raise ValueError(f"change_tol must be finite and > 0, got {change_tol}")
    dt = _slowest_window(model)
    if _stepper(model) == "rk":

        def advance(states: list[np.ndarray]) -> list[tuple[np.ndarray, int, float]]:
            # evolve checks each window start, the first too
            report = evolve(model, states[0], dt)
            return [(report.final_state, report.steps_taken, report.max_trace_drift)]

        (report,) = _windows(advance, [rho0], change_tol, dt, model.generator)
        return report
    rho = _check_state(rho0, model.dim)
    sector, block = _sector_block(model, rho)
    stepper = spla.splu(
        (sp.identity(sector.size, format="csc", dtype=complex) - dt * block).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        options={"SymmetricMode": True},
    )

    def advance(states: list[np.ndarray]) -> list[tuple[np.ndarray, int, float]]:
        full = np.zeros(states[0].size, dtype=complex)
        full[sector] = stepper.solve(states[0].reshape(-1)[sector])
        mat = full.reshape(model.dim, model.dim)
        mat = 0.5 * (mat + mat.conj().T)
        return [(mat, 1, float(abs(np.trace(mat) - 1.0)))]

    (report,) = _windows(advance, [rho], change_tol, dt, block, sector)
    return report


def equilibrate_lanes(
    model: LindbladModel, rhos: Sequence[np.ndarray]
) -> list[EquilibrationReport]:
    """:func:`equilibrate` from each start state of ``rhos``; each report
    equals ``equilibrate(model, rho)`` bit for bit.

    Two or more states on a model that :func:`equilibrate` steps with
    ``rk`` run as lanes of one Dormand-Prince loop: each lane keeps its
    own step size, time, step decisions, window count and window test,
    while the numpy calls of a step serve all the lanes.  A lone state,
    and every state of a model stepped ``implicit``, goes through
    :func:`equilibrate` itself, one call per state.  The first failure of
    any lane raises; which lane's error that is may differ from a
    one-by-one run.
    """
    dt = _slowest_window(model)  # rejects a model without slow_rate, states or not
    if len(rhos) < 2 or _stepper(model) != "rk":
        return [equilibrate(model, rho) for rho in rhos]
    dim = model.dim
    gen = model.generator

    def advance(states: list[np.ndarray]) -> list[tuple[np.ndarray, int, float]]:
        # each window start, the first too, passes the checks evolve makes
        lanes = np.stack([_check_state(rho, dim).reshape(-1) for rho in states])
        return _dormand_prince(gen, lanes, dt)

    return _windows(advance, rhos, _CHANGE_TOL, dt, gen)
