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
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .operators import SpaceLayout, hermiticity_defect, is_hermitian

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
    "trace_norm",
]

# Largest model dimension whose generator is stored dense.  Larger models
# (the joint ion models) are big and very sparse: their generator is
# stored sparse and ``equilibrate``'s ``auto`` steps them implicitly.
_DENSE_MAX_DIM = 24
# Accepted-step budget of one ``evolve`` call.
_MAX_STEPS = 2_000_000
# Relative and absolute per-step error targets of ``equilibrate``'s ``rk``
# windows.
_RK_RTOL = 1e-9
_RK_ATOL = 1e-12


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

    ``slow_rate`` is optional metadata: the slowest relaxation rate of the
    model, used to size equilibration windows.  Builders that know the
    engineered bath parameters fill it in.

    The generator is built once per model, on first use, and cached; the
    model's arrays must therefore not be mutated after construction.
    """

    hamiltonian: np.ndarray
    channels: tuple[tuple[float, np.ndarray], ...]
    layout: SpaceLayout | None = None
    slow_rate: float | None = None

    def __post_init__(self) -> None:
        h = np.asarray(self.hamiltonian, dtype=complex)
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
            chans.append((rate, op))
        if self.layout is not None and self.layout.dim != h.shape[0]:
            raise ValueError(
                f"layout dimension {self.layout.dim} does not match "
                f"Hamiltonian dimension {h.shape[0]}"
            )
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "channels", tuple(chans))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def generator(self):
        """:func:`liouvillian_matrix`, sparse for dim > ``_DENSE_MAX_DIM``."""
        return liouvillian_matrix(self, sparse=self.dim > _DENSE_MAX_DIM)


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
    rhs_residual: float
    steps_taken: int = 0
    # size of the vectorized system the stepper solved
    sector_dim: int = 0


def liouvillian_matrix(model: LindbladModel, *, sparse: bool = False):
    """Matrix of the generator acting on row-major vectorized states.

    Dense by default; ``sparse`` builds the same entries in CSR form.
    """
    d = model.dim
    if sparse:
        kron, convert = sp.kron, sp.csr_matrix
        ident = sp.identity(d, format="csr", dtype=complex)
    else:
        kron, convert = np.kron, np.asarray
        ident = np.eye(d, dtype=complex)
    h = convert(model.hamiltonian)
    liou = -1j * (kron(h, ident) - kron(ident, h.T))
    for rate, op in model.channels:
        if rate == 0.0:
            continue
        opdop = convert(op.conj().T @ op)
        op = convert(op)
        liou = liou + rate * kron(op, op.conj())
        liou = liou - (rate / 2.0) * (kron(opdop, ident) + kron(ident, opdop.T))
    return liou.tocsr() if sparse else liou


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
    defect = hermiticity_defect(rho)
    if defect > 1e-10:
        raise ValueError(f"initial state is not Hermitian (deviation {defect:.3e})")
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"initial state trace is {tr}, expected 1")
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < -1e-10:
        raise ValueError(f"initial state has negative eigenvalue {min_eig:.3e}")
    return rho


# Dormand-Prince 4(5) tableau with the first-same-as-last property.  The
# rows are cast to complex once: the stage products would cast them anyway.
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
_DP_B5 = np.array(
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0], dtype=complex
)
_DP_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
    dtype=complex,
)


def _rms(v: np.ndarray, buf: np.ndarray) -> float:
    """Root mean square of |v|; ``buf`` is real scratch of v's size."""
    np.abs(v, out=buf)
    np.multiply(buf, buf, out=buf)
    return math.sqrt(np.add.reduce(buf) / buf.size)


def evolve(
    model: LindbladModel,
    rho0: np.ndarray,
    t: float,
    tol: float = 1e-9,
    *,
    atol: float | None = None,
) -> EvolutionReport:
    """Integrate the master equation to time ``t``.

    Adaptive embedded Runge-Kutta (Dormand-Prince 4/5) on the vectorized
    density matrix with per-step local error below ``tol`` (relative) and
    ``atol`` (absolute, default ``tol * 1e-3``).  After every accepted
    step the state is re-symmetrized, rho <- (rho + rho^dag)/2, which
    removes Hermiticity drift without affecting the accuracy order.  The
    right-hand side is the model's cached :attr:`LindbladModel.generator`.
    ``t`` must be finite and ``atol`` finite and positive; a non-finite
    error estimate raises :class:`IntegrationError`.
    """
    if not (0.0 < tol <= 1e-4):
        raise ValueError(f"tolerance must lie in (0, 1e-4], got {tol}")
    if not (0.0 <= t < math.inf):
        raise ValueError(f"evolution time must be finite and >= 0, got {t}")
    if atol is None:
        atol = tol * 1e-3
    if not (0.0 < atol < math.inf):
        raise ValueError(f"absolute tolerance must be finite and > 0, got {atol}")
    d = model.dim
    rho = _check_state(rho0, d)
    if t == 0.0:
        return EvolutionReport(
            final_state=rho.copy(),
            steps_taken=0,
            max_trace_drift=float(abs(np.trace(rho) - 1.0)),
            min_eigenvalue=float(np.linalg.eigvalsh(rho).min()),
        )

    t = float(t)  # step control runs on Python floats
    gen = model.generator
    dense = not sp.issparse(gen)
    y = rho.reshape(-1).copy()
    time_now = 0.0
    k = np.empty((7, y.size), dtype=complex)
    k0 = k[0]
    k0[:] = gen.dot(y)
    if not np.isfinite(k0).all():
        raise IntegrationError("non-finite derivative at the initial state")

    # per-step work buffers; every sum keeps the order of the plain
    # expressions in the comments
    yi = np.empty_like(y)
    y5 = np.empty_like(y)
    err_vec = np.empty_like(y)
    conj_t = np.empty((d, d), dtype=complex)
    abs_y = np.empty(y.size)
    scale = np.empty(y.size)
    sq = np.empty(y.size)
    y_mat = y.reshape(d, d)
    y5_mat = y5.reshape(d, d)
    # (tableau row, k[:stage], k[stage]) of stages 1 to 6
    stages = [(_DP_A[stage], k[:stage], k[stage]) for stage in range(1, 7)]
    # h, tol, atol and 1/2 as 0-d arrays of the dtype each ufunc casts
    # them to: the same values, without a scalar conversion per call
    h_c = np.empty((), dtype=complex)
    tol_a = np.array(tol, dtype=float)
    atol_a = np.array(atol, dtype=float)
    half = np.array(0.5, dtype=complex)

    # standard starting-step heuristic
    scale0 = atol + tol * np.abs(y)
    d0 = _rms(y / scale0, sq)
    d1 = _rms(k0 / scale0, sq)
    h = min(t, 0.01 * d0 / d1 if d1 > 0 else t * 1e-3)

    steps = 0
    max_drift = 0.0
    diag_idx = np.arange(d) * (d + 1)
    while time_now < t:
        h = min(h, t - time_now)
        h_c[()] = h
        for row, k_done, k_next in stages:
            # yi = y + h * (k[:stage].T @ _DP_A[stage])
            row.dot(k_done, out=yi)
            np.multiply(h_c, yi, out=yi)
            np.add(y, yi, out=yi)
            if dense:
                gen.dot(yi, out=k_next)
            else:
                k_next[:] = gen.dot(yi)
        # y5 = y + h * (k.T @ _DP_B5); err_vec = h * (k.T @ _DP_ERR)
        _DP_B5.dot(k, out=y5)
        np.multiply(h_c, y5, out=y5)
        np.add(y, y5, out=y5)
        _DP_ERR.dot(k, out=err_vec)
        np.multiply(h_c, err_vec, out=err_vec)
        if not np.isfinite(y5).all():
            raise IntegrationError(
                f"non-finite state entries at t = {time_now:.6g}"
            )
        # scale = atol + tol * max(|y|, |y5|)
        np.abs(y, out=abs_y)
        np.abs(y5, out=scale)
        np.maximum(abs_y, scale, out=scale)
        np.multiply(tol_a, scale, out=scale)
        np.add(atol_a, scale, out=scale)
        err = _rms(np.divide(err_vec, scale, out=err_vec), sq)
        if not math.isfinite(err):
            raise IntegrationError(
                f"non-finite error estimate at t = {time_now:.6g}"
            )
        if err <= 1.0:
            time_now += h
            # y = 0.5 * (y5 + y5^dag), written into y's own buffer
            np.conjugate(y5_mat.T, out=conj_t)
            np.add(y5_mat, conj_t, out=y_mat)
            np.multiply(half, y_mat, out=y_mat)
            # re-evaluate: symmetrization invalidates FSAL
            if dense:
                gen.dot(y, out=k0)
            else:
                k0[:] = gen.dot(y)
            steps += 1
            drift = abs(y[diag_idx].sum() - 1.0)
            if drift > max_drift:
                max_drift = float(drift)
        if steps >= _MAX_STEPS:
            raise IntegrationError(
                f"step budget {_MAX_STEPS} exhausted at t = {time_now:.6g}; "
                "for long stiff relaxations use equilibrate()"
            )
        factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        # a last step that only closes a rounding gap to t is not an underflow
        if time_now < t and h <= t * 1e-15:
            raise IntegrationError(
                f"step size underflow at t = {time_now:.6g} (stiff blow-up)"
            )

    return EvolutionReport(
        final_state=y_mat,
        steps_taken=steps,
        max_trace_drift=max_drift,
        min_eigenvalue=float(np.linalg.eigvalsh(y_mat).min()),
    )


def steady_state(model: LindbladModel) -> np.ndarray:
    """Stationary state as the null vector of the dense generator.

    Singular-value decomposition locates the null space; a null-space
    dimension other than one is reported, never silently resolved.  The
    returned state is Hermitian with unit trace.
    """
    if not model.channels or all(rate == 0.0 for rate, _ in model.channels):
        raise ValueError("steady_state needs at least one dissipative channel")
    liou = liouvillian_matrix(model)
    _, svals, vh = np.linalg.svd(liou)
    smax = float(svals[0])
    null_tol = max(smax, 1e-300) * 1e-9
    null_count = int(np.count_nonzero(svals <= null_tol))
    if null_count != 1:
        raise DegenerateSteadyStateError(
            f"Liouvillian null space has dimension {null_count}, expected 1"
        )
    rho = vh[-1].conj().reshape(model.dim, model.dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho)
    if abs(tr) < 1e-12 * np.linalg.norm(rho):
        raise DegenerateSteadyStateError(
            "null vector is traceless; no normalizable steady state"
        )
    return (rho / tr).astype(complex)


def _state_sector(liou: sp.csr_matrix, y0: np.ndarray, dim: int) -> np.ndarray:
    """Indices of the vectorized entries that the dynamics from ``y0`` can reach.

    A weak symmetry of the generator (parity, and for phase-insensitive
    baths a U(1) charge) makes L block-diagonal.  The blocks are the
    connected components of the sparsity graph |L| + |L|^T.  A block
    without a nonzero of ``y0`` stays exactly zero for all times, so it is
    left out of the solve; blocks holding a diagonal entry (the trace) are
    always kept.
    """
    _, labels = connected_components(abs(liou), directed=False)
    seeds = np.concatenate((np.arange(dim) * (dim + 1), np.flatnonzero(y0)))
    return np.flatnonzero(np.isin(labels, labels[seeds]))


def _slowest_window(model: LindbladModel, window: float | None) -> float:
    if window is not None:
        if not (0.0 < window < math.inf):
            raise ValueError(f"window duration must be finite and > 0, got {window}")
        return float(window)
    if model.slow_rate is None:
        raise ValueError(
            "equilibrate needs an explicit window when the model carries "
            "no slow_rate metadata"
        )
    if not (0.0 < model.slow_rate < math.inf):
        raise ValueError(
            f"model slow_rate must be finite and > 0, got {model.slow_rate}"
        )
    return 5.0 / model.slow_rate


def equilibrate(
    model: LindbladModel,
    rho0: np.ndarray,
    *,
    window: float | None = None,
    change_tol: float = 1e-8,
    max_windows: int | None = None,
    method: str = "auto",
) -> EquilibrationReport:
    """Relax toward the stationary state in windows of fixed duration.

    The run stops once the trace-norm change across one window falls
    below ``change_tol``.  The default window is 5 / slow_rate, so the
    binding criterion is the window test rather than the horizon.

    Two window steppers are available.  ``rk`` integrates each window
    with :func:`evolve` at relative tolerance 1e-9 and absolute
    tolerance 1e-12.  ``implicit`` advances with backward-Euler
    macro-steps: one sparse LU of I - dt L restricted to the components
    of L that hold the trace or the start state, then one triangular
    solve per window.  Entries outside those components stay exactly
    zero, so the restriction changes neither the fixed point nor the
    window count; ``sector_dim`` reports the size of the solved system.
    The scheme is L-stable, damps the fast motional scales regardless of
    stiffness, and shares the exact fixed point L rho = 0 with the true
    dynamics, which is the quantity every caller extracts.  ``auto``
    picks ``implicit`` for dim > ``_DENSE_MAX_DIM`` (the models whose
    generator :func:`evolve` stores sparse), where the rate separation
    of the joint ion models makes explicit stepping take minutes, and
    ``rk`` otherwise.  The excitation-window joint models of the
    full-cycle bath strokes can be smaller than that (dim 20 at
    fock_dim 4) yet are just as stiff, so those strokes pass
    ``implicit`` explicitly.
    """
    dt = _slowest_window(model, window)
    rho = _check_state(rho0, model.dim)
    if method == "auto":
        method = "implicit" if model.dim > _DENSE_MAX_DIM else "rk"
    if method == "rk":

        def advance(rho: np.ndarray) -> tuple[np.ndarray, int, float]:
            report = evolve(model, rho, dt, _RK_RTOL, atol=_RK_ATOL)
            return report.final_state, report.steps_taken, report.max_trace_drift

        budget = 8 if max_windows is None else max_windows
        liou = model.generator
        sector_dim = model.dim**2
    elif method == "implicit":
        budget = 60 if max_windows is None else max_windows
        liou = liouvillian_matrix(model, sparse=True)
        sector = _state_sector(liou, rho.reshape(-1), model.dim)
        sector_dim = int(sector.size)
        block = liou[sector][:, sector]
        stepper = spla.splu(
            (sp.identity(sector_dim, format="csc", dtype=complex) - dt * block).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            options={"SymmetricMode": True},
        )

        def advance(rho: np.ndarray) -> tuple[np.ndarray, int, float]:
            full = np.zeros(rho.size, dtype=complex)
            full[sector] = stepper.solve(rho.reshape(-1)[sector])
            mat = full.reshape(model.dim, model.dim)
            mat = 0.5 * (mat + mat.conj().T)
            return mat, 1, float(abs(np.trace(mat) - 1.0))

    else:
        raise ValueError(f"unknown equilibration method {method!r}")

    steps = 0
    max_drift = 0.0
    change = np.inf
    for w in range(budget):
        new_rho, new_steps, drift = advance(rho)
        steps += new_steps
        max_drift = max(max_drift, drift)
        change = trace_norm(new_rho - rho)
        rho = new_rho
        if change < change_tol:
            return EquilibrationReport(
                final_state=rho,
                method=method,
                windows=w + 1,
                window_duration=dt,
                last_change=change,
                max_trace_drift=max_drift,
                min_eigenvalue=float(np.linalg.eigvalsh(rho).min()),
                rhs_residual=float(np.abs(liou.dot(rho.reshape(-1))).max()),
                steps_taken=steps,
                sector_dim=sector_dim,
            )
    raise EquilibrationError(
        f"no equilibration after {budget} {method} windows of {dt:.4g} "
        f"(last change {change:.3e}, tol {change_tol:.3e})"
    )
