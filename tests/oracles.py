"""Independent reference computations that only the tests use.

None of these runs in a sweep: the engine sweeps the carrier transition
probability xi directly, and the runtime library needs neither the pulse
time nor a time-ordered propagator.  Each helper re-derives a quantity
the library computes another way, so the tests can compare the two.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from ionotto.cycle import CycleConfig, prepare_bath_equilibria
from ionotto.lindblad import (
    _IMPLICIT_WINDOWS,
    _MAX_STEPS,
    _RK_ATOL,
    _RK_RTOL,
    _RK_WINDOWS,
    DegenerateSteadyStateError,
    EquilibrationError,
    EquilibrationReport,
    EvolutionReport,
    IntegrationError,
    LindbladModel,
    _check_state,
    _slowest_window,
    _stepper,
    evolve,
    liouvillian_matrix,
    trace_norm,
)
from ionotto.operators import (
    SpaceLayout,
    destroy,
    hermiticity_defect,
    kron,
    sigma_minus,
    sigma_plus,
    vacuum_state,
)
from ionotto.reservoirs import LaserSettings, slow_relaxation_rate


def transition_probability(drive_rabi: float, tau_prime: float) -> float:
    """Carrier-pulse transition probability sin^2(Omega tau' / 2)."""
    if drive_rabi <= 0:
        raise ValueError(f"drive Rabi frequency must be > 0, got {drive_rabi}")
    if tau_prime < 0:
        raise ValueError(f"pulse duration must be >= 0, got {tau_prime}")
    return math.sin(drive_rabi * tau_prime / 2.0) ** 2


def pulse_duration(drive_rabi: float, xi: float) -> float:
    """Inverse of :func:`transition_probability` on the first half period."""
    if drive_rabi <= 0:
        raise ValueError(f"drive Rabi frequency must be > 0, got {drive_rabi}")
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"transition probability must lie in [0, 1], got {xi}")
    return 2.0 * math.asin(math.sqrt(xi)) / drive_rabi


def rabi_mixing_unitary(xi: float) -> np.ndarray:
    """Rotating-frame carrier unitary with |<e|U|g>|^2 = xi."""
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"transition probability must lie in [0, 1], got {xi}")
    half = math.asin(math.sqrt(xi))
    c, s = math.cos(half), math.sin(half)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


# Fourth-order commutator-free scheme: two exponentials per step with
# Gauss-Legendre nodes, coefficients 1/4 +/- sqrt(3)/6.
_CF4_NODE_OFFSET = math.sqrt(3.0) / 6.0
_CF4_A1 = 0.25 + _CF4_NODE_OFFSET
_CF4_A2 = 0.25 - _CF4_NODE_OFFSET


def _su2_exponentials(cx: np.ndarray, cy: np.ndarray, cz: np.ndarray) -> np.ndarray:
    """Stacked exp(-i (cx sx + cy sy + cz sz)) via the axis-angle form."""
    angle = np.sqrt(cx**2 + cy**2 + cz**2)
    small = angle < 1e-30
    sinc = np.where(small, 1.0, np.sin(angle) / np.where(small, 1.0, angle))
    out = np.zeros(cx.shape + (2, 2), dtype=complex)
    cos = np.cos(angle)
    out[..., 0, 0] = cos + 1j * cz * sinc
    out[..., 1, 1] = cos - 1j * cz * sinc
    out[..., 0, 1] = -sinc * (1j * cx + cy)
    out[..., 1, 0] = -sinc * (1j * cx - cy)
    return out


def carrier_propagator_numeric(
    drive_rabi: float,
    tau_prime: float,
    steps: int = 4096,
    omega_e: float | None = None,
) -> np.ndarray:
    """Time-ordered carrier propagator in the lab frame.

    Integrates the gap Hamiltonian plus the resonant drive, whose
    noncommuting time dependence requires genuine time ordering, as a
    product of short-step fourth-order commutator-free exponentials.
    The transition probability |<e|U|g>|^2 must reproduce the closed form
    sin^2(Omega tau'/2) for any electronic frequency; ``omega_e``
    defaults to a modest multiple of the drive so the product stays well
    conditioned (the physical optical frequency is irrelevant here).
    """
    if steps < 100:
        raise ValueError(f"need at least 100 steps, got {steps}")
    if drive_rabi <= 0:
        raise ValueError(f"drive Rabi frequency must be > 0, got {drive_rabi}")
    if tau_prime < 0:
        raise ValueError(f"pulse duration must be >= 0, got {tau_prime}")
    if tau_prime == 0.0:
        return np.eye(2, dtype=complex)
    if omega_e is None:
        omega_e = 5.0 * drive_rabi
    h = tau_prime / steps
    starts = h * np.arange(steps)
    # two-point Gauss-Legendre nodes 1/2 -/+ sqrt(3)/6 on each step
    t1 = starts + (0.5 - _CF4_NODE_OFFSET) * h
    t2 = starts + (0.5 + _CF4_NODE_OFFSET) * h

    def factor(w1: float, w2: float) -> np.ndarray:
        # combined generator h * (w1 H(t1) + w2 H(t2)) as sx, sy, sz parts
        cx = 0.5 * drive_rabi * h * (w1 * np.cos(omega_e * t1) + w2 * np.cos(omega_e * t2))
        cy = -0.5 * drive_rabi * h * (w1 * np.sin(omega_e * t1) + w2 * np.sin(omega_e * t2))
        cz = 0.5 * omega_e * h * (w1 + w2) * np.ones_like(t1)
        return _su2_exponentials(cx, cy, cz)

    # per step: exp(X2) exp(X1), applied after all earlier steps
    first = factor(_CF4_A1, _CF4_A2)
    second = factor(_CF4_A2, _CF4_A1)
    product = second @ first
    # pairwise time-ordered reduction; an odd leftover is the latest
    # factor of the current round and moves into the left carry
    carry = np.eye(2, dtype=complex)
    while product.shape[0] > 1:
        if product.shape[0] % 2:
            carry = carry @ product[-1]
            product = product[:-1]
        product = product[1::2] @ product[0::2]
    return carry @ product[0]


def engine_efficiency_formula(config: CycleConfig, xi: float) -> float:
    """Closed-form engine efficiency, one bracket for every bath kind.

    eta = 1 - (omega_c / omega_h) * (T_c - u T_h) / (u T_c - T_h) with
    T_c = tanh(theta_c), the signed, squeezing-contracted
    T_h = zeta tanh(theta_h) and u = 1 - 2 xi; specializing T_h
    reproduces the published thermal, inverted and squeezed forms.
    Meaningful in the work-extracting regime (the bracket denominator is
    proportional to Q_hot).
    """
    t_c = math.tanh(config.theta_cold)
    t_h = config.zeta * math.tanh(config.theta_hot)
    u = 1.0 - 2.0 * xi
    bracket = (t_c - u * t_h) / (u * t_c - t_h)
    return 1.0 - bracket / config.frequency_ratio


def truncation_shift(config: CycleConfig, extra: int = 2) -> float:
    """Largest steady-population move when the Fock truncation grows.

    Reruns both bath equilibrations at fock_dim + ``extra`` and returns
    the largest absolute change of the reduced electronic populations; a
    converged truncation keeps this below 1e-4.
    """
    base = prepare_bath_equilibria(config)
    larger = prepare_bath_equilibria(replace(config, fock_dim=config.fock_dim + extra))
    shift_cold = np.abs(np.diag(base.cold_state - larger.cold_state).real).max()
    shift_hot = np.abs(np.diag(base.hot_state - larger.hot_state).real).max()
    return float(max(shift_cold, shift_hot))


def thermal_state(n_max: int, nbar: float) -> np.ndarray:
    """Truncated thermal mode state with target mean occupation ``nbar``.

    Populations follow the geometric law p_k ~ (nbar / (1 + nbar))^k,
    renormalized over the truncated ladder, so the realized mean sits
    slightly below ``nbar``; the discrepancy is the truncation error.
    """
    if n_max < 2:
        raise ValueError(f"Fock truncation must be at least 2, got {n_max}")
    if nbar < 0:
        raise ValueError(f"mean occupation must be nonnegative, got {nbar}")
    if nbar == 0:
        return vacuum_state(n_max)
    q = nbar / (1.0 + nbar)
    weights = q ** np.arange(n_max)
    return np.diag(weights / weights.sum()).astype(complex)


def unitarity_defect(u: np.ndarray) -> float:
    """Largest elementwise deviation of u^dag u from the identity."""
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def hermitian_propagator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) through the eigendecomposition of a Hermitian ``h``.

    Eigendecomposition keeps the result unitary to solver precision for
    any step length, unlike truncated series expansions.
    """
    defect = hermiticity_defect(h)
    if defect > 1e-10:
        raise ValueError(
            f"generator is not Hermitian (max deviation {defect:.3e})"
        )
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


# Dormand-Prince 4(5) tableau with the first-same-as-last property.
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


def reference_evolve(model: LindbladModel, rho0: np.ndarray, t: float) -> EvolutionReport:
    """The Dormand-Prince 4(5) loop of :func:`ionotto.lindblad.evolve`,
    written with plain array expressions and a per-call dense generator,
    at the library's rk accuracy ``_RK_RTOL`` and ``_RK_ATOL``.

    :func:`~ionotto.lindblad.evolve` trims numpy calls from this loop
    (cached generator, preallocated buffers, ``out=`` arguments) and must
    keep every sum in the same order, so the two agree bit for bit.
    """
    if t < 0:
        raise ValueError(f"evolution time must be >= 0, got {t}")
    d = model.dim
    rho = _check_state(rho0, d)
    if t == 0.0:
        return EvolutionReport(
            final_state=rho.copy(),
            steps_taken=0,
            max_trace_drift=float(abs(np.trace(rho) - 1.0)),
            min_eigenvalue=float(np.linalg.eigvalsh(rho).min()),
        )

    rhs = liouvillian_matrix(model).dot

    y = rho.reshape(-1).copy()
    time_now = 0.0
    k = np.empty((7, y.size), dtype=complex)
    k[0] = rhs(y)
    if not np.all(np.isfinite(k[0])):
        raise IntegrationError("non-finite derivative at the initial state")

    # standard starting-step heuristic
    scale0 = _RK_ATOL + _RK_RTOL * np.abs(y)
    d0 = np.sqrt(np.mean(np.abs(y / scale0) ** 2))
    d1 = np.sqrt(np.mean(np.abs(k[0] / scale0) ** 2))
    h = min(t, 0.01 * d0 / d1 if d1 > 0 else t * 1e-3)

    steps = 0
    max_drift = 0.0
    diag_idx = np.arange(d) * (d + 1)
    while time_now < t:
        h = min(h, t - time_now)
        for stage in range(1, 7):
            yi = y + h * (k[:stage].T @ _DP_A[stage])
            k[stage] = rhs(yi)
        y5 = y + h * (k.T @ _DP_B5)
        err_vec = h * (k.T @ _DP_ERR)
        if not np.all(np.isfinite(y5)):
            raise IntegrationError(
                f"non-finite state entries at t = {time_now:.6g}"
            )
        scale = _RK_ATOL + _RK_RTOL * np.maximum(np.abs(y), np.abs(y5))
        err = np.sqrt(np.mean(np.abs(err_vec / scale) ** 2))
        if err <= 1.0:
            time_now += h
            mat = y5.reshape(d, d)
            mat = 0.5 * (mat + mat.conj().T)
            y = mat.reshape(-1)
            k[0] = rhs(y)  # re-evaluate: symmetrization invalidates FSAL
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

    final = y.reshape(d, d)
    return EvolutionReport(
        final_state=final,
        steps_taken=steps,
        max_trace_drift=max_drift,
        min_eigenvalue=float(np.linalg.eigvalsh(final).min()),
    )


def reference_steady_state(model: LindbladModel) -> np.ndarray:
    """Stationary state as the null vector of the dense generator.

    Singular-value decomposition locates the null space; a null-space
    dimension other than one is reported, never silently resolved.  The
    returned state is Hermitian with unit trace.

    One SVD of the whole dense Liouvillian: the reference that
    :func:`ionotto.lindblad.steady_state`, which decomposes the blocks of
    the generator one at a time, must agree with.
    """
    if not model.channels or all(rate == 0.0 for rate, _ in model.channels):
        raise ValueError("steady_state needs at least one dissipative channel")
    _, svals, vh = np.linalg.svd(liouvillian_matrix(model))
    return _null_state(model.dim, svals, vh[-1].conj())


def reference_block_steady_state(model: LindbladModel) -> np.ndarray:
    """Stationary state from one dense SVD per block of the full-space
    sparse generator.

    The blocks are the connected components of the nonzero pattern of
    ``reference_liouvillian(model, sparse=True)``, and each is cut from
    that matrix: the full-space route of
    :func:`ionotto.lindblad.steady_state`, which assembles its blocks from
    the generator's terms and must return the same state bit for bit.
    The null vector comes from the block holding the smallest singular
    value.
    """
    if not model.channels or all(rate == 0.0 for rate, _ in model.channels):
        raise ValueError("steady_state needs at least one dissipative channel")
    liou = reference_liouvillian(model, sparse=True)
    _, labels = connected_components(sp.csr_matrix(abs(liou)), directed=False)
    svals, smin = [], math.inf
    for label in range(labels.max() + 1):
        block = np.flatnonzero(labels == label)
        _, block_svals, vh = np.linalg.svd(liou[block][:, block].toarray())
        svals.append(block_svals)
        if block_svals[-1] < smin:
            smin = block_svals[-1]
            null_vec = np.zeros(model.dim**2, dtype=complex)
            null_vec[block] = vh[-1].conj()
    return _null_state(model.dim, np.concatenate(svals), null_vec)


def _null_state(dim: int, svals: np.ndarray, null_vec: np.ndarray) -> np.ndarray:
    """The unit-trace Hermitian state of the null vector ``null_vec``; a
    null space of dimension other than one under the singular values
    ``svals`` raises."""
    null_tol = max(float(svals.max()), 1e-300) * 1e-9
    null_count = int(np.count_nonzero(svals <= null_tol))
    if null_count != 1:
        raise DegenerateSteadyStateError(
            f"Liouvillian null space has dimension {null_count}, expected 1"
        )
    rho = null_vec.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho)
    if abs(tr) < 1e-12 * np.linalg.norm(rho):
        raise DegenerateSteadyStateError(
            "null vector is traceless; no normalizable steady state"
        )
    return (rho / tr).astype(complex)


def box_joint_model(settings: LaserSettings, n_max: int) -> LindbladModel:
    """The full mode's joint model on the whole box: both modes truncated
    at ``n_max`` Fock states each, on the layout (2, n_max, n_max).

    :func:`ionotto.reservoirs.full_joint_model` keeps the states with
    n_x + n_y < n_max, and its operators must equal this model's sliced
    to them, bit for bit.  The couplings s_alpha = (lambda / 2)
    (Omega_alpha1 sigma_- + Omega_alpha2 sigma_+) are written out here.
    """
    layout = SpaceLayout((2, n_max, n_max))
    a = destroy(n_max)
    ident = np.eye(n_max, dtype=complex)
    r1, r2, r3, r4 = settings.rabi
    half = settings.lamb / 2.0
    s_x = half * (r1 * sigma_minus() + r2 * sigma_plus())
    s_y = half * (r3 * sigma_minus() + r4 * sigma_plus())
    h = kron(s_x, a.conj().T, ident)
    h += kron(s_y, ident, a.conj().T)
    h += h.conj().T
    kappa_x, kappa_y = settings.rates
    return LindbladModel(
        hamiltonian=h,
        channels=((kappa_x, layout.embed(a, 1)), (kappa_y, layout.embed(a, 2))),
        slow_rate=slow_relaxation_rate(settings.target),
    )


def reference_liouvillian(model: LindbladModel, *, sparse: bool = False):
    """Matrix of the generator acting on row-major vectorized states.

    Dense by default; ``sparse`` builds the same entries in CSR form and
    drops the zeros that ``sp.kron`` stores.

    The sum of Kronecker products, formed with ``np.kron`` or ``sp.kron``:
    the reference that :func:`ionotto.lindblad.liouvillian_matrix`, which
    evaluates the same terms on their union support without forming a
    product, must reproduce entry for entry.
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
    if not sparse:
        return liou
    liou = liou.tocsr()
    liou.eliminate_zeros()
    return liou


def reference_state_sector(liou: sp.csr_matrix, y0: np.ndarray, dim: int) -> np.ndarray:
    """Indices of the vectorized entries that the dynamics from ``y0`` can reach.

    The connected components of the nonzero pattern of |L| + |L|^T, taken
    from the whole generator ``liou`` (CSR, exact zeros dropped), that hold
    a diagonal entry or a nonzero of ``y0``: the full-space route that
    :func:`ionotto.lindblad._sector_block`, which labels the structural
    support and evaluates entries on the sector's rows only, must match.
    """
    _, labels = connected_components(sp.csr_matrix(abs(liou)), directed=False)
    seeds = np.concatenate((np.arange(dim) * (dim + 1), np.flatnonzero(y0)))
    return np.flatnonzero(np.isin(labels, labels[seeds]))


def reference_window_loop(
    model: LindbladModel,
    rho0: np.ndarray,
    *,
    change_tol: float = 1e-8,
    method: str | None = None,
) -> EquilibrationReport:
    """Window-based relaxation that takes the exact trace norm every window.

    The loop of :func:`ionotto.lindblad.equilibrate` before its Frobenius
    pre-test, with a generator built per call: ``equilibrate`` skips the
    eigenvalue decomposition on windows that cannot pass and must report
    the same windows, changes, residuals and states bit for bit.
    ``method`` forces ``rk`` or ``implicit`` windows; by default the loop
    takes the stepper that ``equilibrate`` picks for the model.
    """
    dt = _slowest_window(model)
    rho = _check_state(rho0, model.dim)
    method = method or _stepper(model)
    if method == "rk":

        def advance(rho: np.ndarray) -> tuple[np.ndarray, int, float]:
            report = evolve(model, rho, dt)
            return report.final_state, report.steps_taken, report.max_trace_drift

        budget = _RK_WINDOWS
        liou = model.generator
        sector_dim = model.dim**2
    elif method == "implicit":
        budget = _IMPLICIT_WINDOWS
        liou = reference_liouvillian(model, sparse=True)
        sector = reference_state_sector(liou, rho.reshape(-1), model.dim)
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
